"""Deterministic text/JSON/CSV rendering of everything the CLI prints.

Identical inputs must produce byte-identical output, so every real number is
rendered with 12 significant digits (IEEE round-half-even), -0.0 normalizes
to 0, field order is fixed, and rows end with a bare newline.  NaN renders
as "nan" in CSV/text and as null in JSON.  Every entry point the CLI calls
returns the exact text it prints, each line ending in a newline.

Tables are formatted from columns, in bulk.  Reports, records and ratio rows
each have one column table in `COLUMNS`, in the field order of their kind,
and one text row in `TEXT_ROWS`.  `render_columns` takes a table as columns
(`check` hands it `bounds.battery_columns`, straight from `bounds.evaluate`,
its reals as float64 arrays) and builds a row template of % specs from the
column table; the text that depends only on the kind and the format, the
csv header and the json keys, is built once per process (`_frame`).  A real
is REAL, "%.12g", which calls the same PyOS_double_to_string as
format(x, ".12g"); -0.0 is folded in numpy first, and in json a row with a
NaN real gets a template with null in that cell.
Word cells (a bool, an optional int, a json string, and the words of a
text row) are mapped to text through a table of their column's distinct
values.  A column whose values are all equal, such as a battery's n and
tol, is formatted once into the row template's literal text, unless the
table has one row or the column is NaN.  One '%' then formats the whole
table (`_fill`).
`render` transposes a list of items into the same call, and the spectrum
lines go through `_fill` too; `format_real` is the rule for one real that
the bulk formatter must match.  The recursion-matrix grid and the extremal
graph6 line each have one function that takes the format, so the CLI only
passes the format on.  `FORMATS` lists the formats; every entry point
rejects any other with a ValueError.
"""

from __future__ import annotations

import functools
import json
import math
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ngspectral.bounds import BoundReport
from ngspectral.graphs import Matrix01
from ngspectral.search import ExtremalRecord, RatioRow


FORMATS = ("text", "json", "csv")


def _check_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; choose from {', '.join(FORMATS)}")
    return fmt


def format_real(x: float) -> str:
    """One real as every bulk-formatted cell prints it (NaN as nan); the
    rule that `_fill` must match, kept as the tests' scalar oracle."""
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".12g")


REAL = "%.12g"  # '%' calls PyOS_double_to_string, as format(x, ".12g") does
NULL = "null%.0s"  # a NaN real in json: takes the value, prints null


def _fill(cells: Sequence[tuple[str, str, Sequence]], sep: str, tail: str = "",
          null_nan: bool = False) -> str:
    """The rows of a table, joined by `sep`, formatted by one '%'.  Each cell
    is (the text before it, its % spec, its value in every row); each row is
    its cells, then `tail`.  The values of a REAL cell are reals (a float64
    array is read as it is): -0.0 is folded to 0 in numpy, and, with
    `null_nan`, the rows where one is NaN get a row template with NULL in its
    place.  A cell whose values are all equal, in a table of two rows or
    more, is formatted once into the row template's literal text; a NaN is
    equal to nothing, so a NaN cell never is."""
    sep, tail = sep.replace("%", "%%"), tail.replace("%", "%%")  # literal text
    rows = len(cells[0][2])
    specs, args, nans = [], [], []
    text = ""  # the literal text before the next cell that takes values
    for before, spec, values in cells:
        text += before.replace("%", "%%")
        if spec == REAL:
            x = np.asarray(values, dtype=np.float64)
            x = np.where(x == 0.0, 0.0, x)  # like + 0.0, quiet on any NaN bits
            same = rows > 1 and bool((x == x[0]).all())
            values = x.tolist()
            if null_nan and np.isnan(x).any():
                nans.append((len(specs), np.isnan(x)))
        else:
            same = rows > 1 and values.count(values[0]) == rows
        if same:
            text += (spec % (values[0],)).replace("%", "%%")
        else:
            specs.append((text, spec))
            args.append(values)
            text = ""
    tail = text + tail

    def row(nulls: frozenset = frozenset()) -> str:
        cells = (b + (NULL if j in nulls else spec) for j, (b, spec) in enumerate(specs))
        return "".join(cells) + tail

    if nans:
        # one row template per pattern of NaN cells
        code = sum(nan.astype(np.int64) << bit for bit, (_, nan) in enumerate(nans)).tolist()
        variants = {c: row(frozenset(j for bit, (j, _) in enumerate(nans) if c >> bit & 1))
                    for c in set(code)}
        template = sep.join(map(variants.__getitem__, code))
    else:
        template = sep.join([row()] * rows)
    flat = [None] * (rows * len(args))  # row by row, as the template reads them
    for j, values in enumerate(args):
        flat[j :: len(args)] = values
    return template % tuple(flat)


def _words(values: Sequence, word) -> Sequence:
    """Each value as `word` writes it, read from a table of the column's
    distinct values; str is left to '%s'.  A str `word` is the word of None
    in a column of optional ints, whose ints are also left to '%s'."""
    if word is str:
        return values
    if isinstance(word, str):
        return [word if v is None else v for v in values]
    table = {v: word(v) for v in set(values)}
    return list(map(table.__getitem__, values))


def _bool(x: bool) -> str:
    return "true" if x else "false"


# A value type: how one value becomes a csv cell and a json value, a
# function or, for an optional int, the word of None.  A real is formatted
# by '%' itself (REAL, NULL).
STR = (str, json.dumps)
INT = (str, str)
BOOL = (_bool, _bool)
FLOAT = None
OPT_INT = ("", "null")  # the word of None; '%s' writes the ints


class Column(NamedTuple):
    name: str  # csv header and json key
    attr: str
    type: Optional[tuple]  # a value type, or FLOAT


# One column per field of the kind, in field order, so a table's columns
# are its fields
COLUMNS = {
    BoundReport: (
        Column("bound_id", "bound_id", STR),
        Column("n", "n", INT),
        Column("s_or_k", "param", OPT_INT),
        Column("applicable", "applicable", BOOL),
        Column("strict", "strict", BOOL),
        Column("lhs", "lhs", FLOAT),
        Column("rhs", "rhs", FLOAT),
        Column("margin", "margin", FLOAT),
        Column("satisfied", "satisfied", BOOL),
        Column("tol", "tol", FLOAT),
    ),
    ExtremalRecord: (
        Column("n", "n", INT),
        Column("s", "s", INT),
        Column("family", "family", STR),
        Column("value", "value", FLOAT),
        Column("witness", "witness", STR),
        Column("method", "method", STR),
        Column("exact", "exact", BOOL),
        Column("evaluations", "evaluations", INT),
        Column("seed", "seed", OPT_INT),
    ),
    RatioRow: (
        Column("n", "n", INT),
        Column("value", "value", FLOAT),
        Column("ratio", "ratio", FLOAT),
        Column("target", "target", FLOAT),
        Column("gap", "gap", FLOAT),
        Column("method", "method", STR),
    ),
}

# (applicable, satisfied) -> status
_STATUS = {(True, True): "OK", (True, False): "VIOLATION", (False, True): "SKIP",
           (False, False): "SKIP"}


def _report_text(bound_id, n, param, applicable, strict, lhs, rhs, margin, satisfied, tol):
    status = list(map(_STATUS.__getitem__, zip(applicable, satisfied)))
    return [
        ("", "%-9s", status),
        (" ", "%-22s", bound_id),
        (" n=", "%s", n),
        (" param=", "%s", _words(param, "-")),
        (" ", REAL, lhs),
        (" ", "%s", _words(strict, lambda x: "<" if x else "<=")),
        (" ", REAL, rhs),
        (" margin=", REAL, margin),
    ], ""


def _record_text(n, s, family, value, witness, method, exact, evaluations, seed):
    return [
        ("n=", "%s", n),
        (" s=", "%s", s),
        (" family=", "%s", family),
        (": value=", REAL, value),
        (" (", "%s", _words(exact, lambda x: "exact" if x else "lower bound")),
        (", ", "%s", method),
        (", ", "%s", evaluations),
        (" evaluations) witness=", "%s", witness),
    ], ""


def _ratio_text(n, value, ratio, target, gap, method):
    return [
        ("n=", "%s", n),
        (": value=", REAL, value),
        (" value/n=", REAL, ratio),
        (" target=", REAL, target),
        (" gap=", REAL, gap),
        (" [", "%s", method),
    ], "]"


# kind -> its text row: (cells, tail) from the columns
TEXT_ROWS = {BoundReport: _report_text, ExtremalRecord: _record_text, RatioRow: _ratio_text}


def _columns_of(kind: type) -> tuple[Column, ...]:
    if kind not in COLUMNS:
        raise TypeError(f"no renderer for {kind.__name__}")
    return COLUMNS[kind]


@functools.cache
def _frame(kind: type, fmt: str) -> tuple[str, tuple[tuple[str, object], ...], str]:
    """The text of a json or csv table of `kind` that no value changes, built
    once per (kind, format): the csv header ("" in json), then per column
    the literal text before its cell and how its values become words (None
    for a real), then each row's tail."""
    fields, json_ = COLUMNS[kind], fmt == "json"
    cells = []
    for j, (name, _, vtype) in enumerate(fields):
        before = "," if j else ""
        if json_:
            before = (before or "{") + json.dumps(name) + ":"
        cells.append((before, None if vtype is FLOAT else vtype[json_]))
    head = "" if json_ else ",".join(c.name for c in fields) + "\n"
    return head, tuple(cells), "}\n" if json_ else "\n"


def render_columns(columns: Sequence[Sequence], fmt: str, kind: type) -> str:
    """The output of a table of `kind` (BoundReport, ExtremalRecord or
    RatioRow) in `fmt`, each line ending in a newline: csv is a header then
    one row per item, json and text one line per item.  columns[j] holds
    field j of the kind for every item (`COLUMNS`), and one '%' formats the
    whole table."""
    _columns_of(kind)  # a TypeError for a kind with no table, before any format error
    if _check_format(fmt) == "text":
        cells, tail = TEXT_ROWS[kind](*columns)
        return _fill(cells, "", tail + "\n")
    head, frame, tail = _frame(kind, fmt)
    cells = [(before, REAL, values) if word is None else (before, "%s", _words(values, word))
             for (before, word), values in zip(frame, columns)]
    return head + _fill(cells, "", tail, null_nan=fmt == "json")


def render(items: Iterable, fmt: str, kind: type) -> str:
    """The output of `items`, all of `kind`, in `fmt`: `render_columns` on
    the items' fields."""
    fields, items = _columns_of(kind), list(items)
    columns = [list(map(attrgetter(c.attr), items)) for c in fields]
    return render_columns(columns, fmt, kind)


def _reals(x: np.ndarray, sep: str, null_nan: bool = False) -> str:
    return _fill([("", REAL, x)], sep, null_nan=null_nan)


def spectrum_csv_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> str:
    index = range(1, len(sg) + 1)
    rows = _fill([(f"{n},{edges},", "%s", index), (",", REAL, sg), (",", REAL, sc)], "", "\n")
    return "n,e,i,mu_g,mu_complement\n" + rows


def spectrum_json(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> str:
    return (
        "{"
        f'"n":{n},"e":{edges},'
        f'"spectrum":[{_reals(sg, ",", True)}],'
        f'"complement_spectrum":[{_reals(sc, ",", True)}]'
        "}\n"
    )


def spectrum_text_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> str:
    return f"n={n} e={edges}\nG: {_reals(sg, ', ')}\ncomplement: {_reals(sc, ', ')}\n"


def spectrum_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray, fmt: str) -> str:
    """The spectra `sg` of a graph with `n` vertices and `edges` edges and
    `sc` of its complement, in `fmt`."""
    if _check_format(fmt) == "json":
        return spectrum_json(n, edges, sg, sc)
    if fmt == "csv":
        return spectrum_csv_lines(n, edges, sg, sc)
    return spectrum_text_lines(n, edges, sg, sc)


def matrix_lines(matrix: Matrix01, fmt: str) -> str:
    """The 0/1 grid of `matrix`: one row of digits per line (comma-separated
    in csv), or one json object with the order and the rows."""
    rows = ["".join(map(str, row)) for row in matrix.entries.tolist()]
    if _check_format(fmt) == "json":
        return json.dumps({"order": matrix.order, "rows": rows}, separators=(",", ":")) + "\n"
    return "".join((",".join(row) if fmt == "csv" else row) + "\n" for row in rows)


def graph6_line(g6: str, k: int, t: int, fmt: str) -> str:
    """The graph6 line that heads the witness reports of extremal_graph(k, t)."""
    if _check_format(fmt) == "json":
        return json.dumps({"graph6": g6, "k": k, "t": t}, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return f"graph6,{g6}\n"
    return f"graph6: {g6}\n"
