"""Deterministic text/JSON/CSV rendering of everything the CLI prints.

Identical inputs must produce byte-identical output, so every real number is
rendered with 12 significant digits (IEEE round-half-even), -0.0 normalizes
to 0, field order is fixed, and rows end with a bare newline.  NaN renders as
"nan" in CSV/text and as null in JSON.

Reports, records and ratio rows each have one column table in `COLUMNS`:
`render` derives the csv header, the csv rows and the json lines from it,
and calls the kind's text-line function for text.  The spectrum, the
recursion-matrix grid and the extremal graph6 line each have one function
that takes the format, so the CLI only passes the format on.  `FORMATS`
lists the formats; every entry point rejects any other with a ValueError.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

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
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".12g")


def _json_real(x: float) -> str:
    return "null" if math.isnan(x) else format_real(x)


def _bool(x: bool) -> str:
    return "true" if x else "false"


# A value type: how one value becomes a csv cell and a json value.
STR = (str, json.dumps)
INT = (str, str)
BOOL = (_bool, _bool)
FLOAT = (format_real, _json_real)
OPT_INT = (lambda v: "" if v is None else str(v), lambda v: "null" if v is None else str(v))


class Column(NamedTuple):
    name: str  # csv header and json key
    attr: str
    type: tuple[Callable[..., str], Callable[..., str]]


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

# kind -> name of its text-line function, looked up at each call so that a
# wrapper bound to that name sees every item
TEXT_LINE = {BoundReport: "report_text_line", ExtremalRecord: "record_text", RatioRow: "ratio_text"}


def report_text_line(r: BoundReport) -> str:
    param = "-" if r.param is None else str(r.param)
    if not r.applicable:
        status = "SKIP"
    elif r.satisfied:
        status = "OK"
    else:
        status = "VIOLATION"
    rel = "<" if r.strict else "<="
    return (
        f"{status:9s} {r.bound_id:22s} n={r.n} param={param} "
        f"{format_real(r.lhs)} {rel} {format_real(r.rhs)} margin={format_real(r.margin)}"
    )


def record_text(rec: ExtremalRecord) -> str:
    exact = "exact" if rec.exact else "lower bound"
    return (
        f"n={rec.n} s={rec.s} family={rec.family}: value={format_real(rec.value)} "
        f"({exact}, {rec.method}, {rec.evaluations} evaluations) witness={rec.witness}"
    )


def ratio_text(row: RatioRow) -> str:
    return (
        f"n={row.n}: value={format_real(row.value)} value/n={format_real(row.ratio)} "
        f"target={format_real(row.target)} gap={format_real(row.gap)} [{row.method}]"
    )


def render(items: Iterable, fmt: str, kind: type) -> list[str]:
    """Lines of `items`, all of `kind` (BoundReport, ExtremalRecord or
    RatioRow), in `fmt`: csv is a header then one row per item, json and
    text one line per item.  Each column converts each distinct value once."""
    if kind not in COLUMNS:
        raise TypeError(f"no renderer for {kind.__name__}")
    if _check_format(fmt) == "text":
        line = globals()[TEXT_LINE[kind]]
        return [line(x) for x in items]
    columns = COLUMNS[kind]
    items = list(items)
    cells = []
    for name, attr, (csv_cell, json_value) in columns:
        values = list(map(attrgetter(attr), items))
        if fmt == "csv":
            text = {v: csv_cell(v) for v in set(values)}
        else:
            key = json.dumps(name) + ":"
            text = {v: key + json_value(v) for v in set(values)}
        cells.append(map(text.__getitem__, values))
    if fmt == "csv":
        return [",".join(c.name for c in columns)] + list(map(",".join, zip(*cells)))
    return ["{" + ",".join(row) + "}" for row in zip(*cells)]


def spectrum_csv_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> list[str]:
    lines = ["n,e,i,mu_g,mu_complement"]
    for i, (g, c) in enumerate(zip(sg.tolist(), sc.tolist()), start=1):
        lines.append(f"{n},{edges},{i},{format_real(g)},{format_real(c)}")
    return lines


def spectrum_json(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> str:
    g_vals = ",".join(_json_real(v) for v in sg.tolist())
    c_vals = ",".join(_json_real(v) for v in sc.tolist())
    return (
        "{"
        f'"n":{n},"e":{edges},'
        f'"spectrum":[{g_vals}],'
        f'"complement_spectrum":[{c_vals}]'
        "}"
    )


def spectrum_text_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray) -> list[str]:
    g_vals = ", ".join(format_real(v) for v in sg.tolist())
    c_vals = ", ".join(format_real(v) for v in sc.tolist())
    return [f"n={n} e={edges}", f"G: {g_vals}", f"complement: {c_vals}"]


def spectrum_lines(n: int, edges: int, sg: np.ndarray, sc: np.ndarray, fmt: str) -> list[str]:
    """The spectra `sg` of a graph with `n` vertices and `edges` edges and
    `sc` of its complement, in `fmt`."""
    if _check_format(fmt) == "json":
        return [spectrum_json(n, edges, sg, sc)]
    if fmt == "csv":
        return spectrum_csv_lines(n, edges, sg, sc)
    return spectrum_text_lines(n, edges, sg, sc)


def matrix_lines(matrix: Matrix01, fmt: str) -> list[str]:
    """The 0/1 grid of `matrix`: one row of digits per line (comma-separated
    in csv), or one json object with the order and the rows."""
    rows = ["".join(map(str, row)) for row in matrix.entries.tolist()]
    if _check_format(fmt) == "json":
        return [json.dumps({"order": matrix.order, "rows": rows}, separators=(",", ":"))]
    if fmt == "csv":
        return [",".join(row) for row in rows]
    return rows


def graph6_line(g6: str, k: int, t: int, fmt: str) -> str:
    """The graph6 line that heads the witness reports of extremal_graph(k, t)."""
    if _check_format(fmt) == "json":
        return json.dumps({"graph6": g6, "k": k, "t": t}, separators=(",", ":"))
    if fmt == "csv":
        return f"graph6,{g6}"
    return f"graph6: {g6}"
