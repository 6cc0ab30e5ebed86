"""Column-table rendering of reports, records and ratio rows."""

import json
import math

import numpy as np
import pytest

from ngspectral.bounds import BoundReport
from ngspectral.graphs import Matrix01
from ngspectral.reporting import (
    BOOL, COLUMNS, FLOAT, OPT_INT, REAL, STR, _fill, format_real, graph6_line, matrix_lines,
    render, render_columns, spectrum_lines,
)
from ngspectral.search import ExtremalRecord, RatioRow

NAN = math.nan


def _text(lines: list[str]) -> str:
    """The output of `lines`, each ending in a newline."""
    return "".join(line + "\n" for line in lines)


def test_render_edge_values():
    # two distinct NaN objects, -0.0 next to 0.0, None, a quote and a
    # backslash: equal values share one conversion, NaN never merges wrongly
    reports = [
        BoundReport('a"b\\c', 3, None, True, False, lhs=NAN, rhs=-0.0, margin=NAN,
                    satisfied=False, tol=1e-8),
        BoundReport("plain", 3, 2, False, True, lhs=float("nan"), rhs=0.0, margin=NAN,
                    satisfied=False, tol=1e-8),
        BoundReport("plain", 3, 0, True, True, lhs=1.0, rhs=2.5, margin=1.5,
                    satisfied=True, tol=1e-8),
        # NaN becomes null cell by cell, never by replacing text in the line
        BoundReport('x":nan,nan}', 3, 1, True, True, lhs=0.5, rhs=NAN, margin=NAN,
                    satisfied=False, tol=1e-8),
    ]
    assert render(reports, "csv", BoundReport) == _text([
        "bound_id,n,s_or_k,applicable,strict,lhs,rhs,margin,satisfied,tol",
        'a"b\\c,3,,true,false,nan,0,nan,false,1e-08',
        "plain,3,2,false,true,nan,0,nan,false,1e-08",
        "plain,3,0,true,true,1,2.5,1.5,true,1e-08",
        'x":nan,nan},3,1,true,true,0.5,nan,nan,false,1e-08',
    ])
    assert render(reports, "json", BoundReport) == _text([
        '{"bound_id":"a\\"b\\\\c","n":3,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}',
        '{"bound_id":"plain","n":3,"s_or_k":2,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}',
        '{"bound_id":"plain","n":3,"s_or_k":0,"applicable":true,"strict":true,'
        '"lhs":1,"rhs":2.5,"margin":1.5,"satisfied":true,"tol":1e-08}',
        '{"bound_id":"x\\":nan,nan}","n":3,"s_or_k":1,"applicable":true,"strict":true,'
        '"lhs":0.5,"rhs":null,"margin":null,"satisfied":false,"tol":1e-08}',
    ])
    assert render(reports, "text", BoundReport) == _text([
        "VIOLATION a\"b\\c                  n=3 param=- nan <= 0 margin=nan",
        "SKIP      plain                  n=3 param=2 nan < 0 margin=nan",
        "OK        plain                  n=3 param=0 1 < 2.5 margin=1.5",
        'VIOLATION x":nan,nan}            n=3 param=1 0.5 < nan margin=nan',
    ])
    records = [
        ExtremalRecord(5, 2, "top", 1.0 / 3.0, "D\\w", "exhaustive", True, 12, None),
        ExtremalRecord(5, 2, "top", -0.0, "D??", "local_search", False, 0, 7),
    ]
    assert render(records, "csv", ExtremalRecord) == _text([
        "n,s,family,value,witness,method,exact,evaluations,seed",
        "5,2,top,0.333333333333,D\\w,exhaustive,true,12,",
        "5,2,top,0,D??,local_search,false,0,7",
    ])
    assert render(records, "json", ExtremalRecord) == _text([
        '{"n":5,"s":2,"family":"top","value":0.333333333333,"witness":"D\\\\w",'
        '"method":"exhaustive","exact":true,"evaluations":12,"seed":null}',
        '{"n":5,"s":2,"family":"top","value":0,"witness":"D??",'
        '"method":"local_search","exact":false,"evaluations":0,"seed":7}',
    ])
    assert render(records, "text", ExtremalRecord) == _text([
        "n=5 s=2 family=top: value=0.333333333333 (exact, exhaustive, 12 evaluations) witness=D\\w",
        "n=5 s=2 family=top: value=0 (lower bound, local_search, 0 evaluations) witness=D??",
    ])
    rows = [RatioRow(4, NAN, NAN, 0.5, NAN, "exhaustive")]
    assert render(rows, "csv", RatioRow) == _text([
        "n,value,ratio,target,gap,method", "4,nan,nan,0.5,nan,exhaustive"
    ])
    assert render(rows, "json", RatioRow) == _text([
        '{"n":4,"value":null,"ratio":null,"target":0.5,"gap":null,"method":"exhaustive"}'
    ])
    assert render(rows, "text", RatioRow) == _text([
        "n=4: value=nan value/n=nan target=0.5 gap=nan [exhaustive]"
    ])


def _hard_reals(rng) -> np.ndarray:
    """Reals whose 12-digit text is easy to get wrong: random bit patterns
    (subnormals and huge exponents among them), ties at the 12th digit,
    signed zeros, NaN, infinities and the ends of the double range."""
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 308, size=2000)
    ties = np.round(rng.random(500), 12) + 5e-13
    special = [0.0, -0.0, NAN, -NAN, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1e-8, 123456789012.5]
    return np.concatenate([bits, scaled, ties, special])


@pytest.mark.parametrize("seed", range(3))
def test_bulk_reals_match_format_real(seed):
    x = _hard_reals(np.random.default_rng(seed))
    want = [format_real(v) for v in x.tolist()]
    assert _fill([("", REAL, x)], "|").split("|") == want
    assert _fill([("", REAL, x.tolist())], "|", null_nan=True).split("|") == [
        "null" if w == "nan" else w for w in want
    ]
    # as table cells: spectrum lines and report columns, in every format
    sg = x[:300]
    assert spectrum_lines(300, 0, sg, sg, "text").split("\n")[1] == "G: " + ", ".join(want[:300])
    csv = spectrum_lines(300, 0, sg, sg, "csv").splitlines()[1:]
    assert [line.split(",")[3] for line in csv] == want[:300]
    reports = [BoundReport("r", 3, None, True, False, v, -v, v, True, 1e-8)
               for v in x[:500].tolist()]
    lhs = [line.split(",")[5] for line in render(reports, "csv", BoundReport).splitlines()[1:]]
    rhs = [format_real(-v) for v in x[:500].tolist()]
    assert lhs == want[:500]
    json_lines = render(reports, "json", BoundReport).splitlines()
    json_rhs = [line.split('"rhs":')[1].split(",")[0] for line in json_lines]
    assert json_rhs == ["null" if r == "nan" else r for r in rhs]


def test_fill_prints_percent_literally_and_null_for_a_nan_column():
    # '%' in a value and in the text before a cell prints as itself, a
    # column that is NaN in every row prints null in json, nan elsewhere
    assert _fill([("", "%s", ["100%"] * 3), (" ", REAL, [1.5, 1.5, 1.5])], ";") == (
        "100% 1.5;100% 1.5;100% 1.5"
    )
    assert _fill([("%", REAL, [NAN])], ";", null_nan=True) == "%null"
    assert _fill([("", REAL, [NAN, NAN])], ";") == "nan;nan"


def test_render_empty_and_unknown_kind():
    assert render([], "csv", RatioRow) == "n,value,ratio,target,gap,method\n"
    assert render([], "json", RatioRow) == ""
    assert render(iter([]), "text", RatioRow) == ""
    with pytest.raises(TypeError, match="no renderer for int"):
        render([1], "csv", int)


@pytest.mark.parametrize("fmt", ["CSV", "xml"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda fmt: render([], fmt, BoundReport),
        lambda fmt: spectrum_lines(2, 1, np.array([1.0, -1.0]), np.array([0.0, 0.0]), fmt),
        lambda fmt: matrix_lines(Matrix01(np.eye(2)), fmt),
        lambda fmt: graph6_line("A_", 1, 1, fmt),
    ],
    ids=["render", "spectrum_lines", "matrix_lines", "graph6_line"],
)
def test_unknown_format_is_rejected(entry, fmt):
    # an unknown format used to fall through to text
    with pytest.raises(ValueError, match="unknown output format .*choose from text, json, csv"):
        entry(fmt)



# ---------------------------------------------------------------- oracle

def _oracle_cell(vtype, value, fmt: str) -> str:
    """One csv or json cell of a value of column type `vtype`, on its own."""
    if vtype is FLOAT:
        text = format_real(value)
        return "null" if fmt == "json" and text == "nan" else text
    if vtype is STR:
        return json.dumps(value) if fmt == "json" else value
    if vtype is BOOL:
        return "true" if value else "false"
    if value is None:  # OPT_INT
        return "null" if fmt == "json" else ""
    return str(value)


def _oracle_text(kind, item) -> str:
    """One text line of `item`, the row of its kind spelled out."""
    if kind is BoundReport:
        status = ("OK" if item.satisfied else "VIOLATION") if item.applicable else "SKIP"
        param = "-" if item.param is None else item.param
        return (f"{status:<9} {item.bound_id:<22} n={item.n} param={param} "
                f"{format_real(item.lhs)} {'<' if item.strict else '<='} {format_real(item.rhs)} "
                f"margin={format_real(item.margin)}")
    if kind is ExtremalRecord:
        return (f"n={item.n} s={item.s} family={item.family}: value={format_real(item.value)} "
                f"({'exact' if item.exact else 'lower bound'}, {item.method}, "
                f"{item.evaluations} evaluations) witness={item.witness}")
    return (f"n={item.n}: value={format_real(item.value)} value/n={format_real(item.ratio)} "
            f"target={format_real(item.target)} gap={format_real(item.gap)} [{item.method}]")


def _oracle(kind, items, fmt: str) -> str:
    fields = COLUMNS[kind]
    if fmt == "text":
        lines = [_oracle_text(kind, item) for item in items]
    else:
        lines = [",".join(c.name for c in fields)] if fmt == "csv" else []
        for item in items:
            cells = [_oracle_cell(c.type, getattr(item, c.attr), fmt) for c in fields]
            if fmt == "json":
                cells = [f"{json.dumps(c.name)}:{cell}" for c, cell in zip(fields, cells)]
            lines.append("{" + ",".join(cells) + "}" if fmt == "json" else ",".join(cells))
    return "".join(line + "\n" for line in lines)


_WORDS = ["a", "plain", "100%", "%s", "%%d", 'q"uote', "back\\slash", "x,y", "", "é"]
_REALS = [NAN, -0.0, 0.0, 1e-8, 1.5, -2.25, 1e300, -math.inf, 1.0 / 3.0, 123456789012.5]


def _values(rng, vtype, rows: int, const: bool) -> list:
    """A random column of `rows` values of `vtype`, all equal when `const`."""
    def one():
        if vtype is FLOAT:
            return float(_REALS[rng.integers(len(_REALS))] if rng.random() < 0.6
                         else rng.standard_normal() * 10.0 ** rng.integers(-5, 5))
        if vtype is STR:
            return _WORDS[rng.integers(len(_WORDS))]
        if vtype is BOOL:
            return bool(rng.integers(2))
        value = int(rng.integers(-3, 300))
        return None if vtype is OPT_INT and rng.random() < 0.3 else value

    if const:
        return [one()] * rows
    return [one() for _ in range(rows)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rows", [0, 1, 2, 37])
@pytest.mark.parametrize("kind", [BoundReport, ExtremalRecord, RatioRow], ids=lambda k: k.__name__)
def test_render_columns_matches_a_per_cell_oracle(kind, rows, seed):
    # each column constant or not at random, the constant ones among them
    # NaN, -0.0 or a string with '%'; real columns as lists or float64 arrays
    rng = np.random.default_rng([seed, rows, len(COLUMNS[kind])])
    for trial in range(6):
        const = rng.random(len(COLUMNS[kind])) < (0.2, 0.5, 0.9)[trial % 3]
        columns = [_values(rng, c.type, rows, bool(k)) for c, k in zip(COLUMNS[kind], const)]
        items = [kind(*row) for row in zip(*columns)]
        columns = [np.array(values, dtype=np.float64) if c.type is FLOAT and rng.random() < 0.5
                   else values for c, values in zip(COLUMNS[kind], columns)]
        for fmt in ("text", "csv", "json"):
            assert render_columns(columns, fmt, kind) == _oracle(kind, items, fmt), (fmt, trial)


def test_constant_columns_print_as_every_row_would():
    # the n and tol columns of a battery are constant; a constant NaN column
    # still prints null in json, a constant -0.0 prints 0, and '%' in a
    # constant string prints as itself
    reports = [BoundReport("100%", 4, p, True, False, NAN, -0.0, NAN, True, 1e-12)
               for p in (None, 1, 2)]
    assert render(reports, "json", BoundReport) == _text([
        '{"bound_id":"100%","n":4,"s_or_k":' + p + ',"applicable":true,"strict":false,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":true,"tol":1e-12}' for p in ("null", "1", "2")
    ])
    assert render(reports, "csv", BoundReport).splitlines()[1:] == [
        f"100%,4,{p},true,false,nan,0,nan,true,1e-12" for p in ("", "1", "2")
    ]
    assert _fill([("%", "%s", ["%d"] * 2), ("%", REAL, [-0.0, 0.0])], ";", "%") == "%%d%0%;%%d%0%"
