"""Column-table rendering of reports, records and ratio rows."""

import math

import numpy as np
import pytest

from ngspectral.bounds import BoundReport
from ngspectral.graphs import Matrix01
from ngspectral.reporting import graph6_line, matrix_lines, render, spectrum_lines
from ngspectral.search import ExtremalRecord, RatioRow

NAN = math.nan


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
    ]
    assert render(reports, "csv", BoundReport) == [
        "bound_id,n,s_or_k,applicable,strict,lhs,rhs,margin,satisfied,tol",
        'a"b\\c,3,,true,false,nan,0,nan,false,1e-08',
        "plain,3,2,false,true,nan,0,nan,false,1e-08",
        "plain,3,0,true,true,1,2.5,1.5,true,1e-08",
    ]
    assert render(reports, "json", BoundReport) == [
        '{"bound_id":"a\\"b\\\\c","n":3,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}',
        '{"bound_id":"plain","n":3,"s_or_k":2,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}',
        '{"bound_id":"plain","n":3,"s_or_k":0,"applicable":true,"strict":true,'
        '"lhs":1,"rhs":2.5,"margin":1.5,"satisfied":true,"tol":1e-08}',
    ]
    records = [
        ExtremalRecord(5, 2, "top", 1.0 / 3.0, "D\\w", "exhaustive", True, 12, None),
        ExtremalRecord(5, 2, "top", -0.0, "D??", "local_search", False, 0, 7),
    ]
    assert render(records, "csv", ExtremalRecord) == [
        "n,s,family,value,witness,method,exact,evaluations,seed",
        "5,2,top,0.333333333333,D\\w,exhaustive,true,12,",
        "5,2,top,0,D??,local_search,false,0,7",
    ]
    assert render(records, "json", ExtremalRecord) == [
        '{"n":5,"s":2,"family":"top","value":0.333333333333,"witness":"D\\\\w",'
        '"method":"exhaustive","exact":true,"evaluations":12,"seed":null}',
        '{"n":5,"s":2,"family":"top","value":0,"witness":"D??",'
        '"method":"local_search","exact":false,"evaluations":0,"seed":7}',
    ]
    rows = [RatioRow(4, NAN, NAN, 0.5, NAN, "exhaustive")]
    assert render(rows, "csv", RatioRow) == [
        "n,value,ratio,target,gap,method", "4,nan,nan,0.5,nan,exhaustive"
    ]
    assert render(rows, "json", RatioRow) == [
        '{"n":4,"value":null,"ratio":null,"target":0.5,"gap":null,"method":"exhaustive"}'
    ]


def test_render_empty_and_unknown_kind():
    assert render([], "csv", RatioRow) == ["n,value,ratio,target,gap,method"]
    assert render([], "json", RatioRow) == []
    assert render(iter([]), "text", RatioRow) == []
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

