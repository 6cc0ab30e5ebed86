"""Deterministic text/JSON/CSV rendering for reports, records and tables.

Identical inputs must produce byte-identical output, so every real number is
rendered with 12 significant digits (IEEE round-half-even), -0.0 normalizes
to 0, field order is fixed, and rows end with a bare newline.  NaN renders as
"nan" in CSV/text and as null in JSON.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from ngspectral.bounds import BoundReport
from ngspectral.search import ExtremalRecord, RatioRow

REPORT_CSV_HEADER = "bound_id,n,s_or_k,applicable,strict,lhs,rhs,margin,satisfied,tol"
RECORD_CSV_HEADER = "n,s,family,value,witness,method,exact,evaluations,seed"
RATIO_CSV_HEADER = "n,value,ratio,target,gap,method"


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


def report_csv_row(r: BoundReport) -> str:
    param = "" if r.param is None else str(r.param)
    return ",".join(
        [
            r.bound_id,
            str(r.n),
            param,
            _bool(r.applicable),
            _bool(r.strict),
            format_real(r.lhs),
            format_real(r.rhs),
            format_real(r.margin),
            _bool(r.satisfied),
            format_real(r.tol),
        ]
    )


def report_json_line(r: BoundReport) -> str:
    param = "null" if r.param is None else str(r.param)
    return (
        "{"
        f'"bound_id":{json.dumps(r.bound_id)},'
        f'"n":{r.n},'
        f'"s_or_k":{param},'
        f'"applicable":{_bool(r.applicable)},'
        f'"strict":{_bool(r.strict)},'
        f'"lhs":{_json_real(r.lhs)},'
        f'"rhs":{_json_real(r.rhs)},'
        f'"margin":{_json_real(r.margin)},'
        f'"satisfied":{_bool(r.satisfied)},'
        f'"tol":{_json_real(r.tol)}'
        "}"
    )


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


def record_csv_row(rec: ExtremalRecord) -> str:
    seed = "" if rec.seed is None else str(rec.seed)
    return ",".join(
        [
            str(rec.n),
            str(rec.s),
            rec.family,
            format_real(rec.value),
            rec.witness,
            rec.method,
            _bool(rec.exact),
            str(rec.evaluations),
            seed,
        ]
    )


def record_json_line(rec: ExtremalRecord) -> str:
    seed = "null" if rec.seed is None else str(rec.seed)
    return (
        "{"
        f'"n":{rec.n},'
        f'"s":{rec.s},'
        f'"family":{json.dumps(rec.family)},'
        f'"value":{_json_real(rec.value)},'
        f'"witness":{json.dumps(rec.witness)},'
        f'"method":{json.dumps(rec.method)},'
        f'"exact":{_bool(rec.exact)},'
        f'"evaluations":{rec.evaluations},'
        f'"seed":{seed}'
        "}"
    )


def record_text(rec: ExtremalRecord) -> str:
    exact = "exact" if rec.exact else "lower bound"
    return (
        f"n={rec.n} s={rec.s} family={rec.family}: value={format_real(rec.value)} "
        f"({exact}, {rec.method}, {rec.evaluations} evaluations) witness={rec.witness}"
    )


def ratio_csv_row(row: RatioRow) -> str:
    return ",".join(
        [
            str(row.n),
            format_real(row.value),
            format_real(row.ratio),
            format_real(row.target),
            format_real(row.gap),
            row.method,
        ]
    )


def ratio_json_line(row: RatioRow) -> str:
    return (
        "{"
        f'"n":{row.n},'
        f'"value":{_json_real(row.value)},'
        f'"ratio":{_json_real(row.ratio)},'
        f'"target":{_json_real(row.target)},'
        f'"gap":{_json_real(row.gap)},'
        f'"method":{json.dumps(row.method)}'
        "}"
    )


def ratio_text(row: RatioRow) -> str:
    return (
        f"n={row.n}: value={format_real(row.value)} value/n={format_real(row.ratio)} "
        f"target={format_real(row.target)} gap={format_real(row.gap)} [{row.method}]"
    )


def render(items: Iterable, fmt: str, kind: type) -> list[str]:
    """Lines of `items`, all of `kind` (BoundReport, ExtremalRecord or
    RatioRow), in `fmt`: csv is a header then one row per item, json and
    text one line per item.  The per-item renderers are looked up by name
    at each call, so a wrapper bound to that name sees every item."""
    if kind is BoundReport:
        header, csv_row, json_line, text = (
            REPORT_CSV_HEADER, report_csv_row, report_json_line, report_text_line)
    elif kind is ExtremalRecord:
        header, csv_row, json_line, text = (
            RECORD_CSV_HEADER, record_csv_row, record_json_line, record_text)
    elif kind is RatioRow:
        header, csv_row, json_line, text = (
            RATIO_CSV_HEADER, ratio_csv_row, ratio_json_line, ratio_text)
    else:
        raise TypeError(f"no renderer for {kind.__name__}")
    if fmt == "csv":
        return [header] + [csv_row(x) for x in items]
    line = json_line if fmt == "json" else text
    return [line(x) for x in items]


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
