"""Command-line front end: spectrum | check | construct | search.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a check emits a
report that is applicable but not satisfied.  All randomness flows from
--seed; machine output (json/csv) is byte-identical across repeated runs on
the same machine with the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from ngspectral.bounds import BoundReport, run_battery
from ngspectral.constructions import construct_a, extremal_graph, witness_check
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import MAX_ORDER_ENV, Graph, generate, max_order
from ngspectral.reporting import (
    RATIO_CSV_HEADER,
    RECORD_CSV_HEADER,
    REPORT_CSV_HEADER,
    ratio_csv_row,
    ratio_json_line,
    ratio_text,
    record_csv_row,
    record_json_line,
    record_text,
    report_csv_row,
    report_json_line,
    report_text_line,
    spectrum_csv_lines,
    spectrum_json,
    spectrum_text_lines,
)
from ngspectral.search import exhaustive_f, local_search_f, ratio_table
from ngspectral.spectra import DEFAULT_TOL, spectrum_pair


class UsageError(Exception):
    """Invalid flags or unparseable input; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    parser.add_argument("--tol", type=float, help="inequality tolerance (positive); read by "
                        "check, construct --extremal, search --exact and search --table")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--max-order", type=int, help="override the graph-order size cap")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph6", metavar="G6", help="inline graph6 string")
    group.add_argument("--graph6-file", metavar="PATH", help="file with one graph6 string")
    group.add_argument(
        "--generate",
        metavar="KIND:PARAMS",
        help="generator spec, e.g. complete:4, cycle:5, complete_bipartite:2,2, erdos_renyi:10,0.5",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="ngspectral", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="print the spectra of a graph and its complement")
    _add_graph_source(p_spec)
    _add_common(p_spec)

    p_check = sub.add_parser("check", help="run the full inequality battery on a graph")
    _add_graph_source(p_check)
    p_check.add_argument("--s-max", type=int, default=3, help="largest index parameter s")
    _add_common(p_check)

    p_con = sub.add_parser("construct", help="emit a recursion matrix or an extremal graph")
    mode = p_con.add_mutually_exclusive_group(required=True)
    mode.add_argument("--a-matrix", type=int, metavar="K", help="print the order-2^K 0/1 grid")
    mode.add_argument("--extremal", action="store_true", help="build the extremal graph for (k, t)")
    p_con.add_argument("--k", type=int, help="recursion depth for --extremal")
    p_con.add_argument("--t", type=int, help="blow-up factor for --extremal")
    _add_common(p_con)

    p_search = sub.add_parser("search", help="extremal-function search")
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="exhaustive enumeration (small n)")
    mode.add_argument("--local", action="store_true", help="seeded hill climbing")
    mode.add_argument("--table", action="store_true", help="ratio table over --n-list")
    p_search.add_argument("--n", type=int, help="graph order")
    p_search.add_argument("--s", type=int, required=True, help="index parameter")
    p_search.add_argument("--family", choices=("top", "bottom"), required=True)
    p_search.add_argument("--iterations", type=int, default=50)
    p_search.add_argument("--restarts", type=int, default=3)
    p_search.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_search.add_argument("--allow-n8", action="store_true", help="raise the exhaustive cap to n=8")
    p_search.add_argument("--n-list", metavar="N1,N2,...", help="orders for --table")
    _add_common(p_search)

    return parser


def _resolve_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.graph6_file is not None:
        try:
            with open(args.graph6_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.graph6_file}: {exc}") from exc
        return parse_graph6(text)
    spec = args.generate
    if ":" not in spec:
        raise UsageError(f"generator spec must look like kind:params, got {spec!r}")
    kind, _, params = spec.partition(":")
    try:
        values = [float(x) for x in params.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"bad generator parameters in {spec!r}") from exc
    return generate(kind, values, seed=args.seed)


def _tol(args: argparse.Namespace) -> float:
    if args.tol is None:
        return DEFAULT_TOL
    if args.tol <= 0:
        raise UsageError(f"tolerance must be positive, got {args.tol}")
    return args.tol


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n" if lines else ""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _report_lines(reports: list[BoundReport], fmt: str) -> list[str]:
    if fmt == "csv":
        return [REPORT_CSV_HEADER] + [report_csv_row(r) for r in reports]
    if fmt == "json":
        return [report_json_line(r) for r in reports]
    return [report_text_line(r) for r in reports]


def _do_spectrum(args: argparse.Namespace) -> int:
    g = _resolve_graph(args)
    _tol(args)  # validated for every command; a spectrum reads no tolerance
    sg, sc = spectrum_pair(g)
    if args.format == "json":
        lines = [spectrum_json(g.n, g.edge_count, sg, sc)]
    elif args.format == "csv":
        lines = spectrum_csv_lines(g.n, g.edge_count, sg, sc)
    else:
        lines = spectrum_text_lines(g.n, g.edge_count, sg, sc)
    _emit(args, lines)
    return 0


def _do_check(args: argparse.Namespace) -> int:
    if args.s_max < 1:
        raise UsageError(f"--s-max must be at least 1, got {args.s_max}")
    cap = max_order()
    if args.s_max > cap:  # every s above the cap is inapplicable to every graph accepted
        raise UsageError(f"--s-max {args.s_max} exceeds the graph-order cap {cap}")
    g = _resolve_graph(args)
    reports = run_battery(g, args.s_max, tol=_tol(args))
    _emit(args, _report_lines(reports, args.format))
    return 2 if any(r.violated for r in reports) else 0


def _do_construct(args: argparse.Namespace) -> int:
    if args.a_matrix is not None:
        if args.a_matrix < 1:
            raise UsageError(f"--a-matrix index must be at least 1, got {args.a_matrix}")
        matrix = construct_a(args.a_matrix)
        rows = ["".join(str(int(x)) for x in row) for row in matrix.entries]
        if args.format == "json":
            quoted = ",".join(f'"{r}"' for r in rows)
            lines = [f'{{"order":{matrix.order},"rows":[{quoted}]}}']
        elif args.format == "csv":
            lines = [",".join(row) for row in rows]
        else:
            lines = rows
        _emit(args, lines)
        return 0
    if args.k is None or args.t is None:
        raise UsageError("--extremal requires --k and --t")
    if args.k < 1 or args.t < 1:
        raise UsageError("--k and --t must be at least 1")
    if args.tol is None:
        reports = witness_check(args.k, args.t)
    else:
        reports = witness_check(args.k, args.t, tol=_tol(args))
    g6 = emit_graph6(extremal_graph(args.k, args.t))
    if args.format == "json":
        lines = [f'{{"graph6":{json.dumps(g6)},"k":{args.k},"t":{args.t}}}']
    elif args.format == "csv":
        lines = [f"graph6,{g6}"]
    else:
        lines = [f"graph6: {g6}"]
    lines.extend(_report_lines(reports, args.format))
    _emit(args, lines)
    return 2 if any(r.violated for r in reports) else 0


def _do_search(args: argparse.Namespace) -> int:
    tol = _tol(args)
    if args.table:
        try:
            orders = [int(x) for x in (args.n_list or "").split(",") if x != ""]
        except ValueError as exc:
            raise UsageError(f"bad --n-list {args.n_list!r}") from exc
        if not orders:
            raise UsageError("--table requires --n-list")
        rows = ratio_table(
            args.s,
            args.family,
            orders,
            seed=args.seed,
            iterations=args.iterations,
            restarts=args.restarts,
            tol=tol,
            allow_order_8=args.allow_n8,
        )
        if args.format == "json":
            lines = [ratio_json_line(r) for r in rows]
        elif args.format == "csv":
            lines = [RATIO_CSV_HEADER] + [ratio_csv_row(r) for r in rows]
        else:
            lines = [ratio_text(r) for r in rows]
        _emit(args, lines)
        return 0
    if args.n is None:
        raise UsageError("--exact and --local require --n")
    if args.exact:
        record = exhaustive_f(
            args.n,
            args.s,
            args.family,
            tol=tol,
            allow_order_8=args.allow_n8,
        )
    else:
        record = local_search_f(
            args.n,
            args.s,
            args.family,
            args.seed,
            args.iterations,
            args.restarts,
        )
    if args.format == "json":
        lines = [record_json_line(record)]
    elif args.format == "csv":
        lines = [RECORD_CSV_HEADER, record_csv_row(record)]
    else:
        lines = [record_text(record)]
    _emit(args, lines)
    return 0


_HANDLERS = {
    "spectrum": _do_spectrum,
    "check": _do_check,
    "construct": _do_construct,
    "search": _do_search,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    saved_cap = os.environ.get(MAX_ORDER_ENV)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_order", None) is not None:
            if args.max_order < 1:
                raise UsageError(f"--max-order must be positive, got {args.max_order}")
            os.environ[MAX_ORDER_ENV] = str(args.max_order)
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # --max-order holds for this call only
        if saved_cap is None:
            os.environ.pop(MAX_ORDER_ENV, None)
        else:
            os.environ[MAX_ORDER_ENV] = saved_cap


def entry() -> None:
    raise SystemExit(main())
