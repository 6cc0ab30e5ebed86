"""Command-line front end: spectrum | check | construct | search.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a check emits a
report that is applicable but not satisfied.  All randomness flows from
--seed; machine output (json/csv) is byte-identical across repeated runs on
the same machine with the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from ngspectral.bounds import BoundReport, any_violated, battery_columns
from ngspectral.constructions import WITNESS_TOL, construct_a, extremal_graph, witness_check
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, generate, max_order
from ngspectral.reporting import (
    FORMATS, graph6_line, matrix_lines, render, render_columns, spectrum_lines,
)
from ngspectral.search import (
    FAMILIES, ExtremalRecord, RatioRow, exhaustive_f, local_search_f, ratio_table,
)
from ngspectral.spectra import DEFAULT_TOL, check_tol, spectrum_pair


class UsageError(Exception):
    """Invalid flags or unparseable input; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _tolerance(text: str) -> float:
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    parser.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL,
        help="inequality tolerance, positive and finite (default 1e-8, 1e-9 for construct); "
        "read by check, construct --extremal, search --exact and search --table",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built
    once per process; parse_args leaves them unchanged."""
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
    p_con.set_defaults(tol=WITNESS_TOL)

    p_search = sub.add_parser("search", help="extremal-function search")
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="exhaustive enumeration (small n)")
    mode.add_argument("--local", action="store_true", help="seeded hill climbing")
    mode.add_argument("--table", action="store_true", help="ratio table over --n-list")
    p_search.add_argument("--n", type=int, help="graph order")
    p_search.add_argument("--s", type=int, required=True, help="index parameter")
    p_search.add_argument("--family", choices=FAMILIES, required=True)
    p_search.add_argument("--iterations", type=int, default=50)
    p_search.add_argument("--restarts", type=int, default=3)
    p_search.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_search.add_argument("--n-list", metavar="N1,N2,...", help="orders for --table")
    _add_common(p_search)

    return parser, {"spectrum": p_spec, "check": p_check, "construct": p_con, "search": p_search}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process.  `main` hands it only
    an argv that does not start with a command name; a command's own parser
    reads the rest of an argv that does."""
    return _parsers()[0]


def _resolve_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.graph6_file is not None:
        try:
            with open(args.graph6_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.graph6_file}: {exc}") from exc
        # graph6 holds no whitespace, so blank lines and the ends of the
        # one graph's line are layout
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if len(lines) > 1:
            raise UsageError(
                f"{args.graph6_file} holds more than one graph6 string; give one graph per file"
            )
        try:
            return parse_graph6(lines[0] if lines else "")
        except ValueError as exc:
            raise UsageError(f"{args.graph6_file}: {exc}") from exc
    spec = args.generate
    if ":" not in spec:
        raise UsageError(f"generator spec must look like kind:params, got {spec!r}")
    kind, _, params = spec.partition(":")
    try:
        values = [float(x) for x in params.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"bad generator parameters in {spec!r}") from exc
    return generate(kind, values, seed=args.seed)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _do_spectrum(args: argparse.Namespace) -> tuple[str, int]:
    g = _resolve_graph(args)
    sg, sc = spectrum_pair(g)
    return spectrum_lines(g.n, g.edge_count, sg, sc, args.format), 0


def _do_check(args: argparse.Namespace) -> tuple[str, int]:
    if args.s_max < 1:
        raise UsageError(f"--s-max must be at least 1, got {args.s_max}")
    cap = max_order()
    if args.s_max > cap:  # every s above the cap is inapplicable to every graph accepted
        raise UsageError(f"--s-max {args.s_max} exceeds the graph-order cap {cap}")
    g = _resolve_graph(args)
    columns = battery_columns(g, args.s_max, tol=args.tol)
    return render_columns(columns, args.format, BoundReport), 2 if any_violated(columns) else 0


def _do_construct(args: argparse.Namespace) -> tuple[str, int]:
    if args.a_matrix is not None:
        if args.a_matrix < 1:
            raise UsageError(f"--a-matrix index must be at least 1, got {args.a_matrix}")
        return matrix_lines(construct_a(args.a_matrix), args.format), 0
    if args.k is None or args.t is None:
        raise UsageError("--extremal requires --k and --t")
    if args.k < 1 or args.t < 1:
        raise UsageError("--k and --t must be at least 1")
    g = extremal_graph(args.k, args.t)
    reports = witness_check(g, args.k, tol=args.tol)
    text = graph6_line(emit_graph6(g), args.k, args.t, args.format)
    text += render(reports, args.format, BoundReport)
    return text, 2 if any(r.violated for r in reports) else 0


def _do_search(args: argparse.Namespace) -> tuple[str, int]:
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
            tol=args.tol,
        )
        return render(rows, args.format, RatioRow), 0
    if args.n is None:
        raise UsageError("--exact and --local require --n")
    if args.exact:
        record = exhaustive_f(args.n, args.s, args.family, tol=args.tol)
    else:
        record = local_search_f(
            args.n,
            args.s,
            args.family,
            args.seed,
            args.iterations,
            args.restarts,
        )
    return render([record], args.format, ExtremalRecord), 0


_HANDLERS = {
    "spectrum": _do_spectrum,
    "check": _do_check,
    "construct": _do_construct,
    "search": _do_search,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit
    code.  argv is parsed in one pass: when it starts with a command name,
    that command's parser reads the rest; otherwise (no argument, an unknown
    name, a leading option or a top-level -h) the top-level parser reads it
    all and prints its own error or help.  Both paths print the messages
    and help texts, with the exit codes, that the top-level parser gives
    when it reads the whole argv."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands = _parsers()
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        text, code = _HANDLERS[args.command](args)
        _emit(args, text)
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
