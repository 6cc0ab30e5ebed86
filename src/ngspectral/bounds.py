"""The Nordhaus-Gaddum eigenvalue inequalities as one table.

BOUNDS is in report order: its rows are in bound_id order, and each lists
its parameters in ascending order.  Each row is one inequality lhs <= rhs,
or lhs < rhs when strict: its bound id, its strictness, its parameters at
order n for a given s_max, and three numpy sides, lhs, rhs and `applies`
(the precondition), which all read the same `Views` and parameter array.
A side that reads no spectrum, only n, s_max and the parameters, is marked
`Fixed` in the table: most rhs, every `applies` but nonpositive_eigenvalue's
(`ALWAYS` where a row always applies), and the constant lhs of nosal_lower
and weyl_lower, 31 of the 48 sides of BOUNDS.  `evaluate` walks a table
over the spectra of a batch of graphs and their complements, with the
table's layout at (n, s_max) built once and memoized: its columns,
parameter arrays and strictness, and the values of every Fixed side as
read-only arrays.  So a call starts from copies of those and calls only the
sides that read the spectrum.  `table_columns` gives the walk over one
graph as columns, one per BoundReport field, the reals as float64 arrays;
`check` hands those columns (`battery_columns`) straight to
`reporting.render_columns`, which formats the whole table with one '%', and
takes its exit code from `any_violated`, so it builds no BoundReport.
`table_reports` and `run_battery` make BoundReports of the same columns.

A verdict reads only the margin rhs - lhs, the strictness and the slack
tol * max(1, |lhs|, |rhs|), because eigenvalue rounding grows with the sides
(by more than 1e-8 at n = 4096).  Strict inequalities are tested as
margin > -slack: floating arithmetic cannot certify strictness, so at
tolerance scale strict and non-strict coincide; the check guards against
gross violations.  Inapplicable reports are still emitted but are never
asserted; a parameter that indexes past the spectrum (s > n, or k = 0 for
ramsey_sign) gets a NaN side.

The values keep the last bits of the per-inequality checkers this table
replaced, because the CLI prints float noise: running sums over the top of
the spectrum add left to right (np.cumsum, not the pairwise np.sum), sums
over the bottom and the subset sum use math.fsum, and squares go through
np.float_power, which calls the C pow that Python's ** uses (numpy's ** 2
is x*x, which differs in the last bit for about one value in a thousand).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ngspectral.graphs import Graph, bitarray_to_mask, complement, max_order
from ngspectral.spectra import DEFAULT_TOL, check_tol, spectrum_pair


class BoundReport(NamedTuple):
    """One inequality instance, normalized to lhs <= rhs, with the margin
    rhs - lhs and the verdict of `evaluate`."""

    bound_id: str
    n: int
    param: Optional[int]
    applicable: bool
    strict: bool
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    tol: float

    @property
    def violated(self) -> bool:
        return self.applicable and not self.satisfied


def violations(reports: Iterable[BoundReport]) -> list[BoundReport]:
    return [r for r in reports if r.violated]


_APPLICABLE, _SATISFIED = map(BoundReport._fields.index, ("applicable", "satisfied"))


class Views(NamedTuple):
    """What a side reads, besides p, the int array of its row's parameters
    (or [None]); it returns what broadcasts to (batch, len(p)).  t and b,
    of shape (2, batch, width), are 1-based views of the graphs' spectra
    (index 0) and their complements' (1): t[..., p] is mu_p, b[..., p] is
    mu_{n-p+1}, and an index past the spectrum (0, or above n) reads NaN.
    A `Fixed` side sees t, b and tol as None."""

    t: np.ndarray
    b: np.ndarray
    n: int
    s_max: int
    tol: float


Side = Callable[[Views, np.ndarray], np.ndarray]


class Fixed(NamedTuple):
    """A side that reads no spectrum, only n, s_max and the parameters, so
    it is evaluated once per layout (`_layout`), not once per call."""

    side: Side


class Bound(NamedTuple):
    """One inequality lhs <= rhs (lhs < rhs when strict), asserted where
    `applies`.  A side is a `Side` of the spectra or a `Fixed` one."""

    bound_id: str
    strict: bool
    params: Callable[[int, int], Sequence[Optional[int]]]  # (n, s_max)
    lhs: Side | Fixed
    rhs: Side | Fixed
    applies: Side | Fixed


def _sq(x: np.ndarray) -> np.ndarray:
    return np.float_power(x, 2.0)


def _both(x: np.ndarray) -> np.ndarray:
    """The graph's term plus the complement's."""
    return x[0] + x[1]


def _running(x: np.ndarray, s) -> np.ndarray:
    """Sum of x[..., 2..s], added left to right."""
    return x[..., 2:].cumsum(axis=-1)[..., s - 2]


def _fsum_prefix(x: np.ndarray, counts) -> np.ndarray:
    """math.fsum of x[:, 1..c] of each row of x (batch, width), for each c."""
    rows = [[math.fsum(row[1 : c + 1]) for c in counts] for row in x.tolist()]
    return np.array(rows, dtype=np.float64).reshape(x.shape[0], len(counts))


def _ramsey_lhs(v: Views, k: np.ndarray) -> np.ndarray:
    """Best-case violation of: one of {G, complement} has mu_{n-k+1} <= -1
    and the other mu_{n-k+1} <= 0 (nonpositive when that holds).  A tie in
    min or max is between equal values, none of them -0.0, so numpy's
    minimum and maximum give the bits of Python's min and max."""
    g, c = v.b[..., k]
    return -np.maximum(np.minimum(-1.0 - g, 0.0 - c), np.minimum(-1.0 - c, 0.0 - g))


def _total(v: Views, p) -> np.ndarray:
    return _both(v.t[..., 1:2])


ALWAYS = Fixed(lambda v, p: True)  # the precondition of a row that always applies
_top_gate = Fixed(lambda v, s: v.n >= 3 * s - 2)


def _none(n: int, s_max: int) -> list[None]:
    return [None]


def _top_s(n: int, s_max: int) -> range:
    return range(2, s_max + 1)


def _bottom_s(n: int, s_max: int) -> range:
    return range(1, s_max + 1)


def _two_to_n(n: int, s_max: int) -> range:
    return range(2, n + 1)


# in report order (module docstring)
BOUNDS: tuple[Bound, ...] = (
    # sum_{i=1..s} (|mu_{n-i+1}(G)| + |mu_{n-i+1}(comp)|) <= (n/2 + s) sqrt(2s), for n > 2s
    Bound("bottom_abs_sum", False, _bottom_s,
          lambda v, s: _fsum_prefix(_both(np.abs(v.b)), s),
          Fixed(lambda v, s: (v.n / 2.0 + s) * np.sqrt(2.0 * s)), Fixed(lambda v, s: v.n > 2 * s)),
    # mu_{n-s+1}(G)^2 + mu_{n-s+1}(comp)^2 <= (n/2 + s)^2 / s, for n > 4^s;
    # m >= 4^s exactly when 2s < m.bit_length(), and int64 4**s wraps from s = 32
    Bound("bottom_pair_squares", False, _bottom_s,
          lambda v, s: _both(_sq(v.b[..., s])), Fixed(lambda v, s: _sq(v.n / 2.0 + s) / s),
          Fixed(lambda v, s: 2 * s < (v.n - 1).bit_length())),
    # sum_{i=1..s} (mu_{n-i+1}(G)^2 + mu_{n-i+1}(comp)^2) <= (n/2 + s)^2, for n > 2s
    Bound("bottom_sum_squares", False, _bottom_s,
          lambda v, s: _fsum_prefix(_both(_sq(v.b)), s), Fixed(lambda v, s: _sq(v.n / 2.0 + s)),
          Fixed(lambda v, s: v.n > 2 * s)),
    # mu_1(G) + mu_1(comp) <= 4n/3 - 1
    Bound("csikvari_terpai", False, _none, _total, Fixed(lambda v, p: 4.0 * v.n / 3.0 - 1.0),
          ALWAYS),
    # |mu_{n-s+1}(G)| + |mu_{n-s+1}(comp)| <= n/sqrt(2s) + 1, for n >= 4^s
    Bound("fns_upper", False, _bottom_s,
          lambda v, s: _both(np.abs(v.b[..., s])), Fixed(lambda v, s: v.n / np.sqrt(2.0 * s) + 1.0),
          Fixed(lambda v, s: 2 * s < v.n.bit_length())),
    # |mu_s(G)| + |mu_s(comp)| <= n/sqrt(2(s-1)) - 1, for n >= 15(s-1)
    Bound("fs_upper", False, _top_s,
          lambda v, s: _both(np.abs(v.t[..., s])),
          Fixed(lambda v, s: v.n / np.sqrt(2.0 * (s - 1)) - 1.0),
          Fixed(lambda v, s: v.n >= 15 * (s - 1))),
    # |mu_s(G)| <= n / (2 sqrt(n-s+1)), applicable when mu_s(G) <= 0
    Bound("nonpositive_eigenvalue", False, lambda n, s_max: range(2, min(s_max, n) + 1),
          lambda v, s: np.abs(v.t[0][:, s]), Fixed(lambda v, s: v.n / (2.0 * np.sqrt(v.n - s + 1))),
          lambda v, s: v.t[0][:, s] <= v.tol),
    # n - 1 <= mu_1(G) + mu_1(comp) < sqrt(2)(n - 1)
    Bound("nosal_lower", False, _none, Fixed(lambda v, p: v.n - 1.0), _total, ALWAYS),
    Bound("nosal_upper", True, _none, _total, Fixed(lambda v, p: math.sqrt(2.0) * (v.n - 1)),
          ALWAYS),
    # for n >= 4^k one of {G, comp} has mu_{n-k+1} <= -1 and the other
    # mu_{n-k+1} <= 0; k runs over 4^k <= n, and k = 0 is never applicable
    Bound("ramsey_sign", False, lambda n, s_max: range((n.bit_length() - 1) // 2 + 1),
          _ramsey_lhs, Fixed(lambda v, k: 0.0), Fixed(lambda v, k: k >= 1)),
    # sum_{i=2..n} mu_i(G)^2 <= n^2/4; the parameter is the index count
    # c = n - 1, and the shifted view puts mu_2..mu_{c+1} at 1..c
    Bound("subset_squares", False, lambda n, s_max: [n - 1],
          lambda v, c: _fsum_prefix(_sq(v.t[0, :, 1:]), c), Fixed(lambda v, c: v.n * v.n / 4.0),
          ALWAYS),
    # sum_{i=2..s} (|mu_i(G)| + |mu_i(comp)|) < n sqrt((s-1)/2), for n >= 3s-2
    Bound("top_abs_sum", True, _top_s,
          lambda v, s: _both(_running(np.abs(v.t), s)),
          Fixed(lambda v, s: v.n * np.sqrt((s - 1) / 2.0)), _top_gate),
    # mu_s(G)^2 + mu_s(comp)^2 < n^2/(4(s-1)), for n >= 3s-2
    Bound("top_pair_squares", True, _top_s,
          lambda v, s: _both(_sq(v.t[..., s])), Fixed(lambda v, s: v.n * v.n / (4.0 * (s - 1))),
          _top_gate),
    # sum_{i=2..s} (mu_i(G)^2 + mu_i(comp)^2) < n^2/4, for n >= 3s-2
    Bound("top_sum_squares", True, _top_s,
          lambda v, s: _both(_running(_sq(v.t), s)), Fixed(lambda v, s: v.n * v.n / 4.0),
          _top_gate),
    # mu_k(G) + mu_{n-k+1}(comp) >= -1 and mu_k(G) + mu_{n-k+2}(comp) <= -1, for 2 <= k <= n
    Bound("weyl_lower", False, _two_to_n,
          Fixed(lambda v, k: -1.0), lambda v, k: v.t[0][:, k] + v.b[1][:, k], ALWAYS),
    Bound("weyl_upper", False, _two_to_n,
          lambda v, k: v.t[0][:, k] + v.b[1][:, k - 1], Fixed(lambda v, k: -1.0), ALWAYS),
)


class Evaluation(NamedTuple):
    """A table over a batch, one column per (row, parameter) in table
    order: column j is row rows[j] at parameter params[j], and each array
    has shape (batch, columns)."""

    rows: tuple[Bound, ...]
    params: tuple[Optional[int], ...]
    applicable: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    satisfied: np.ndarray


class _Layout(NamedTuple):
    """What `evaluate` reads of a table at one (n, s_max), besides the
    spectra: per column its row, parameter, bound id and strictness; the
    applicable, lhs and rhs columns of every `Fixed` side (`fixed`, each of
    shape (columns,)); and every other side as (its index in `fixed`, the
    side, its row's parameter array, its column slice).  Shared by every
    call, so the arrays are read-only."""

    rows: tuple[Bound, ...]
    params: tuple[Optional[int], ...]
    ids: tuple[str, ...]
    strict: tuple[bool, ...]
    strict_mask: np.ndarray
    fixed: tuple[np.ndarray, np.ndarray, np.ndarray]
    sides: tuple[tuple[int, Side, np.ndarray, slice], ...]


@functools.lru_cache(maxsize=256)
def _layout(table: tuple[Bound, ...], n: int, s_max: int) -> _Layout:
    """The layout of `table` at (n, s_max), built once per key; an entry
    holds O(n) references and values, and the memo keeps the last 256."""
    per_row = [tuple(bound.params(n, s_max)) for bound in table]
    width = sum(map(len, per_row))
    # the columns of a spectrum side are written by every `_evaluate`
    fixed = (np.zeros(width, dtype=bool), np.full(width, np.nan), np.full(width, np.nan))
    bare = Views(None, None, n, s_max, None)
    sides = []
    for bound, row, end in zip(table, per_row, itertools.accumulate(map(len, per_row))):
        # an empty list would give a float array, which cannot index
        p = np.array(row) if row else np.zeros(0, dtype=np.int64)
        p.flags.writeable = False
        cols = slice(end - len(row), end)
        for i, side in enumerate((bound.applies, bound.lhs, bound.rhs)):
            if isinstance(side, Fixed):
                fixed[i][cols] = side.side(bare, p)
            else:
                sides.append((i, side, p, cols))
    rows = tuple(bound for bound, row in zip(table, per_row) for _ in row)
    strict = tuple(bound.strict for bound in rows)
    strict_mask = np.array(strict, dtype=bool)
    for x in (strict_mask, *fixed):
        x.flags.writeable = False
    params = tuple(p for row in per_row for p in row)
    ids = tuple(b.bound_id for b in rows)
    return _Layout(rows, params, ids, strict, strict_mask, fixed, tuple(sides))


def _check_args(s_max: int, tol: float) -> None:
    check_tol(tol)
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    if s_max > max_order():
        raise ValueError(f"s_max {s_max} exceeds the graph-order cap {max_order()}")


def _evaluate(
    wg: np.ndarray, wc: np.ndarray, s_max: int, tol: float, layout: _Layout
) -> Evaluation:
    batch, n = wg.shape
    t = np.full((2, batch, max(n, s_max) + 1), np.nan)
    t[..., 1 : n + 1] = (wg, wc)
    b = np.full_like(t, np.nan)
    b[..., 1 : n + 1] = t[..., n:0:-1]
    views = Views(t, b, n, s_max, tol)
    out = [np.tile(x, (batch, 1)) for x in layout.fixed]
    for i, side, p, cols in layout.sides:
        out[i][:, cols] = side(views, p)
    applicable, lhs, rhs = out
    margin = rhs - lhs
    slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    satisfied = np.where(layout.strict_mask, margin > -slack, margin >= -slack)
    return Evaluation(layout.rows, layout.params, applicable, lhs, rhs, margin, satisfied)


def evaluate(
    wg: np.ndarray, wc: np.ndarray, s_max: int, tol: float = DEFAULT_TOL,
    table: Sequence[Bound] = BOUNDS,
) -> Evaluation:
    """Every row of `table`, over all its parameters for s_max, on descending
    spectra wg, wc of shape (batch, n), the graphs and their complements: the
    sides row by row, then every verdict at once.  s_max may not exceed the
    order cap, above which every s is inapplicable to every graph accepted."""
    _check_args(s_max, tol)
    return _evaluate(wg, wc, s_max, tol, _layout(tuple(table), wg.shape[1], s_max))


def table_columns(
    wg: np.ndarray, wc: np.ndarray, s_max: int, table: Sequence[Bound], *, tol: float = DEFAULT_TOL
) -> tuple[Sequence, ...]:
    """The reports of `table` on the descending spectra wg, wc of one graph
    and its complement, as columns in BoundReport field order: column f
    holds field f of every (row, parameter), in table order.  The real
    columns (lhs, rhs, margin, tol) are float64 arrays, the others lists."""
    _check_args(s_max, tol)
    layout = _layout(tuple(table), len(wg), s_max)
    ev = _evaluate(wg[None], wc[None], s_max, tol, layout)
    m = len(layout.rows)
    return (layout.ids, [len(wg)] * m, layout.params, ev.applicable[0].tolist(), layout.strict,
            ev.lhs[0], ev.rhs[0], ev.margin[0], ev.satisfied[0].tolist(), np.full(m, tol))


def any_violated(columns: Sequence[Sequence]) -> bool:
    """Whether a report of `columns` (as `table_columns` gives them) is
    applicable but not satisfied."""
    return any(map(operator.gt, columns[_APPLICABLE], columns[_SATISFIED]))


def _reports(columns: Sequence[Sequence]) -> list[BoundReport]:
    lists = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    return list(map(BoundReport._make, zip(*lists)))


def table_reports(
    wg: np.ndarray, wc: np.ndarray, s_max: int, table: Sequence[Bound], *, tol: float = DEFAULT_TOL
) -> list[BoundReport]:
    """One BoundReport per (row, parameter) of `table`, in table order, on
    the descending spectra wg, wc of one graph and its complement."""
    return _reports(table_columns(wg, wc, s_max, table, tol=tol))


def battery_columns(g: Graph, s_max: int, *, tol: float = DEFAULT_TOL) -> tuple[Sequence, ...]:
    """`run_battery`'s reports as columns, in BoundReport field order."""
    _check_args(s_max, tol)  # fail before the eigensolve
    wg, wc = spectrum_pair(g)
    return table_columns(wg, wc, s_max, BOUNDS, tol=tol)


def run_battery(g: Graph, s_max: int, *, tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Every row of BOUNDS over all its parameters (s <= s_max, and all k),
    with both spectra computed once, in table order: by (bound_id,
    parameter)."""
    return _reports(battery_columns(g, s_max, tol=tol))


@dataclass(frozen=True)
class RamseyCertificate:
    """A clique or independent set witnessing the classical Ramsey bound."""

    kind: str  # "clique" | "independent_set"
    vertices: tuple[int, ...]


CERTIFICATE_SIZE_CAP = 12


def _neighbor_masks(g: Graph) -> list[int]:
    """Bit v-1 of entry u-1 is set when u and v are adjacent."""
    return [bitarray_to_mask(row) for row in g.adjacency_matrix(dtype=np.uint8)]


def _find_clique(masks: list[int], n: int, size: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least clique of the given size, or None."""
    chosen: list[int] = []

    def extend(start: int, candidates: int) -> bool:
        if len(chosen) == size:
            return True
        needed = size - len(chosen)
        for v in range(start, n):
            remaining = candidates >> v
            if remaining.bit_count() < needed:
                return False
            if remaining & 1:
                chosen.append(v)
                if extend(v + 1, candidates & masks[v]):
                    return True
                chosen.pop()
        return False

    if extend(0, (1 << n) - 1):
        return tuple(v + 1 for v in chosen)
    return None


def ramsey_certificate(g: Graph, k: int) -> Optional[RamseyCertificate]:
    """Find k+1 vertices forming a clique in g or an independent set in g.

    Exhaustive backtracking; guaranteed to succeed when n >= 4^k.  When that
    precondition is violated the search may fail, in which case None is
    returned rather than raising.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    size = k + 1
    if size > CERTIFICATE_SIZE_CAP:
        raise ValueError(f"certificate size {size} exceeds search cap {CERTIFICATE_SIZE_CAP}")
    if size > g.n:
        return None
    masks = _neighbor_masks(g)
    found = _find_clique(masks, g.n, size)
    if found is not None:
        return RamseyCertificate("clique", found)
    co_masks = _neighbor_masks(complement(g))
    found = _find_clique(co_masks, g.n, size)
    if found is not None:
        return RamseyCertificate("independent_set", found)
    return None
