"""The Nordhaus-Gaddum eigenvalue inequalities as one table.

Each row of BOUNDS is one inequality: its bound id, its strictness, the
parameters it takes at order n for a given s_max, its precondition on
(n, p), a spectral side written as numpy over a batch of spectrum pairs,
and a scalar side in (n, p).  `evaluate` walks the table over descending
spectra wg, wc of shape (batch, n), the graphs and their complements, and
returns lhs, rhs and applicability per row and parameter.  `run_battery`
runs it on a batch of one and returns one BoundReport per (row, parameter),
sorted by (bound_id, parameter).

Every report is normalized to lhs <= rhs, margin = rhs - lhs, and satisfied
decided purely by margin, strictness and tolerance.  The slack allowed is
tol * max(1, |lhs|, |rhs|), because eigenvalue rounding grows with the
sides (by more than 1e-8 at n = 4096).  Strict inequalities are tested as
margin > -slack: floating arithmetic cannot certify strictness, so at
tolerance scale strict and non-strict coincide; the check guards against
gross violations.  Inapplicable reports are still emitted but are never
asserted; a parameter that indexes past the spectrum (s > n, or k = 0 for
ramsey_sign) gets a NaN spectral side.

The values keep the last bits of the per-inequality checkers this table
replaced, because the CLI prints float noise: running sums over the top of
the spectrum add left to right (np.cumsum, not the pairwise np.sum), sums
over the bottom and the subset sum use math.fsum, and squares go through
np.float_power, which calls the C pow that Python's ** uses (numpy's ** 2
is x*x, which differs in the last bit for about one value in a thousand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ngspectral.eigensolver import complement_pair_eigenvalues
from ngspectral.graphs import Graph, bitarray_to_mask, complement, max_order
from ngspectral.spectra import DEFAULT_TOL, check_tol


class BoundReport(NamedTuple):
    """One inequality instance, normalized to lhs <= rhs."""

    bound_id: str
    n: int
    param: Optional[int]
    applicable: bool
    strict: bool
    lhs: float
    rhs: float
    tol: float = DEFAULT_TOL

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        slack = self.tol * max(1.0, abs(self.lhs), abs(self.rhs))
        if self.strict:
            return self.margin > -slack
        return self.margin >= -slack

    @property
    def violated(self) -> bool:
        return self.applicable and not self.satisfied


def violations(reports: Iterable[BoundReport]) -> list[BoundReport]:
    return [r for r in reports if r.violated]


# The spectral side reads 1-based views of the spectra, both of shape
# (2, batch, width), index 0 of the first axis for the graphs and 1 for
# their complements: t[..., p] is mu_p and b[..., p] is mu_{n-p+1}, and an
# index past the spectrum (0, or above n) reads NaN.  It maps (t, b, p),
# with p the int array of parameters (or [None]), to (batch, len(p)).
Spectral = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class Bound(NamedTuple):
    """One inequality: spectral <= scalar, or scalar <= spectral when
    `spectral_is_lhs` is false.  `applies` is the precondition on (n, p),
    None when there is none; when `gate` is set, applicability also needs
    gate(t, b, p) <= tol."""

    bound_id: str
    strict: bool
    params: Callable[[int, int], Sequence[Optional[int]]]  # (n, s_max)
    spectral: Spectral
    scalar: Callable[[int, Optional[int]], float]  # (n, p)
    applies: Optional[Callable[[int, int], bool]] = None
    gate: Optional[Spectral] = None
    spectral_is_lhs: bool = True


def _sq(x: np.ndarray) -> np.ndarray:
    return np.float_power(x, 2.0)


def _both(x: np.ndarray) -> np.ndarray:
    """The graph's term plus the complement's."""
    return x[0] + x[1]


def _running(x: np.ndarray, s) -> np.ndarray:
    """Sum of x[..., 2..s], added left to right."""
    return x[..., 2:].cumsum(axis=-1)[..., s - 2]


def _fsum_prefix(x: np.ndarray, counts) -> np.ndarray:
    """math.fsum of x[:, 1..c] of each row of x (batch, width), for each c
    in counts."""
    rows = [[math.fsum(row[1 : c + 1]) for c in counts] for row in x.tolist()]
    return np.array(rows, dtype=np.float64).reshape(x.shape[0], len(counts))


def _ramsey_lhs(t: np.ndarray, b: np.ndarray, k) -> np.ndarray:
    """Best-case violation of: one of {G, complement} has mu_{n-k+1} <= -1
    and the other mu_{n-k+1} <= 0 (nonpositive when that holds).  A tie in
    min or max is between equal values, none of them -0.0, so numpy's
    minimum and maximum give the bits of Python's min and max."""
    g, c = b[..., k]
    return -np.maximum(np.minimum(-1.0 - g, 0.0 - c), np.minimum(-1.0 - c, 0.0 - g))


def _total(t: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    return _both(t[..., 1:2])


def _none(n: int, s_max: int) -> list[None]:
    return [None]


def _top_s(n: int, s_max: int) -> range:
    return range(2, s_max + 1)


def _bottom_s(n: int, s_max: int) -> range:
    return range(1, s_max + 1)


def _two_to_n(n: int, s_max: int) -> range:
    return range(2, n + 1)


BOUNDS: tuple[Bound, ...] = (
    # n - 1 <= mu_1(G) + mu_1(comp) < sqrt(2)(n - 1)
    Bound("nosal_lower", False, _none, _total, lambda n, p: n - 1.0, spectral_is_lhs=False),
    Bound("nosal_upper", True, _none, _total, lambda n, p: math.sqrt(2.0) * (n - 1)),
    # mu_1(G) + mu_1(comp) <= 4n/3 - 1
    Bound("csikvari_terpai", False, _none, _total, lambda n, p: 4.0 * n / 3.0 - 1.0),
    # sum_{i=2..s} (mu_i(G)^2 + mu_i(comp)^2) < n^2/4, for n >= 3s-2
    Bound("top_sum_squares", True, _top_s,
          lambda t, b, s: _both(_running(_sq(t), s)),
          lambda n, s: n * n / 4.0, applies=lambda n, s: n >= 3 * s - 2),
    # sum_{i=2..s} (|mu_i(G)| + |mu_i(comp)|) < n sqrt((s-1)/2), for n >= 3s-2
    Bound("top_abs_sum", True, _top_s,
          lambda t, b, s: _both(_running(np.abs(t), s)),
          lambda n, s: n * math.sqrt((s - 1) / 2.0), applies=lambda n, s: n >= 3 * s - 2),
    # mu_s(G)^2 + mu_s(comp)^2 < n^2/(4(s-1)), for n >= 3s-2
    Bound("top_pair_squares", True, _top_s,
          lambda t, b, s: _both(_sq(t[..., s])),
          lambda n, s: n * n / (4.0 * (s - 1)), applies=lambda n, s: n >= 3 * s - 2),
    # |mu_s(G)| + |mu_s(comp)| <= n/sqrt(2(s-1)) - 1, for n >= 15(s-1)
    Bound("fs_upper", False, _top_s,
          lambda t, b, s: _both(np.abs(t[..., s])),
          lambda n, s: n / math.sqrt(2.0 * (s - 1)) - 1.0, applies=lambda n, s: n >= 15 * (s - 1)),
    # sum_{i=1..s} (mu_{n-i+1}(G)^2 + mu_{n-i+1}(comp)^2) <= (n/2 + s)^2, for n > 2s
    Bound("bottom_sum_squares", False, _bottom_s,
          lambda t, b, s: _fsum_prefix(_both(_sq(b)), s),
          lambda n, s: (n / 2.0 + s) ** 2, applies=lambda n, s: n > 2 * s),
    # sum_{i=1..s} (|mu_{n-i+1}(G)| + |mu_{n-i+1}(comp)|) <= (n/2 + s) sqrt(2s), for n > 2s
    Bound("bottom_abs_sum", False, _bottom_s,
          lambda t, b, s: _fsum_prefix(_both(np.abs(b)), s),
          lambda n, s: (n / 2.0 + s) * math.sqrt(2.0 * s), applies=lambda n, s: n > 2 * s),
    # mu_{n-s+1}(G)^2 + mu_{n-s+1}(comp)^2 <= (n/2 + s)^2 / s, for n > 4^s
    Bound("bottom_pair_squares", False, _bottom_s,
          lambda t, b, s: _both(_sq(b[..., s])),
          lambda n, s: (n / 2.0 + s) ** 2 / s, applies=lambda n, s: n > 4**s),
    # |mu_{n-s+1}(G)| + |mu_{n-s+1}(comp)| <= n/sqrt(2s) + 1, for n >= 4^s
    Bound("fns_upper", False, _bottom_s,
          lambda t, b, s: _both(np.abs(b[..., s])),
          lambda n, s: n / math.sqrt(2.0 * s) + 1.0, applies=lambda n, s: n >= 4**s),
    # sum_{i=2..n} mu_i(G)^2 <= n^2/4; the parameter is the index count
    # c = n - 1, and the shifted view puts mu_2..mu_{c+1} at 1..c
    Bound("subset_squares", False, lambda n, s_max: [n - 1],
          lambda t, b, c: _fsum_prefix(_sq(t[0, :, 1:]), c),
          lambda n, c: n * n / 4.0),
    # |mu_s(G)| <= n / (2 sqrt(n-s+1)), applicable when mu_s(G) <= 0
    Bound("nonpositive_eigenvalue", False, lambda n, s_max: range(2, min(s_max, n) + 1),
          lambda t, b, s: np.abs(t[0][:, s]),
          lambda n, s: n / (2.0 * math.sqrt(n - s + 1)),
          gate=lambda t, b, s: t[0][:, s]),
    # for n >= 4^k one of {G, comp} has mu_{n-k+1} <= -1 and the other
    # mu_{n-k+1} <= 0; k runs over 4^k <= n, and k = 0 is never applicable
    Bound("ramsey_sign", False, lambda n, s_max: range((n.bit_length() - 1) // 2 + 1),
          _ramsey_lhs, lambda n, k: 0.0, applies=lambda n, k: k >= 1 and n >= 4**k),
    # mu_k(G) + mu_{n-k+2}(comp) <= -1 and mu_k(G) + mu_{n-k+1}(comp) >= -1, for 2 <= k <= n
    Bound("weyl_upper", False, _two_to_n,
          lambda t, b, k: t[0][:, k] + b[1][:, k - 1], lambda n, k: -1.0),
    Bound("weyl_lower", False, _two_to_n,
          lambda t, b, k: t[0][:, k] + b[1][:, k], lambda n, k: -1.0, spectral_is_lhs=False),
)


class Evaluation(NamedTuple):
    """One table row over a batch: column j holds parameter params[j].

    lhs, rhs and applicable broadcast to (batch, len(params)); the scalar
    side, and a precondition that reads no spectrum, has a single row."""

    bound: Bound
    params: list[Optional[int]]
    lhs: np.ndarray
    rhs: np.ndarray
    applicable: np.ndarray


def _check_s_max(s_max: int) -> None:
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    if s_max > max_order():
        raise ValueError(f"s_max {s_max} exceeds the graph-order cap {max_order()}")


def evaluate(
    wg: np.ndarray, wc: np.ndarray, s_max: int, tol: float = DEFAULT_TOL
) -> list[Evaluation]:
    """Every row of BOUNDS, over all its parameters for s_max, on descending
    spectra wg, wc of shape (batch, n): the graphs and their complements.
    `tol` enters only through the gates.  s_max may not exceed the
    graph-order cap: every larger s is inapplicable to every graph accepted."""
    _check_s_max(s_max)
    batch, n = wg.shape
    t = np.full((2, batch, max(n, s_max) + 1), np.nan)
    t[..., 1 : n + 1] = (wg, wc)
    b = np.full_like(t, np.nan)
    b[..., 1 : n + 1] = t[..., n:0:-1]
    out = []
    for bound in BOUNDS:
        params = list(bound.params(n, s_max))
        # an empty list would give a float array, which cannot index
        p = np.array(params) if params else np.zeros(0, dtype=np.int64)
        spectral = bound.spectral(t, b, p)
        scalar = np.array([[bound.scalar(n, q) for q in params]])
        if bound.applies is None:
            applicable = np.ones((1, len(params)), dtype=bool)
        else:
            applicable = np.array([[bound.applies(n, q) for q in params]], dtype=bool)
        if bound.gate is not None:
            applicable = applicable & (bound.gate(t, b, p) <= tol)
        lhs, rhs = (spectral, scalar) if bound.spectral_is_lhs else (scalar, spectral)
        out.append(Evaluation(bound, params, lhs, rhs, applicable))
    return out


def run_battery(g: Graph, s_max: int, *, tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Every row of the table over all its parameters (s <= s_max, and all
    k), with both spectra computed once; reports sorted by (bound_id,
    parameter), since every row lists its parameters in ascending order."""
    check_tol(tol)
    _check_s_max(s_max)  # fail before the eigensolve
    wg, wc = complement_pair_eigenvalues(g.adjacency_matrix())
    rows = sorted(evaluate(wg[None], wc[None], s_max, tol), key=lambda ev: ev.bound.bound_id)
    return [
        BoundReport(ev.bound.bound_id, g.n, p, applicable, ev.bound.strict, lhs, rhs, tol)
        for ev in rows
        for p, lhs, rhs, applicable in zip(
            ev.params, ev.lhs[0].tolist(), ev.rhs[0].tolist(), ev.applicable[0].tolist()
        )
    ]


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
