"""One checker per Nordhaus-Gaddum eigenvalue inequality.

Every checker returns a BoundReport with the inequality normalized to
lhs <= rhs, margin = rhs - lhs, and satisfied decided purely by margin,
strictness and tolerance.  The slack allowed is tol * max(1, |lhs|, |rhs|),
because eigenvalue rounding grows with the sides (by more than 1e-8 at
n = 4096).  Strict inequalities are tested as margin > -slack: floating
arithmetic cannot certify strictness, so at tolerance scale strict and
non-strict coincide; the check guards against gross violations.
Inapplicable reports are still emitted (with values where computable) but
are never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ngspectral.graphs import Graph, bitarray_to_mask, complement
from ngspectral.spectra import (
    DEFAULT_TOL,
    Spectrum,
    adjacency_spectrum,
    mu,
    mu_bottom,
    spectrum_pair,
    sum_top,
)

_NAN = float("nan")


@dataclass(frozen=True)
class BoundReport:
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


def _pair(g: Graph, tol: float, spectra) -> tuple[Spectrum, Spectrum]:
    if spectra is None:
        return spectrum_pair(g, tol)
    return spectra


def check_nosal(g: Graph, *, tol: float = DEFAULT_TOL, spectra=None) -> list[BoundReport]:
    """n - 1 <= mu_1(G) + mu_1(complement) < sqrt(2)(n - 1)."""
    sg, sc = _pair(g, tol, spectra)
    total = mu(sg, 1) + mu(sc, 1)
    n = g.n
    return [
        BoundReport("nosal_lower", n, None, True, False, n - 1.0, total, tol),
        BoundReport("nosal_upper", n, None, True, True, total, math.sqrt(2.0) * (n - 1), tol),
    ]


def check_csikvari_terpai(g: Graph, *, tol: float = DEFAULT_TOL, spectra=None) -> BoundReport:
    """mu_1(G) + mu_1(complement) <= 4n/3 - 1."""
    sg, sc = _pair(g, tol, spectra)
    total = mu(sg, 1) + mu(sc, 1)
    return BoundReport("csikvari_terpai", g.n, None, True, False, total, 4.0 * g.n / 3.0 - 1.0, tol)


def _require_top_s(s: int) -> None:
    if s < 2:
        raise ValueError(f"top-family index must satisfy s >= 2, got {s}")


def _require_bottom_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"bottom-family index must satisfy s >= 1, got {s}")


def check_sum_squares_top(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """sum_{i=2..s} (mu_i(G)^2 + mu_i(comp)^2) < n^2/4, applicable for n >= 3s-2."""
    _require_top_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n >= 3 * s - 2
    if s <= n:
        lhs = sum_top(sg, 2, s, power=2) + sum_top(sc, 2, s, power=2)
    else:
        lhs = _NAN
    return BoundReport("top_sum_squares", n, s, applicable, True, lhs, n * n / 4.0, tol)


def check_abs_sum_top(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """sum_{i=2..s} (|mu_i(G)| + |mu_i(comp)|) < n sqrt((s-1)/2), for n >= 3s-2."""
    _require_top_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n >= 3 * s - 2
    if s <= n:
        lhs = sum_top(sg, 2, s, absolute=True) + sum_top(sc, 2, s, absolute=True)
    else:
        lhs = _NAN
    rhs = n * math.sqrt((s - 1) / 2.0)
    return BoundReport("top_abs_sum", n, s, applicable, True, lhs, rhs, tol)


def check_pair_top(g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None) -> BoundReport:
    """mu_s(G)^2 + mu_s(comp)^2 < n^2/(4(s-1)), applicable for n >= 3s-2."""
    _require_top_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n >= 3 * s - 2
    lhs = mu(sg, s) ** 2 + mu(sc, s) ** 2 if s <= n else _NAN
    return BoundReport("top_pair_squares", n, s, applicable, True, lhs, n * n / (4.0 * (s - 1)), tol)


def check_fs_upper(g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None) -> BoundReport:
    """|mu_s(G)| + |mu_s(comp)| <= n/sqrt(2(s-1)) - 1, applicable for n >= 15(s-1)."""
    _require_top_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n >= 15 * (s - 1)
    lhs = abs(mu(sg, s)) + abs(mu(sc, s)) if s <= n else _NAN
    rhs = n / math.sqrt(2.0 * (s - 1)) - 1.0
    return BoundReport("fs_upper", n, s, applicable, False, lhs, rhs, tol)


def check_sum_squares_bottom(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """sum_{i=1..s} (mu_{n-i+1}(G)^2 + mu_{n-i+1}(comp)^2) <= (n/2 + s)^2, for n > 2s."""
    _require_bottom_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n > 2 * s
    if s <= n:
        lhs = math.fsum(
            mu_bottom(sg, i) ** 2 + mu_bottom(sc, i) ** 2 for i in range(1, s + 1)
        )
    else:
        lhs = _NAN
    rhs = (n / 2.0 + s) ** 2
    return BoundReport("bottom_sum_squares", n, s, applicable, False, lhs, rhs, tol)


def check_abs_sum_bottom(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """sum_{i=1..s} (|mu_{n-i+1}(G)| + |mu_{n-i+1}(comp)|) <= (n/2 + s) sqrt(2s), for n > 2s."""
    _require_bottom_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n > 2 * s
    if s <= n:
        lhs = math.fsum(
            abs(mu_bottom(sg, i)) + abs(mu_bottom(sc, i)) for i in range(1, s + 1)
        )
    else:
        lhs = _NAN
    rhs = (n / 2.0 + s) * math.sqrt(2.0 * s)
    return BoundReport("bottom_abs_sum", n, s, applicable, False, lhs, rhs, tol)


def check_pair_bottom(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """mu_{n-s+1}(G)^2 + mu_{n-s+1}(comp)^2 <= (n/2 + s)^2 / s, applicable for n > 4^s."""
    _require_bottom_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n > 4**s
    lhs = mu_bottom(sg, s) ** 2 + mu_bottom(sc, s) ** 2 if s <= n else _NAN
    rhs = (n / 2.0 + s) ** 2 / s
    return BoundReport("bottom_pair_squares", n, s, applicable, False, lhs, rhs, tol)


def check_fns_upper(g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None) -> BoundReport:
    """|mu_{n-s+1}(G)| + |mu_{n-s+1}(comp)| <= n/sqrt(2s) + 1, applicable for n >= 4^s."""
    _require_bottom_s(s)
    sg, sc = _pair(g, tol, spectra)
    n = g.n
    applicable = n >= 4**s
    lhs = abs(mu_bottom(sg, s)) + abs(mu_bottom(sc, s)) if s <= n else _NAN
    rhs = n / math.sqrt(2.0 * s) + 1.0
    return BoundReport("fns_upper", n, s, applicable, False, lhs, rhs, tol)


def check_subset_squares(
    g: Graph, subset: Iterable[int], *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """sum_{i in X} mu_i(G)^2 <= n^2/4 for any X inside {2..n} (X may be empty)."""
    indices = sorted(set(subset))
    n = g.n
    for i in indices:
        if not 2 <= i <= n:
            raise ValueError(f"subset index {i} outside 2..{n}")
    sg = spectra[0] if spectra is not None else adjacency_spectrum(g, tol)
    lhs = math.fsum(mu(sg, i) ** 2 for i in indices)
    return BoundReport("subset_squares", n, len(indices), True, False, lhs, n * n / 4.0, tol)


def check_nonpositive_eigenvalue(
    g: Graph, s: int, *, tol: float = DEFAULT_TOL, spectra=None
) -> BoundReport:
    """|mu_s(G)| <= n / (2 sqrt(n-s+1)), applicable when mu_s(G) <= 0."""
    n = g.n
    if not 2 <= s <= n:
        raise ValueError(f"index must satisfy 2 <= s <= n, got s={s}, n={n}")
    sg = spectra[0] if spectra is not None else adjacency_spectrum(g, tol)
    value = mu(sg, s)
    applicable = value <= tol
    rhs = n / (2.0 * math.sqrt(n - s + 1))
    return BoundReport("nonpositive_eigenvalue", n, s, applicable, False, abs(value), rhs, tol)


def check_ramsey_sign(g: Graph, k: int, *, tol: float = DEFAULT_TOL, spectra=None) -> BoundReport:
    """For n >= 4^k, one of the pair {G, complement} has mu_{n-k+1} <= -1 while
    the other has mu_{n-k+1} <= 0.

    The report carries lhs = best-case violation (nonpositive when the
    disjunction holds); k = 0 would index mu_{n+1}, so it is reported as
    inapplicable.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = g.n
    applicable = k >= 1 and n >= 4**k
    if 1 <= k <= n:
        sg, sc = _pair(g, tol, spectra)
        a = mu_bottom(sg, k)
        b = mu_bottom(sc, k)
        first = min(-1.0 - a, 0.0 - b)
        second = min(-1.0 - b, 0.0 - a)
        lhs = -max(first, second)
    else:
        lhs = _NAN
    return BoundReport("ramsey_sign", n, k, applicable, False, lhs, 0.0, tol)


def check_weyl_pair(g: Graph, k: int, *, tol: float = DEFAULT_TOL, spectra=None) -> list[BoundReport]:
    """mu_k(G) + mu_{n-k+2}(comp) <= -1 and mu_k(G) + mu_{n-k+1}(comp) >= -1,
    for 2 <= k <= n."""
    n = g.n
    if not 2 <= k <= n:
        raise ValueError(f"index must satisfy 2 <= k <= n, got k={k}, n={n}")
    sg, sc = _pair(g, tol, spectra)
    upper_lhs = mu(sg, k) + mu(sc, n - k + 2)
    lower_rhs = mu(sg, k) + mu(sc, n - k + 1)
    return [
        BoundReport("weyl_upper", n, k, True, False, upper_lhs, -1.0, tol),
        BoundReport("weyl_lower", n, k, True, False, -1.0, lower_rhs, tol),
    ]


def run_battery(g: Graph, s_max: int, *, tol: float = DEFAULT_TOL) -> list[BoundReport]:
    """Every checker over all valid parameters s <= s_max (and all k), with
    both spectra computed once; reports sorted by (bound_id, parameter)."""
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    spectra = spectrum_pair(g, tol)
    n = g.n
    reports: list[BoundReport] = []
    reports.extend(check_nosal(g, tol=tol, spectra=spectra))
    reports.append(check_csikvari_terpai(g, tol=tol, spectra=spectra))
    for s in range(2, s_max + 1):
        reports.append(check_sum_squares_top(g, s, tol=tol, spectra=spectra))
        reports.append(check_abs_sum_top(g, s, tol=tol, spectra=spectra))
        reports.append(check_pair_top(g, s, tol=tol, spectra=spectra))
        reports.append(check_fs_upper(g, s, tol=tol, spectra=spectra))
    for s in range(1, s_max + 1):
        reports.append(check_sum_squares_bottom(g, s, tol=tol, spectra=spectra))
        reports.append(check_abs_sum_bottom(g, s, tol=tol, spectra=spectra))
        reports.append(check_pair_bottom(g, s, tol=tol, spectra=spectra))
        reports.append(check_fns_upper(g, s, tol=tol, spectra=spectra))
    reports.append(check_subset_squares(g, range(2, n + 1), tol=tol, spectra=spectra))
    for s in range(2, min(s_max, n) + 1):
        reports.append(check_nonpositive_eigenvalue(g, s, tol=tol, spectra=spectra))
    k = 0
    while 4**k <= n:
        reports.append(check_ramsey_sign(g, k, tol=tol, spectra=spectra))
        k += 1
    for k in range(2, n + 1):
        reports.extend(check_weyl_pair(g, k, tol=tol, spectra=spectra))
    reports.sort(key=lambda r: (r.bound_id, -1 if r.param is None else r.param))
    return reports


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
