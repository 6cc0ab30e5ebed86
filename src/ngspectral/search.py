"""Extremal-function search: exact values by exhaustive enumeration for small
orders and certified lower bounds by seeded hill climbing for larger ones.

The objective for the top family at index s is |mu_s(G)| + |mu_s(comp)|; the
bottom family at index s uses mu_{n-s+1} instead.  Both are invariant under
swapping G with its complement, so the exhaustive pass scores each unordered
{G, comp} pair exactly once by skipping every bitmask whose complement mask
is numerically smaller.  Results are fully deterministic: enumeration order
is fixed, local search is seed-driven, and value ties are broken by the
lexicographically smallest graph6 string.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, check_order, complement, erdos_renyi, pair_indices
from ngspectral.spectra import DEFAULT_TOL, mu, mu_bottom, spectrum_pair

FAMILIES = ("top", "bottom")

EXHAUSTIVE_DEFAULT_CAP = 7
EXHAUSTIVE_HARD_CAP = 8
DEFAULT_SHARD_SIZE = 1 << 16
# local search: scores closer than this are ties, and a flip must beat the
# current score by more than this to count as an improvement
CLIMB_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ExtremalRecord:
    """Best objective found for one (n, s, family) instance."""

    n: int
    s: int
    family: str
    value: float
    witness: str  # graph6
    method: str  # "exhaustive" | "local_search"
    exact: bool
    evaluations: int
    seed: Optional[int] = None


@dataclass(frozen=True)
class RatioRow:
    """One row of scaling evidence: best value against the conjectured slope."""

    n: int
    value: float
    ratio: float
    target: float
    gap: float
    method: str


def _validate_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def _validate_s(n: int, s: int, family: str) -> None:
    low = 2 if family == "top" else 1
    if not low <= s <= n:
        raise ValueError(f"family {family} needs {low} <= s <= n, got s={s}, n={n}")


def objective(g: Graph, s: int, family: str, *, tol: float = DEFAULT_TOL) -> float:
    """Score a graph through its spectrum pair."""
    _validate_family(family)
    _validate_s(g.n, s, family)
    sg, sc = spectrum_pair(g, tol)
    if family == "top":
        return abs(mu(sg, s)) + abs(mu(sc, s))
    return abs(mu_bottom(sg, s)) + abs(mu_bottom(sc, s))


def target_ratio(s: int, family: str) -> float:
    """Conjectured limit of value/n: 1/sqrt(2(s-1)) (top) or 1/sqrt(2s) (bottom)."""
    _validate_family(family)
    if family == "top":
        if s < 2:
            raise ValueError(f"top family needs s >= 2, got {s}")
        return 1.0 / math.sqrt(2.0 * (s - 1))
    if s < 1:
        raise ValueError(f"bottom family needs s >= 1, got {s}")
    return 1.0 / math.sqrt(2.0 * s)


def _score_stack(stack: np.ndarray, s: int, family: str) -> np.ndarray:
    """Objective for a stack of adjacency matrices."""
    wg, wc = complement_pair_eigenvalues(stack)
    col = s - 1 if family == "top" else stack.shape[-1] - s
    return np.abs(wg[..., col]) + np.abs(wc[..., col])


def _masks_to_stack(masks: np.ndarray, n: int) -> np.ndarray:
    i, j = pair_indices(n)
    stack = np.zeros((masks.shape[0], n, n))
    bits = (masks[:, None] >> np.arange(i.size)) & 1
    stack[:, i, j] = bits
    stack[:, j, i] = bits
    return stack


def _lex_min_witness(n: int, masks: Sequence[int]) -> str:
    """Smallest graph6 string over the given masks and their complements."""
    best = None
    for mask in masks:
        g = Graph(n, mask)
        for cand in (emit_graph6(g), emit_graph6(complement(g))):
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def exhaustive_f(
    n: int,
    s: int,
    family: str,
    *,
    tol: float = DEFAULT_TOL,
    allow_order_8: bool = False,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> ExtremalRecord:
    """Exact extremal value over all 2^(n(n-1)/2) labeled graphs.

    Capped at n <= 7 by default (n <= 8 with allow_order_8).  The witness is
    the lexicographically smallest graph6 string among all maximizers within
    tol, complements included.
    """
    _validate_family(family)
    _validate_s(n, s, family)
    check_order(n)
    cap = EXHAUSTIVE_HARD_CAP if allow_order_8 else EXHAUSTIVE_DEFAULT_CAP
    if n > cap:
        raise ValueError(
            f"exhaustive search capped at n <= {cap}"
            + ("" if allow_order_8 else " (pass allow_order_8 to reach 8)")
        )
    m = n * (n - 1) // 2
    total = 1 if m == 0 else 1 << (m - 1)

    def run_shard(lo: int, hi: int) -> tuple[float, list[int]]:
        masks = np.arange(lo, hi, dtype=np.int64)
        scores = _score_stack(_masks_to_stack(masks, n), s, family)
        best = float(scores.max())
        keep = np.nonzero(scores >= best - tol)[0]
        return best, [int(masks[i]) for i in keep]

    spans = [(lo, min(lo + shard_size, total)) for lo in range(0, total, shard_size)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda span: run_shard(*span), spans))
    else:
        results = [run_shard(lo, hi) for lo, hi in spans]

    value = max(best for best, _ in results)
    pool = [mask for best, masks in results if best >= value - tol for mask in masks]
    # shard-local keeps are relative to the shard maximum; re-score against the
    # global one before tie-breaking
    scores = _score_stack(_masks_to_stack(np.array(pool, dtype=np.int64), n), s, family)
    final = [mask for mask, score in zip(pool, scores) if score >= value - tol]
    witness = _lex_min_witness(n, final)
    return ExtremalRecord(
        n=n,
        s=s,
        family=family,
        value=value,
        witness=witness,
        method="exhaustive",
        exact=True,
        evaluations=total,
        seed=None,
    )


def _constructive_starts(n: int, s: int) -> list[Graph]:
    """Extremal constructions matching (n, s), if any: order 2^(k+1) t with
    s = 2^(k-1) + 1."""
    starts = []
    k = 1
    while 2 ** (k + 1) <= n:
        if n % 2 ** (k + 1) == 0 and s == 2 ** (k - 1) + 1:
            starts.append(extremal_graph(k, n // 2 ** (k + 1)))
        k += 1
    return starts


def local_search_f(
    n: int,
    s: int,
    family: str,
    seed: int,
    iterations: int = 50,
    restarts: int = 3,
    *,
    tol: float = DEFAULT_TOL,
    flip_chunk: int = 512,
) -> ExtremalRecord:
    """Steepest-ascent hill climbing over single-edge flips.

    Starts from `restarts` seeded random graphs (seed + restart index) plus
    any matching extremal construction.  The returned value is the witness
    re-scored by `objective` after its graph6 round trip, hence a certified
    lower bound on the true extremal value.
    """
    _validate_family(family)
    _validate_s(n, s, family)
    check_order(n)
    if iterations < 1 or restarts < 1:
        raise ValueError("iterations and restarts must be at least 1")

    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)  # flip order; the smallest index wins ties
    starts = [erdos_renyi(n, 0.5, seed + r) for r in range(restarts)]
    starts.extend(_constructive_starts(n, s))

    evaluations = 0
    best_score = -math.inf
    best_masks: list[int] = []
    for start in starts:
        a = start.adjacency_matrix()
        score = float(_score_stack(a[None, :, :], s, family)[0])
        evaluations += 1
        for _ in range(iterations):
            flip_scores = np.empty(m)
            for lo in range(0, m, flip_chunk):
                hi = min(lo + flip_chunk, m)
                stack = np.repeat(a[None, :, :], hi - lo, axis=0)
                rows = np.arange(hi - lo)
                stack[rows, iu[lo:hi], ju[lo:hi]] = 1.0 - stack[rows, iu[lo:hi], ju[lo:hi]]
                stack[rows, ju[lo:hi], iu[lo:hi]] = 1.0 - stack[rows, ju[lo:hi], iu[lo:hi]]
                flip_scores[lo:hi] = _score_stack(stack, s, family)
            evaluations += m
            j = int(np.argmax(flip_scores))  # ties resolve to the smallest flip index
            if flip_scores[j] <= score + CLIMB_TIE_TOL:
                break
            score = float(flip_scores[j])
            a[iu[j], ju[j]] = 1.0 - a[iu[j], ju[j]]
            a[ju[j], iu[j]] = a[iu[j], ju[j]]
        bits = Graph.from_adjacency(a).bits
        if score > best_score + CLIMB_TIE_TOL:
            best_score = score
            best_masks = [bits]
        elif score > best_score - CLIMB_TIE_TOL:
            best_masks.append(bits)

    witness = _lex_min_witness(n, best_masks)
    value = objective(parse_graph6(witness), s, family, tol=tol)
    return ExtremalRecord(
        n=n,
        s=s,
        family=family,
        value=value,
        witness=witness,
        method="local_search",
        exact=False,
        evaluations=evaluations,
        seed=seed,
    )


def ratio_table(
    s: int,
    family: str,
    n_list: Sequence[int],
    *,
    seed: int = 0,
    iterations: int = 50,
    restarts: int = 3,
    tol: float = DEFAULT_TOL,
    allow_order_8: bool = False,
) -> list[RatioRow]:
    """Evidence rows (n, value, value/n, target slope, gap, method).

    Exhaustive where the cap allows, hill climbing beyond; presents scaling
    evidence only and never claims a limit.
    """
    _validate_family(family)
    target = target_ratio(s, family)
    rows = []
    cap = EXHAUSTIVE_HARD_CAP if allow_order_8 else EXHAUSTIVE_DEFAULT_CAP
    for n in n_list:
        if n <= cap:
            rec = exhaustive_f(n, s, family, tol=tol, allow_order_8=allow_order_8)
        else:
            rec = local_search_f(n, s, family, seed, iterations, restarts, tol=tol)
        ratio = rec.value / n
        rows.append(RatioRow(n, rec.value, ratio, target, target - ratio, rec.method))
    return rows
