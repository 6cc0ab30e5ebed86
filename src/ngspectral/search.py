"""Extremal-function search: exact values by exhaustive enumeration for small
orders and certified lower bounds by seeded hill climbing for larger ones.

The objective for the top family at index s is |mu_s(G)| + |mu_s(comp)|; the
bottom family at index s uses mu_{n-s+1} instead.  Both depend only on the
spectra, so they are invariant under relabelling and under swapping G with
its complement; a graph and its complement even score the same bits, since
the two eigvalsh inputs swap.  The exhaustive pass therefore scores the
one-vertex extensions of `graphs.complement_pair_classes(n - 1)`, one class
per complement pair, which cover a graph or the complement of a graph of
every class of order n.  It solves them once per order and process and keeps
|mu_i(G)| + |mu_i(comp)| for every i (`_extension_scores`), so each (s,
family) of that order reads one column of the same table.  The witness is
the smallest graph6 string among every labelling, complements included, of
the classes with an extension within tol of the best score.  Both engines
follow one value rule (`_record`): a record's value is its witness scored
by `objective`, so the printed witness re-scores to the printed value bit
for bit.  Rounding differs between labellings of one graph, so that value
may differ from the best extension's score in the last bits.

Every batch is bounded by the entries of its largest array: the masks
canonicalized and the eigvalsh stacks of `_pair_scores`, the one kernel of
both engines, by the memory budget `graphs.SCORE_ENTRIES`.  Batches solve
each matrix or mask on its own, so they never change a bit.

The hill climb ranks, at every step, the single-edge flips by a first-order
estimate of their score and takes the best of the top few by exact score.
A flip is a rank-2 update of the adjacency matrix, so one eigendecomposition
of the graph and of its complement gives the first-order shift of the target
eigenvalue under every flip (`_first_order_mu`); in a repeated eigenvalue it
reads the eigenspace, not the basis eigh picks in it.  The TOP_FLIPS flips
that rank highest are rebuilt and rescored through eigvalsh, and those
scores pick the flip and stop the climb.  The climbs from all starts run in
lockstep: each step solves the eigendecompositions of every climb still
running in one call and rescores all their top flips in one `_pair_scores`
call; a climb leaves the batch when it stops.  Results are fully
deterministic: enumeration order is fixed, local search is seed-driven,
and value ties are broken by the lexicographically smallest graph6 string.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues, complement_pair_eigh
from ngspectral.graph6 import parse_graph6, smallest_graph6
from ngspectral.graphs import (
    EXHAUSTIVE_CAP, SCORE_ENTRIES, Graph, canonical_masks, check_order, complement_pair_classes,
    erdos_renyi, extensions, labellings, masks_to_stack,
)
from ngspectral.spectra import DEFAULT_TOL, check_tol

FAMILIES = ("top", "bottom")

# exhaustive search: the most labellings of near-best classes it builds,
# 208 classes at n = 8 and every class at n = 7.  The classes are counted
# after one `canonical_masks` call over every extension within tol, before
# any labelling is built.  At the default tol the widest tie band holds 10
# classes (n = 6, top s = 3), and none at n = 8 more than 3
LABEL_BUDGET = 1 << 23
# local search: scores closer than this are ties, and a flip must beat the
# current score by more than this to count as an improvement
CLIMB_TIE_TOL = 1e-12
# local search: each step rescores through eigvalsh this many flips of
# every running climb, those that rank highest to first order
TOP_FLIPS = 16


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


def _lowest_s(family: str) -> int:
    """The smallest s of `family`: 2 for top, 1 for bottom.  Raises
    ValueError for any other family."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return 2 if family == "top" else 1


def _column(n: int, s: int, family: str) -> int:
    """Index, 0-based and descending, of the eigenvalue the objective reads.
    Raises ValueError for an unknown family or an s out of its range."""
    low = _lowest_s(family)
    if not low <= s <= n:
        raise ValueError(f"family {family} needs {low} <= s <= n, got s={s}, n={n}")
    return s - 1 if family == "top" else n - s


def _validate_climb(seed: int, iterations: int, restarts: int) -> None:
    if iterations < 1 or restarts < 1:
        raise ValueError("iterations and restarts must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def objective(g: Graph, s: int, family: str) -> float:
    """Score one graph through `_pair_scores`."""
    col = _column(g.n, s, family)
    return float(_pair_scores(1, g.n, lambda lo, hi: g.adjacency_matrix()[None], col)[0])


def _record(
    n: int, s: int, family: str, masks, *, method: str, exact: bool, evaluations: int,
    seed: Optional[int] = None,
) -> ExtremalRecord:
    """The record of (n, s, family) whose witness is the smallest graph6
    string among the order-n `masks` and whose value is that witness scored
    by `objective`: the value rule of both engines."""
    witness = smallest_graph6(n, masks)
    value = objective(parse_graph6(witness), s, family)
    return ExtremalRecord(n, s, family, value, witness, method, exact, evaluations, seed)


def target_ratio(s: int, family: str) -> float:
    """Conjectured limit of value/n: 1/sqrt(2(s-1)) (top) or 1/sqrt(2s) (bottom)."""
    low = _lowest_s(family)
    if s < low:
        raise ValueError(f"{family} family needs s >= {low}, got {s}")
    return 1.0 / math.sqrt(2.0 * (s - low + 1))


def _pair_scores(count: int, n: int, build, col: Optional[int] = None) -> np.ndarray:
    """|mu_i(G)| + |mu_i(comp)| of `count` adjacency matrices of order n,
    (count, n) for every i, or (count,) for the 0-based index `col`.
    `build(lo, hi)` returns matrices lo:hi as a stack (hi - lo, n, n); they
    are solved in batches of at most SCORE_ENTRIES matrix entries.  eigvalsh
    solves each matrix of a stack on its own, so the batches never change
    a bit.  This is the search's one call of `complement_pair_eigenvalues`."""
    pick = slice(None) if col is None else col
    scores = np.empty((count, n) if col is None else count)
    batch = max(1, SCORE_ENTRIES // (n * n))
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        wg, wc = complement_pair_eigenvalues(build(lo, hi))
        scores[lo:hi] = np.abs(wg[:, pick]) + np.abs(wc[:, pick])
    return scores


@functools.cache
def _extension_scores(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-n masks that `exhaustive_f` scores first, the extensions of
    `complement_pair_classes(n - 1)`, and their `_pair_scores` (K, n), so
    that column `_column(n, s, family)` holds the objective of every (s,
    family).  Solved once per order and process, in the batches of
    `_pair_scores`; both shared arrays are read-only."""
    candidates = extensions(complement_pair_classes(n - 1), n)
    table = _pair_scores(candidates.size, n, lambda lo, hi: masks_to_stack(candidates[lo:hi], n))
    candidates.flags.writeable = False
    table.flags.writeable = False
    return candidates, table


def exhaustive_f(n: int, s: int, family: str, *, tol: float = DEFAULT_TOL) -> ExtremalRecord:
    """Exact extremal value over all 2^(n(n-1)/2) labeled graphs.

    Capped at n <= EXHAUSTIVE_CAP.  Reads the scores of the extensions of
    `complement_pair_classes(n - 1)` from the order's table
    (`_extension_scores`, built by the first call at that order, after the
    arguments are checked), then builds every labelling of the classes with
    an extension within tol of the best.  A tol that leaves more classes
    than LABEL_BUDGET masks of labellings can hold raises ValueError before
    any is built.  The witness is the lexicographically smallest graph6
    string among those labellings and their complements, and the value is
    the witness scored by `objective`, as in `local_search_f`: it lies
    within tol of the best score over every labelled graph, up to the
    rounding between labellings of one graph.  `evaluations` counts the
    labelled graphs covered, one per complement pair.
    """
    col = _column(n, s, family)
    check_order(n)
    check_tol(tol)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive search capped at n <= {EXHAUSTIVE_CAP}")
    m = n * (n - 1) // 2
    total = 1 if m == 0 else 1 << (m - 1)

    candidates, table = _extension_scores(n)
    scores = table[:, col]
    classes = np.unique(canonical_masks(candidates[scores >= scores.max() - tol], n))
    limit = LABEL_BUDGET // math.factorial(n)
    if classes.size > limit:
        raise ValueError(
            f"tol={tol} leaves more than {limit} classes of order {n} within tol of the "
            f"best score; relabelling them, {n}! masks each, would pass {LABEL_BUDGET} "
            "masks, so lower tol"
        )
    masks = labellings(classes, n)
    return _record(n, s, family, masks, method="exhaustive", exact=True, evaluations=total)


def _constructive_starts(n: int, s: int, family: str) -> list[Graph]:
    """[`extremal_graph(k, n / 2^(k+1))`] if q = s - `_lowest_s(family)` + 1,
    the q of `target_ratio`, is 2^(k-1) and 2^(k+1) divides n, else []: the
    construction of slope 1/sqrt(2q), at top s = q + 1 and bottom s = q."""
    q = s - _lowest_s(family) + 1
    k = q.bit_length()  # the only k with q = 2^(k-1), if any
    fits = q == 2 ** (k - 1) and n % 2 ** (k + 1) == 0
    return [extremal_graph(k, n // 2 ** (k + 1))] if fits else []


def _first_order_mu(a: np.ndarray, t: int, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Eigenvalue t (1-based, descending) after each flip (iu, ju) of each
    adjacency matrix in `a` (C, n, n), to first order, on the graph and on
    its complement: (C, 2, iu.size), from one `complement_pair_eigh` call.

    Flip (i, j) adds d(e_i e_j' + e_j e_i'), d = 1 - 2 a_ij, to the graph
    and its negative to the complement.  In each spectrum, let c be the run
    of eigenvalues within DEFAULT_TOL of mu_t, Q_c their eigenvectors, u =
    Q_c[i] and v = Q_c[j].  To first order the flip moves the run by the
    eigenvalues of Q_c' d(e_i e_j' + e_j e_i') Q_c: d u.v + |u||v|, d u.v -
    |u||v| and 0 for the rest.  mu_t takes the shift at its place in the
    run: the first, the last or 0, and 2 d q_it q_jt if it is simple.  These
    read only the run's projector Q_c Q_c', so they do not depend on the
    basis eigh picks inside an eigenspace.
    """
    lam, vec = complement_pair_eigh(a)  # (C, 2, n) and (C, 2, n, n)
    mu = lam[..., t - 1 : t]
    run = np.abs(lam - mu) <= DEFAULT_TOL  # one index range: lam descends
    vec *= run[..., None, :]  # Q_c, zero outside the run
    proj = vec @ vec.swapaxes(-1, -2)
    norm = np.sqrt(np.diagonal(proj, axis1=-2, axis2=-1))
    d = 1.0 - 2.0 * a[:, iu, ju]
    uv = np.stack([d, -d], axis=1) * proj[..., iu, ju]
    root = norm[..., iu] * norm[..., ju]
    place = t - 1 - np.argmax(run, axis=-1)
    first, last = (place == 0)[..., None], (place == run.sum(-1) - 1)[..., None]
    return mu + first * (uv + root) + last * (uv - root)


def _flipped_stack(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Copies of the matrices `a` (K, n, n), or K copies of `a` (n, n), copy
    k with the pair (i[k], j[k]) flipped."""
    stack = np.array(np.broadcast_to(a, (i.size,) + a.shape[-2:]))
    rows = np.arange(i.size)
    stack[rows, i, j] = 1.0 - stack[rows, i, j]
    stack[rows, j, i] = stack[rows, i, j]
    return stack


def local_search_f(
    n: int,
    s: int,
    family: str,
    seed: int,
    iterations: int = 50,
    restarts: int = 3,
) -> ExtremalRecord:
    """Hill climbing over single-edge flips, ranked to first order.

    Starts from `restarts` seeded random graphs (seed + restart index) plus
    the construction matching (n, s, family), if any (`_constructive_starts`),
    and climbs from all of them in lockstep.  Each step ranks the n(n-1)/2
    flips of every running climb by eigenvalue `_column(n, s, family)` + 1
    of the flipped graph and of its complement to first order
    (`_first_order_mu`), from one eigendecomposition of each, and rescores
    the TOP_FLIPS flips of each climb that rank highest, ties to the smaller
    flip index, through `_pair_scores` in one call.  Each climb takes its
    best rescored flip, the smallest flip index among equal scores, if it
    improves its score by more than CLIMB_TIE_TOL, and otherwise stops and
    leaves the batch.  `evaluations` counts the starts plus n(n-1)/2 per
    running climb per step.  The returned value is the witness re-scored by
    `objective` after its graph6 round trip (`_record`), hence a certified
    lower bound on the true extremal value.

    A step costs one eigendecomposition of each running climb and its
    complement and TOP_FLIPS eigvalsh rescores per climb, all O(n^3).
    `local_search_f(n, 2, "top", 0, 1, 1)`, one step of two climbs, took
    0.35 s at n = 256, 1.4 s at n = 512 and 10.8 s at n = 1024, with a
    peak RSS of 246 MB (2 cores, OpenBLAS on 1 thread).
    """
    col = _column(n, s, family)
    check_order(n)
    _validate_climb(seed, iterations, restarts)

    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)  # flip order; the smallest index wins ties
    starts = [erdos_renyi(n, 0.5, seed + r) for r in range(restarts)] + _constructive_starts(n, s, family)

    a = np.stack([start.adjacency_matrix() for start in starts])
    score = _pair_scores(len(starts), n, lambda lo, hi: a[lo:hi], col)
    evaluations = len(starts)
    live = np.arange(len(starts) if m else 0)  # one vertex: nothing to flip
    for _ in range(iterations):
        if not live.size:
            break
        # each climb's TOP_FLIPS best-ranked flips, ascending; equal ranks go to the smaller index
        rank = np.abs(_first_order_mu(a[live], col + 1, iu, ju)).sum(1)
        top = np.sort(np.argsort(-rank, axis=1, kind="stable")[:, :TOP_FLIPS], axis=1)
        owner, flip = np.repeat(live, top.shape[1]), top.ravel()

        def flipped(lo, hi):
            return _flipped_stack(a[owner[lo:hi]], iu[flip[lo:hi]], ju[flip[lo:hi]])

        rescored = _pair_scores(flip.size, n, flipped, col).reshape(top.shape)
        evaluations += m * live.size
        best = np.argmax(rescored, axis=1)  # ties resolve to the smallest flip index
        rows = np.flatnonzero(rescored[np.arange(live.size), best] > score[live] + CLIMB_TIE_TOL)
        live, best = live[rows], best[rows]
        score[live] = rescored[rows, best]
        i, j = iu[top[rows, best]], ju[top[rows, best]]
        a[live, i, j] = a[live, j, i] = 1.0 - a[live, i, j]

    best_score = -math.inf
    best_masks: list[int] = []
    for c in range(len(starts)):
        bits = Graph.from_adjacency(a[c]).bits
        if score[c] > best_score + CLIMB_TIE_TOL:
            best_score = float(score[c])
            best_masks = [bits]
        elif score[c] > best_score - CLIMB_TIE_TOL:
            best_masks.append(bits)

    return _record(
        n, s, family, best_masks, method="local_search", exact=False, evaluations=evaluations, seed=seed
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
) -> list[RatioRow]:
    """Evidence rows (n, value, value/n, target slope, gap, method).

    Exhaustive where the cap allows, hill climbing beyond; presents scaling
    evidence only and never claims a limit.
    """
    _lowest_s(family)
    check_tol(tol)
    target = target_ratio(s, family)
    for n in n_list:  # every order, the seed and the climb's settings before any search
        _column(n, s, family)
        check_order(n)
    _validate_climb(seed, iterations, restarts)
    rows = []
    for n in n_list:
        if n <= EXHAUSTIVE_CAP:
            rec = exhaustive_f(n, s, family, tol=tol)
        else:
            rec = local_search_f(n, s, family, seed, iterations, restarts)
        ratio = rec.value / n
        rows.append(RatioRow(n, rec.value, ratio, target, target - ratio, rec.method))
    return rows
