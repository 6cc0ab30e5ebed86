"""Extremal-function search: exact values by exhaustive enumeration for small
orders (`exhaustive_f`) and certified lower bounds by seeded hill climbing
for larger ones (`local_search_f`).

The objective for the top family at index s is |mu_s(G)| + |mu_s(comp)|; the
bottom family at index s uses mu_{n-s+1} instead.  Both read only the
spectra, so they are invariant under relabelling and under swapping G with
its complement; a graph and its complement even score the same bits, since
the two eigvalsh inputs swap.  So `exhaustive_f` scores only the one-vertex
extensions of `graphs.complement_pair_classes(n - 1)`, which cover a graph
or the complement of a graph of every class of order n.

Both engines score graphs through one kernel, `_pair_scores`, and keep the
candidates within a tolerance of the best score as a tie band.  The witness
is the smallest graph6 string among the band's graphs and their complements
(every relabelling of them, for `exhaustive_f`), and the value is that
witness scored by `objective` (`_record`), so the printed witness re-scores
to the printed value bit for bit.

Every batch is bounded by the entries of its largest array, the eigvalsh
stacks of `_pair_scores` and the relabelling blocks of the witness, by the
memory budget `graphs.SCORE_ENTRIES`.  Batches solve each matrix or mask on
its own, so they never change a bit.  Results are fully deterministic:
enumeration order is fixed, local search is seed-driven, and value ties are
broken by the smallest graph6 string.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues_in_place, complement_pair_eigh
from ngspectral.graph6 import emit_graph6
from ngspectral.graphs import (
    EXHAUSTIVE_CAP, SCORE_ENTRIES, Graph, check_order, complement_pair_classes, erdos_renyi,
    extensions, masks_to_stack, smallest_graph6, smallest_labelling,
)
from ngspectral.spectra import DEFAULT_TOL, check_tol

FAMILIES = ("top", "bottom")

# exhaustive search: the most relabellings of tie-band masks it ranks, band
# masks x n!, counted before any is built: 1664 masks at n = 8, and every
# extension at n = 7.  It admits every band of at most 208 classes at n = 8:
# over every tol, the widest such band holds 1240 masks (bottom s = 8, tol
# 0.546), ranked in about 0.17 s.  At the default tol the widest band holds
# 49 masks (n = 6, top s = 3), and none at n = 8 more than 6
LABEL_BUDGET = 1 << 26
# local search: scores closer than this are ties, and a flip must beat the
# current score by more than this to count as an improvement
CLIMB_TIE_TOL = 1e-12
# local search: each step brackets this many flips of every running climb,
# those that rank highest to first order, and rescores through eigvalsh
# those of them that can still win, unless the brackets decide the step
TOP_FLIPS = 16
# local search: bisection steps of each top flip's bracket (_flip_brackets),
# which leave it 2^-11 wide.  On the six climbs of `search --local --s 2` at
# n = 16, 24 and 32 (660 steps, 10 560 top flips), 8, 10, 12, 14 and 16
# steps rescore 2522, 691, 331, 203 and 160 top flips through eigvalsh, and
# the climbs took 0.41, 0.29, 0.28, 0.28 and 0.29 s (best of 5, 1 BLAS
# thread).  At 12 steps the brackets decide 565 of the 660 steps alone
# (548 flips taken, 17 stops); past 12 the bisection costs what it saves
BRACKET_STEPS = 12
# local search: each bracket's widening, ten times the least distance of a
# bisection midpoint from an eigenvalue of the step's spectra, and the
# half-width of the bounds on a climb's score between rescores, around the
# score read from its step's eigenpairs.  Over every flip and t of empty,
# complete, cycle, star, K_{n/2,n/2}, extremal_graph, Paley(13) and
# G(n, 1/2) graphs of orders 2 to 32, brackets missed eigvalsh by at most
# 1.1e-14 before this widening, and eigh scores by at most 7.5e-14.  With
# midpoints kept only 1e-9 or 1e-10 off, brackets missed by about that
# distance, as a count next to a pole that is also an eigenvalue of the
# flip can err
BRACKET_SLACK = 1e-7


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
    n: int, s: int, family: str, witness: int, *, method: str, exact: bool, evaluations: int,
    seed: Optional[int] = None,
) -> ExtremalRecord:
    """The record of (n, s, family) whose witness is the order-n mask its
    engine chose, printed as graph6, and whose value is that graph scored by
    `objective`: the value rule of both engines."""
    g = Graph(n, witness)
    value = objective(g, s, family)
    return ExtremalRecord(n, s, family, value, emit_graph6(g), method, exact, evaluations, seed)


def target_ratio(s: int, family: str) -> float:
    """Conjectured limit of value/n: 1/sqrt(2(s-1)) (top) or 1/sqrt(2s) (bottom)."""
    low = _lowest_s(family)
    if s < low:
        raise ValueError(f"{family} family needs s >= {low}, got {s}")
    return 1.0 / math.sqrt(2.0 * (s - low + 1))


def _pair_scores(count: int, n: int, build, col: Optional[int] = None) -> np.ndarray:
    """|mu_i(G)| + |mu_i(comp)| of `count` adjacency matrices of order n,
    (count, n) for every i, or (count,) for the 0-based index `col`.
    `build(lo, hi)` returns matrices lo:hi as a float64 stack (hi - lo, n,
    n) that the caller does not read again: it is overwritten with the
    complements.  They are solved in batches of at most SCORE_ENTRIES matrix
    entries, so a batch holds one such stack.  eigvalsh solves each matrix
    of a stack on its own, so the batches never change a bit.  This is the
    search's one call of `complement_pair_eigenvalues_in_place`."""
    pick = slice(None) if col is None else col
    scores = np.empty((count, n) if col is None else count)
    batch = max(1, SCORE_ENTRIES // (n * n))
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        wg, wc = complement_pair_eigenvalues_in_place(build(lo, hi))
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
    arguments are checked).  The tie band is the extensions within tol of
    the best; a tol whose band has more masks than LABEL_BUDGET // n!
    raises ValueError before any is relabelled.  The witness is the
    lexicographically smallest graph6 string among every relabelling of the
    band and of its complements (`smallest_labelling`), and the value is the
    witness scored by `objective`, as in `local_search_f`: it lies within
    tol of the best score over every labelled graph, up to the rounding
    between labellings of one graph.  `evaluations` counts the labelled
    graphs covered, one per complement pair.
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
    band = candidates[scores >= scores.max() - tol]
    limit = LABEL_BUDGET // math.factorial(n)
    if band.size > limit:
        raise ValueError(
            f"tol={tol} leaves more than {limit} masks of order {n} within tol of the "
            f"best score; ranking their {n}! relabellings each would pass {LABEL_BUDGET} "
            "relabellings, so lower tol"
        )
    witness = smallest_labelling(band, n)
    return _record(n, s, family, witness, method="exhaustive", exact=True, evaluations=total)


def _constructive_starts(n: int, s: int, family: str) -> list[Graph]:
    """[`extremal_graph(k, n / 2^(k+1))`] if q = s - `_lowest_s(family)` + 1,
    the q of `target_ratio`, is 2^(k-1) and 2^(k+1) divides n, else []: the
    construction of slope 1/sqrt(2q), at top s = q + 1 and bottom s = q."""
    q = s - _lowest_s(family) + 1
    k = q.bit_length()  # the only k with q = 2^(k-1), if any
    fits = q == 2 ** (k - 1) and n % 2 ** (k + 1) == 0
    return [extremal_graph(k, n // 2 ** (k + 1))] if fits else []


def _first_order_mu(
    a: np.ndarray, lam: np.ndarray, vec: np.ndarray, t: int, iu: np.ndarray, ju: np.ndarray
) -> np.ndarray:
    """Eigenvalue t (1-based, descending) after each flip (iu, ju) of each
    adjacency matrix in `a` (C, n, n), to first order, on the graph and on
    its complement: (C, 2, iu.size), from the eigenpairs (lam, vec) of
    `complement_pair_eigh(a)`, which it leaves as they are.

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
    mu = lam[..., t - 1 : t]
    run = np.abs(lam - mu) <= DEFAULT_TOL  # one index range: lam descends
    start, size = np.argmax(run, axis=-1)[..., None], run.sum(-1, keepdims=True)
    k = np.arange(size.max())  # Q_c': the run's eigenvectors, zero rows up to the longest run
    rows = np.minimum(start + k, lam.shape[-1] - 1)
    q = vec.swapaxes(-1, -2)[np.arange(len(a))[:, None, None], np.arange(2)[:, None], rows]
    proj = (q * (k < size)[..., None]).swapaxes(-1, -2) @ q
    norm = np.sqrt(np.diagonal(proj, axis1=-2, axis2=-1))
    d = 1.0 - 2.0 * a[:, iu, ju]
    uv = np.stack([d, -d], axis=1) * proj[..., iu, ju]
    root = norm[..., iu] * norm[..., ju]
    first, last = start == t - 1, start + size == t  # mu_t heads or ends its run
    return mu + first * (uv + root) + last * (uv - root)


def _flip_brackets(
    a: np.ndarray, lam: np.ndarray, vec: np.ndarray, t: int, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi), each (C, 2, K), on eigenvalue t (1-based,
    descending) after flip (i[c, k], j[c, k]) of matrix c of `a` (C, n, n),
    on the graph and on its complement, from the eigenpairs (lam, vec) of
    `complement_pair_eigh(a)`.  The value eigvalsh gives lies inside.

    The flip adds D = d(e_i e_j' + e_j e_i'), d = 1 - 2 a_ij, to the graph
    and -D to the complement.  D has eigenvalues 1 and -1, so mu_t lies
    within 1 of lam_t (Weyl), and BRACKET_STEPS bisection steps halve that
    interval.  A step at x counts #{mu > x} = #{lam > x} + c by inertia
    (Haynsworth): with z1 = Q[i], z2 = Q[j], g_ab = sum_k za_k zb_k / (lam_k
    - x) and T = [[g11, g12 + d], [g12 + d, g22]], c is 0 if det T < 0 and,
    if det T > 0, 1 when g11 < 0 and -1 otherwise.  A midpoint within
    BRACKET_SLACK / 10 of some lam_k moves that far above the highest of
    them: det T cancels near a pole, and the integer eigenvalues of
    symmetric graphs sit on dyadic midpoints.  The bounds are widened by
    BRACKET_SLACK, which covers that move and the rounding of eigh and
    eigvalsh.
    """
    climb = np.arange(a.shape[0])[:, None, None]
    side = np.arange(2)[None, :, None]
    d = 1.0 - 2.0 * a[climb[..., 0], i, j]
    d = np.stack([d, -d], axis=1)  # (C, 2, K)
    z1, z2 = vec[climb, side, i[:, None]], vec[climb, side, j[:, None]]  # (C, 2, K, n)
    weights = np.stack([z1 * z1, z2 * z2, z1 * z2], axis=-2)
    poles = lam[:, :, None, :]
    guard = 0.1 * BRACKET_SLACK
    lo = np.broadcast_to(lam[..., t - 1 : t] - 1.0, d.shape)
    hi = lo + 2.0
    for _ in range(BRACKET_STEPS):
        x = 0.5 * (lo + hi)
        gap = poles - x[..., None]
        near = np.abs(gap) < guard
        if near.any():  # off the pole, above the highest eigenvalue near x
            x = np.where(near.any(-1), np.where(near, poles, -np.inf).max(-1) + guard, x)
            gap = poles - x[..., None]
        g11, g22, g12 = np.einsum("...an,...n->a...", weights, 1.0 / gap)
        det = g11 * g22 - (g12 + d) ** 2
        above = (gap > 0).sum(-1) - (det > 0) * np.sign(g11) >= t
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
    return lo - BRACKET_SLACK, hi + BRACKET_SLACK


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
    and climbs from all of them in lockstep.  Each step solves one
    eigendecomposition of every running climb and its complement, in one
    call.  From it, it ranks the n(n-1)/2 flips of each climb by eigenvalue
    t = `_column(n, s, family)` + 1 of the flipped graph and of its
    complement to first order (`_first_order_mu`), takes the TOP_FLIPS that
    rank highest, ties to the smaller flip index, and brackets the exact
    score of each (`_flip_brackets`).  A top flip whose upper bound is
    below the best lower bound among its climb's top flips scores below
    another, so it cannot win; the others are kept.  A climb's own score
    lies within bounds: its eigvalsh bits after a rescore, else the score
    read from the step's eigenpairs +- BRACKET_SLACK; starts have no
    eigvalsh score.  A climb whose one kept flip has a lower bound above its
    score's upper bound by more than CLIMB_TIE_TOL takes that flip
    unrescored, and a climb that no top flip's upper bound lets beat its
    score's lower bound by that much stops.  The other climbs rescore their
    kept flips through `_pair_scores`, in one call for the step, and take
    the best, the smallest flip index among equal scores, if it beats
    their score by more than CLIMB_TIE_TOL; a comparison the bounds leave
    open first solves the climb's graph again through eigvalsh, in one call.
    Each climb thus takes the flip that rescoring every top flip would pick,
    or stops and leaves the batch where it would.  A climb that ends
    without eigvalsh bits is scored once, with the others, before the tie
    rule, with the bits the rescore of its graph would have given.
    `evaluations` counts the starts plus n(n-1)/2 per running climb per
    step.  The witness is the smallest graph6 string among the climbs
    within CLIMB_TIE_TOL of the best score, the tie band of `exhaustive_f`,
    and their complements (`smallest_graph6`), and the value is that graph scored by `objective` (`_record`), hence a
    certified lower bound on the true extremal value.

    A step costs one eigendecomposition of each running climb and its
    complement and an eigvalsh rescore of each kept top flip where the
    brackets leave the step open, all O(n^3).
    `local_search_f(n, 2, "top", 0, 1, 1)`, one step of two climbs, took
    0.064-0.068, 0.26-0.27 and 1.44-1.60 s at n = 256, 512 and 1024, with a
    peak RSS of 240 MB at 1024 (2 cores, OpenBLAS on 1 thread).  There the
    brackets decide both climbs: the seeded start takes its flip, and the
    construction, whose 16 tied top flips all score below it, stops.
    """
    col = _column(n, s, family)
    check_order(n)
    _validate_climb(seed, iterations, restarts)

    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)  # flip order; the smallest index wins ties
    starts = [erdos_renyi(n, 0.5, seed + r) for r in range(restarts)] + _constructive_starts(n, s, family)

    a = np.stack([start.adjacency_matrix() for start in starts])
    score = np.full(len(starts), np.nan)  # each climb's eigvalsh score, NaN until one is solved
    evaluations = len(starts)
    live = np.arange(len(starts) if m else 0)  # one vertex: nothing to flip
    for _ in range(iterations):
        if not live.size:
            break
        climbs = a[live]
        lam, vec = complement_pair_eigh(climbs)
        # each climb's TOP_FLIPS best-ranked flips, ascending; equal ranks go to the smaller index
        rank = np.abs(_first_order_mu(climbs, lam, vec, col + 1, iu, ju)).sum(1)
        top = np.sort(np.argsort(-rank, axis=1, kind="stable")[:, :TOP_FLIPS], axis=1)
        # bounds on each top flip's score; a flip whose upper bound is below
        # the best lower bound of its climb cannot win, and is not rescored
        lower, upper = _flip_brackets(climbs, lam, vec, col + 1, iu[top], ju[top])
        low = np.maximum(np.maximum(lower, -upper), 0.0).sum(1)  # |mu| at least, both sides
        high = np.maximum(-lower, upper).sum(1)
        keep = high >= low.max(1, keepdims=True)
        # bounds on each climb's own score: its eigvalsh score, or its eigh score +- BRACKET_SLACK
        own = np.abs(lam[:, :, col]).sum(1)
        solved = score[live]
        floor = np.where(np.isnan(solved), own - BRACKET_SLACK, solved)
        ceil = np.where(np.isnan(solved), own + BRACKET_SLACK, solved)
        # a lone kept flip whose lower bound beats the climb's score is taken,
        # and a climb that no flip's upper bound lets improve stops, unrescored
        take = (keep.sum(1) == 1) & (low.max(1) > ceil + CLIMB_TIE_TOL)
        keep &= ~take[:, None] & (high.max(1) > floor + CLIMB_TIE_TOL)[:, None]
        owner, flip = live[np.nonzero(keep)[0]], top[keep]

        def flipped(lo, hi):
            return _flipped_stack(a[owner[lo:hi]], iu[flip[lo:hi]], ju[flip[lo:hi]])

        rescored = np.where(take[:, None], low, -np.inf)  # a taken flip has its climb's best lower bound
        if flip.size:
            rescored[keep] = _pair_scores(flip.size, n, flipped, col)
        evaluations += m * live.size
        best = np.argmax(rescored, axis=1)  # ties resolve to the smallest flip index
        value = rescored[np.arange(live.size), best]
        # a rescored best that falls between the bounds of its climb's score
        # is compared with the score itself, solved again through eigvalsh
        unsure = np.flatnonzero((value > floor + CLIMB_TIE_TOL) & (value <= ceil + CLIMB_TIE_TOL))
        if unsure.size:
            climb = live[unsure]
            score[climb] = ceil[unsure] = _pair_scores(unsure.size, n, lambda lo, hi: a[climb[lo:hi]], col)
        rows = np.flatnonzero(value > ceil + CLIMB_TIE_TOL)
        live, best = live[rows], best[rows]
        score[live] = np.where(take[rows], np.nan, value[rows])
        i, j = iu[top[rows, best]], ju[top[rows, best]]
        a[live, i, j] = a[live, j, i] = 1.0 - a[live, i, j]

    unsolved = np.flatnonzero(np.isnan(score))  # climbs that ended on an unrescored flip or start
    if unsolved.size:
        score[unsolved] = _pair_scores(unsolved.size, n, lambda lo, hi: a[unsolved[lo:hi]], col)
    tied = np.flatnonzero(score >= score.max() - CLIMB_TIE_TOL)
    witness = smallest_graph6(n, [Graph.from_adjacency(a[c]).bits for c in tied])
    return _record(
        n, s, family, witness, method="local_search", exact=False, evaluations=evaluations, seed=seed
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
