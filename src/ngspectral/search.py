"""Extremal-function search: exact values by exhaustive enumeration for small
orders and certified lower bounds by seeded hill climbing for larger ones.

The objective for the top family at index s is |mu_s(G)| + |mu_s(comp)|; the
bottom family at index s uses mu_{n-s+1} instead.  Both depend only on the
spectra, so they are invariant under relabelling and under swapping G with
its complement; a graph and its complement even score the same bits, since
the two eigvalsh inputs swap.  The exhaustive pass therefore scores the
one-vertex extensions of one isomorphism class of order n-1 per complement
pair, which cover a graph or the complement of a graph of every class of
order n.  Rounding differs between labellings of one graph, so the classes
within tol of the best score are expanded into all their labellings, each
folded to the smaller of its mask and its complement's, and rescored: the
value and the witness are those of the search over every labelled graph.

The hill climb takes, at every step, the single-edge flip with the best
score.  A flip is a rank-2 update of the adjacency matrix, so one
eigendecomposition of the graph and of its complement gives the flipped
eigenvalue of every flip through a 2x2 inertia count (`_screen_flips`).
That screen only ranks the flips, so it bounds and prunes: each count
shrinks a bracket on the flipped eigenvalue, the brackets bound each
flip's score, and a flip whose upper bound falls more than 2 SCREEN_SLACK
below the best lower bound of its graph is dropped with that upper bound as
its score.  Only the flips that can still lead are solved to full accuracy.
The flips within SCREEN_SLACK of the screen's best are rebuilt and
rescored through eigvalsh, and those scores pick the flip and stop the
climb, so the climb visits the graphs, and reports the scores, of
rescoring every flip through eigvalsh.  The climbs from all starts run in
lockstep: each step solves the eigendecompositions of every climb still
running in one call and screens all their flips in one pass, so each Newton
step of the screen serves every climb; a climb leaves the batch when it
stops.  Results are fully deterministic: enumeration order is fixed,
local search is seed-driven, and value ties are broken by the
lexicographically smallest graph6 string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues, complement_pair_eigh
from ngspectral.graph6 import parse_graph6, smallest_graph6
from ngspectral.graphs import (
    EXHAUSTIVE_CAP, SCORE_CHUNK, Graph, canonical_masks, check_order, complement_pair_classes,
    erdos_renyi, extensions, labellings, masks_to_stack,
)
from ngspectral.spectra import DEFAULT_TOL, check_tol

FAMILIES = ("top", "bottom")

# two labellings of one graph score the same up to rounding far below this,
# so candidates this close to the tie band can still hold a maximizer
RELABEL_SLACK = 1e-12
# exhaustive search: the most labellings of near-best classes it builds,
# 208 classes at n = 8 and every class at n = 7.  At the default tol no
# (n <= 8, s, family) needs more than 3 classes
LABEL_BUDGET = 1 << 23
# local search: scores closer than this are ties, and a flip must beat the
# current score by more than this to count as an improvement
CLIMB_TIE_TOL = 1e-12
# local search: leaders per rescoring batch up to order 32, and problems
# per chunk when the screen sums over the far poles or compacts its weights
FLIP_CHUNK = 512
# local search: the most matrix entries in one rescoring batch, FLIP_CHUNK
# matrices of order 32.  Constructive starts tie thousands of flips, so a
# batch of FLIP_CHUNK leaders would grow with n^2 (about 130 MB at n = 128)
RESCORE_ENTRIES = FLIP_CHUNK * 32 * 32
# local search: the most flips, of every climb still running, that one
# screening block solves together.  Three climbs of order 32 fit in one
# block; its weights, 3n doubles for each flip's graph and complement, take
# 2.4 MB there
SCREEN_BLOCK = 3 * FLIP_CHUNK
# flips screened within this of the best screened score are rescored; it
# exceeds twice the screen's error, so the best flip is always among them.
# The screen prunes a flip once its score is bounded 2 SCREEN_SLACK below
# another flip's
SCREEN_SLACK = 1e-8
# the screen closes each eigenvalue's bracket to 2 * SCREEN_TOL; after
# SCREEN_NEWTON_STEPS steps it only halves brackets, so every bracket closes
SCREEN_TOL = 1e-10
SCREEN_NEWTON_STEPS = 40
# each Newton step of the screen goes this times its square past its
# target, so that the next count brackets the eigenvalue from both sides
SCREEN_OVERSHOOT = 32.0
# relative to the spectral radius: the screen counts no closer than this to
# the eigenvalues next to the one it seeks, and eigenvalues closer than
# twice this count as one
POLE_GUARD = 1e-13


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


def _validate_climb(seed: int, iterations: int, restarts: int) -> None:
    if iterations < 1 or restarts < 1:
        raise ValueError("iterations and restarts must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def objective(g: Graph, s: int, family: str) -> float:
    """Score one graph through `_score_stack`."""
    _validate_family(family)
    _validate_s(g.n, s, family)
    return float(_score_stack(g.adjacency_matrix()[None], s, family)[0])


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


def _score_masks(masks: np.ndarray, n: int, s: int, family: str) -> np.ndarray:
    """Objective for each mask, solved SCORE_CHUNK matrices at a time."""
    return np.concatenate([
        _score_stack(masks_to_stack(masks[lo : lo + SCORE_CHUNK], n), s, family)
        for lo in range(0, masks.size, SCORE_CHUNK)
    ])


def _near_classes(near: np.ndarray, n: int, tol: float) -> np.ndarray:
    """Canonical masks of the classes of the order-n masks `near`,
    canonicalized SCORE_CHUNK at a time.  Raises ValueError as soon as the
    classes found, n! labellings each, pass LABEL_BUDGET masks."""
    limit = LABEL_BUDGET // math.factorial(n)
    classes = np.empty(0, dtype=np.int64)
    for lo in range(0, near.size, SCORE_CHUNK):
        classes = np.union1d(classes, canonical_masks(near[lo : lo + SCORE_CHUNK], n))
        if classes.size > limit:
            raise ValueError(
                f"tol={tol} leaves more than {limit} classes of order {n} within tol of the "
                f"best score; relabelling them, {n}! masks each, would pass {LABEL_BUDGET} "
                "masks, so lower tol"
            )
    return classes


def exhaustive_f(n: int, s: int, family: str, *, tol: float = DEFAULT_TOL) -> ExtremalRecord:
    """Exact extremal value over all 2^(n(n-1)/2) labeled graphs.

    Capped at n <= EXHAUSTIVE_CAP.  Scores the extensions of
    `complement_pair_classes(n - 1)`, then every labelling of the classes
    within tol + RELABEL_SLACK of the best, one mask per complement pair
    (the smaller).  A tol that leaves more classes than LABEL_BUDGET masks
    of labellings can hold raises ValueError before any is built.  The
    witness is the lexicographically smallest graph6 string among all
    maximizers within tol, complements included.  `evaluations` counts the
    labelled graphs covered, one per complement pair.
    """
    _validate_family(family)
    _validate_s(n, s, family)
    check_order(n)
    check_tol(tol)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive search capped at n <= {EXHAUSTIVE_CAP}")
    m = n * (n - 1) // 2
    total = 1 if m == 0 else 1 << (m - 1)
    full = (1 << m) - 1

    candidates = extensions(complement_pair_classes(n - 1), n)
    scores = _score_masks(candidates, n, s, family)
    near = candidates[scores >= scores.max() - tol - RELABEL_SLACK]
    labelled = labellings(_near_classes(near, n, tol), n)
    folded = np.unique(np.minimum(labelled, labelled ^ full))
    scores = _score_masks(folded, n, s, family)
    value = float(scores.max())
    witness = smallest_graph6(n, folded[scores >= value - tol])
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
    k = (s - 1).bit_length()  # the only k with s = 2^(k-1) + 1, if any
    if s < 2 or s != 2 ** (k - 1) + 1 or n % 2 ** (k + 1):
        return []
    return [extremal_graph(k, n // 2 ** (k + 1))]


def _flip_bracket(lam: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Where eigenvalue t (1-based, descending) of each spectrum in `lam`
    (P, n) can go under one edge flip.

    A flip adds d(e_i e_j' + e_j e_i') with |d| = 1, a rank-2 update with
    eigenvalues +1 and -1: it moves every eigenvalue by at most 1 (Weyl) and
    keeps eigenvalue t between eigenvalues t+1 and t-1 (interlacing).
    """
    n = lam.shape[-1]
    low = lam[:, t - 1] - 1.0
    high = lam[:, t - 1] + 1.0
    if t < n:
        low = np.maximum(low, lam[:, t])
    if t > 1:
        high = np.minimum(high, lam[:, t - 2])
    return low, high


def _near_clusters(lam: np.ndarray, t: int, rho: float) -> list[slice]:
    """Index runs, as slices, of the descending spectrum `lam` that hold
    eigenvalue t-1, t or t+1 (1-based); a run joins neighbours closer than
    2 rho.

    Only these poles can come near a point of the bracket of eigenvalue t.
    """
    cluster = np.concatenate([[0], np.cumsum(-np.diff(lam) > 2.0 * rho)])
    ids = sorted(set(cluster[max(t - 2, 0) : t + 1].tolist()))
    starts = np.searchsorted(cluster, ids).tolist()
    stops = np.searchsorted(cluster, ids, side="right").tolist()
    return [slice(start, stop) for start, stop in zip(starts, stops)]


def _gram_det(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Determinant of the Gram matrix of each row pair of u and v (F, r),
    through Gram-Schmidt, so that it stays accurate when u and v are nearly
    parallel.  For r = 1 it is exactly 0, and the screen does not call it.
    """
    uu = (u * u).sum(-1)
    beta = np.divide((u * v).sum(-1), uu, out=np.zeros_like(uu), where=uu > 0)
    rest = v - beta[:, None] * u
    return uu * (rest * rest).sum(-1)


def _compact(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """arr[rows] for ascending rows, written over the start of arr a chunk
    at a time, so that no second copy of arr is made.  Each chunk reads
    rows at or after those it writes."""
    for lo in range(0, rows.size, FLIP_CHUNK):
        part = rows[lo : lo + FLIP_CHUNK]
        arr[lo : lo + part.size] = arr[part]
    return arr[: rows.size]


def _far_sums(x, weights, far, spec):
    """The three sums of `_secular` over the poles away from the bracket,
    and their derivatives in x, each (3, K): `weights` against 1 / (far - x)
    and its square.  They take FLIP_CHUNK problems at a time, so the one
    (K, n) array they need is never built whole."""
    sums = np.empty((2, 3, x.size))
    for lo in range(0, x.size, FLIP_CHUNK):
        part = slice(lo, lo + FLIP_CHUNK)
        inv = far.take(spec[part], axis=0)
        inv -= x[part, None]
        np.reciprocal(inv, out=inv)
        np.einsum("kcn,kn->ck", weights[part], inv, out=sums[0, :, part])
        inv *= inv
        np.einsum("kcn,kn->ck", weights[part], inv, out=sums[1, :, part])
    return sums


def _secular(x, weights, far, spec, nu, near, quad, delta):
    """The 2x2 matrix M(x) = [[a, b + d], [b + d, c]] of `_screen_flips` at
    the points x (K,), its derivative in x and its eigenvalues.

    `far` (S, n) holds the poles of each spectrum away from the bracket
    (inf in place of the others), and per problem, of spectrum `spec`,
    `weights` (K, 3, n) holds their q_ik^2, q_ik q_jk, q_jk^2.  `nu` (K, 3)
    holds the runs of poles next to the bracket, `near` (K, 3, 3) the same
    three sums over each run, and `quad` (K, 3, 3) the terms of det M that
    pair two runs (off the diagonal) or a run with itself (its Gram
    determinant, on the diagonal).  Returns the gaps nu - x, the entries of
    M, their derivatives, and M's eigenvalues, smaller first.
    """
    (fa, fb, fc), deriv = _far_sums(x, weights, far, spec)
    gap = nu - x[:, None]
    alpha = 1.0 / gap
    fb += delta
    na, nb, nc = np.einsum("kcj,kj->ck", near, alpha)
    deriv += np.einsum("kcj,kj->ck", near, alpha * alpha)
    # det M expanded over the runs next to the bracket: det M cancels the
    # square of each of their terms, and rounding cannot
    det = fa * (fc + nc) + fc * na - fb * (fb + 2.0 * nb)
    det += (np.einsum("kjl,kl->kj", quad, alpha) * alpha).sum(-1)
    sa, sb, sc = fa + na, fb + nb, fc + nc
    # the eigenvalue larger in size from the trace; the other from det next
    # to a pole, and from the trace elsewhere, where det loses its digits
    # at a double root
    trace = sa + sc
    root = np.copysign(np.hypot(sa - sc, 2.0 * sb), trace)
    large = 0.5 * (trace + root)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(
            np.abs(large) > 1.0 + np.abs(fa) + np.abs(fb) + np.abs(fc),
            det / large,
            0.5 * (trace - root),
        )
    return gap, (sa, sb, sc), deriv, np.minimum(large, small), np.maximum(large, small)


def _screen_flips(stack: np.ndarray, s: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Objective of every single-edge flip of each adjacency matrix in
    `stack` (C, n, n), (C, n(n-1)/2) in `np.triu_indices` order, from one
    eigendecomposition of each matrix and of its complement, and which of
    those scores are solved (the rest are bounds).

    Flip (i, j) adds d = 1 - 2 a_ij at (i, j) and (j, i) of the graph and
    -d to its complement, so for each spectrum Q diag(lam) Q' it is the
    rank-2 update d(e_i e_j' + e_j e_i').  By Haynsworth inertia additivity
    the flipped matrix has #{lam_k > x} + neg(M) - 1 eigenvalues above x,
    where M = [[a, b + d], [b + d, c]] and a, b, c sum q_ik^2, q_ik q_jk and
    q_jk^2 against 1 / (lam_k - x) (`_secular`).  Eigenvalue t is found in
    its bracket (`_flip_bracket`) from that count (`_solve_flips`), starting
    at its first-order perturbation.  The runs of poles next to eigenvalue t
    (`_near_clusters`) enter det M by expansion, and the points keep a
    distance rho from them.

    The flips of all matrices are solved together, SCREEN_BLOCK at most per
    block, so every Newton step serves every matrix; a single graph is a
    stack of one.  Each problem keeps to its own matrix: its spectrum, its
    guard rho and, for pruning, its matrix's best lower bound.

    The screen ranks the flips, and `local_search_f` rescores the leaders.
    A solved score is within SCREEN_SLACK / 4 of the flip's objective.  A
    flip whose brackets prove it more than 2 SCREEN_SLACK below another
    flip of its matrix is pruned: its score is an upper bound that lies
    more than SCREEN_SLACK below the matrix's best score, so it is never a
    leader.
    """
    count, n = stack.shape[0], stack.shape[-1]
    t = s if family == "top" else n - s + 1
    lam, vec = complement_pair_eigh(stack)
    # spectrum 2c is matrix c and spectrum 2c + 1 its complement; row
    # (2c + p) n + i of `vec` holds vertex i of spectrum 2c + p
    lam = lam.reshape(2 * count, n)
    vec = vec.reshape(2 * count * n, n)
    rho = np.repeat(POLE_GUARD * np.maximum(1.0, np.abs(lam).reshape(count, 2 * n).max(-1)), 2)

    # poles next to eigenvalue t: value, multiplicity and slot; the rest lie
    # outside every bracket and enter a, b, c one by one
    runs = [_near_clusters(row, t, guard) for row, guard in zip(lam, rho)]
    nu = np.full((2 * count, 3), np.inf)
    mult = np.zeros((2 * count, 3))
    far = lam.copy()
    for p, spectrum_runs in enumerate(runs):
        for slot, run in enumerate(spectrum_runs):
            nu[p, slot] = lam[p, run].mean()
            mult[p, slot] = run.stop - run.start
            far[p, run] = np.inf
    above_near = np.array([spectrum_runs[0].start for spectrum_runs in runs])
    spectra = (lam, vec, runs, [*_flip_bracket(lam, t), rho, nu, mult, above_near])

    total = count * (n * (n - 1) // 2)
    iu, ju = np.triu_indices(n, 1)
    scores = np.empty(total)
    solved = np.empty(total, dtype=bool)
    best = np.zeros(count)  # per matrix, the largest lower bound on a flip's score so far
    for lo in range(0, total, SCREEN_BLOCK):
        climb, pair = np.divmod(np.arange(lo, min(lo + SCREEN_BLOCK, total)), iu.size)
        problems = _flip_problems(stack, climb, iu[pair], ju[pair], t, spectra)
        block = slice(lo, lo + climb.size)
        scores[block], solved[block] = _solve_flips(problems, far, t, climb, best)
    return scores.reshape(count, -1), solved.reshape(count, -1)


def _flip_problems(stack, climb, i, j, t, spectra) -> list:
    """The problems of the flips (i[k], j[k]) of the matrices climb[k] of
    `stack`: the graph of flip k, then its complement.

    `spectra` holds, from `_screen_flips`, the spectra (S, n), their
    eigenvectors by rows, their runs of poles next to eigenvalue t, and the
    tables a problem reads by its spectrum: bracket ends, rho, the runs'
    means and multiplicities, and the count of poles above them.  Returns
    the list that `_solve_flips` takes.
    """
    lam, vec, runs, tables = spectra
    n = lam.shape[1]
    spec = np.concatenate([2 * climb, 2 * climb + 1])
    ends = np.tile(i, 2), np.tile(j, 2)
    vi, vj = (spec * n + end for end in ends)
    d = 1.0 - 2.0 * stack[climb, i, j]
    delta = np.concatenate([d, -d])
    # the weights of the poles: q_ik^2, q_ik q_jk and q_jk^2, built in place
    # (mode="clip" writes straight into `out`; the rows are all in range)
    weights = np.empty((spec.size, 3, n))
    qi, qj = weights[:, 0], weights[:, 2]
    vec.take(vi, axis=0, out=qi, mode="clip")
    vec.take(vj, axis=0, out=qj, mode="clip")
    np.multiply(qi, qj, out=weights[:, 1])
    np.square(qi, out=qi)
    np.square(qj, out=qj)
    # the Gram entries of each run, spectrum by spectrum: the weights summed
    # over its columns, and its determinant where it has more than one
    near = np.zeros((spec.size, 3, 3))
    gdet = np.zeros((spec.size, 3))
    cuts = [0, *(np.flatnonzero(np.diff(spec)) + 1).tolist(), spec.size]
    for first, last in zip(cuts, cuts[1:]):
        p = spec[first]
        for slot, run in enumerate(runs[p]):
            near[first:last, :, slot] = weights[first:last, :, run].sum(-1)
            if run.stop - run.start > 1:
                u, v = (vec[p * n + end[first:last, None], np.r_[run]] for end in ends)
                gdet[first:last, slot] = _gram_det(u, v)
    ga, gb, gc = near.transpose(1, 0, 2)
    # run pair (j, l) adds alpha_j alpha_l (a_j c_l + c_j a_l - 2 b_j b_l)
    quad = 0.5 * (ga[:, :, None] * gc[:, None] + gc[:, :, None] * ga[:, None]) - gb[:, :, None] * gb[:, None]
    quad[:, [0, 1, 2], [0, 1, 2]] = gdet
    # the first point is the first-order perturbation of eigenvalue t
    x = lam[spec, t - 1] + 2.0 * delta * vec[vi, t - 1] * vec[vj, t - 1]
    low, high, rho, nu, mult, above_near = (table[spec] for table in tables)
    return [x, low, high, weights, spec, rho, nu, mult, above_near, near, quad, delta]


def _solve_flips(problems, far, t, climb, best):
    """Scores of the flips of one `_screen_flips` block, and whether each is
    solved, from its `problems` (`_flip_problems`), which starts from the
    first points x in the brackets (low, high) of eigenvalue t and which
    this empties.  Problem k is the graph of flip k, problem k + size its
    complement; flip k belongs to matrix climb[k], and `best` holds each
    matrix's largest lower bound on a score, from earlier blocks, and is
    raised in place.

    Each step counts at x, shrinks the bracket and picks the next point
    (`_count`).  A problem leaves the arrays once its bracket is
    2 SCREEN_TOL wide, and its eigenvalue is the middle of the bracket.

    From the second count on, the two brackets of a flip bound its score:
    above by the sum of their largest |end|, below by the sum of their
    distances from 0.  A flip whose upper bound is more than 2 SCREEN_SLACK
    below the largest lower bound of its matrix is pruned: both of its
    problems leave the arrays and its score is that upper bound.
    """
    x, low, high, weights, *data = problems
    problems.clear()  # the block's first arrays go as its problems leave
    size = x.size // 2
    lows, highs = low.copy(), high.copy()  # the bracket of every problem
    pruned = np.zeros(size, dtype=bool)
    ids = np.arange(x.size)
    moves = [high - low] * 2  # step sizes one and two steps back
    x = np.where((x > low) & (x < high), x, 0.5 * (low + high))
    for k in itertools.count():
        rho, nu = data[1:3]
        keep = high - low > 2.0 * SCREEN_TOL
        # points near a pole move just below or above it, if that still
        # splits the bracket; otherwise the bracket is within rho of the pole
        hit = np.abs(nu - x[:, None]) < rho[:, None]
        if hit.any():
            pole = np.where(hit, nu, 0.0).sum(-1)  # runs are 2 rho apart: one hit at most
            moved = hit.any(-1)
            use_below = pole - rho > low
            use_above = ~use_below & (pole + rho < high)
            x = np.where(moved, np.where(use_above, pole + rho, pole - rho), x)
            keep &= ~moved | use_below | use_above
        keep &= ~pruned[ids % size]
        if not keep.all():
            rows = np.flatnonzero(keep)
            if not rows.size:
                break
            ids, x, low, high = ids[rows], x[rows], low[rows], high[rows]
            moves = [w[rows] for w in moves]
            weights = _compact(weights, rows)
            data = [arr.take(rows, axis=0) for arr in data]
        low, high, nxt = _count(x, low, high, moves[1], k, t, weights, far, data)
        lows[ids], highs[ids] = low, high
        if k:
            upper, lower = _score_bounds(lows, highs, size)
            np.maximum.at(best, climb, lower)
            pruned |= upper < best[climb] - 2.0 * SCREEN_SLACK
        moves = [np.abs(nxt - x), moves[0]]
        x = nxt
    upper, _ = _score_bounds(lows, highs, size)
    mu = np.abs(0.5 * (lows + highs))
    return np.where(pruned, upper, mu[:size] + mu[size:]), ~pruned


def _count(x, low, high, before_last, k, t, weights, far, data):
    """Count step k of `_solve_flips` at the points x: the brackets (low,
    high) shrunk by the count, and the next point.

    The next point is the Newton step on the eigenvalue of M whose sign
    decides the count, or the middle of the bracket where that step leaves
    the bracket or is not half the step before last.  The Newton step goes
    SCREEN_OVERSHOOT step^2, and at least SCREEN_TOL / 2, past its target,
    so the count that follows closes the bracket from the other side of the
    root.
    """
    spec, _, nu, mult, above_near, near, quad, delta = data
    gap, (sa, sb, sc), (da, db, dc), lo, hi = _secular(x, weights, far, spec, nu, near, quad, delta)
    # the count is #{lam_k > x} + neg(M) - 1, so count >= t needs
    # `need` negative eigenvalues of M
    need = t + 1 - above_near - (mult * (gap > 0)).sum(-1)
    up = (lo < 0).astype(np.int64) + (hi < 0) >= need
    low, high = np.where(up, x, low), np.where(up, high, x)
    # Newton step on the eigenvalue of M whose sign decides the count;
    # its slope is tr(adj(ev - M) M') / tr(adj(ev - M))
    ev = np.where(need == 1, lo, hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # M = c I: halve
        step = ev * (2.0 * ev - sa - sc) / ((sc - ev) * da - 2.0 * sb * db + (sa - ev) * dc)
        step += np.copysign(np.maximum(SCREEN_OVERSHOOT * step * step, 0.5 * SCREEN_TOL), step)
    newton = x + step
    use = (need >= 1) & (need <= 2) & (newton > low) & (newton < high)
    use &= (np.abs(step) <= 0.5 * before_last) & (k < SCREEN_NEWTON_STEPS)
    return low, high, np.where(use, newton, 0.5 * (low + high))


def _score_bounds(low: np.ndarray, high: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on |mu_graph| + |mu_complement| of each flip
    from the brackets [low, high] (2 size,) of its two problems."""
    mag_low, mag_high = np.abs(low), np.abs(high)
    upper = np.maximum(mag_low, mag_high)
    lower = np.where((low <= 0.0) & (high >= 0.0), 0.0, np.minimum(mag_low, mag_high))
    return upper[:size] + upper[size:], lower[:size] + lower[size:]


def _screen_leaders(stack: np.ndarray, s: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, flip) indices of the flips of each matrix in `stack` screened
    within SCREEN_SLACK of that matrix's best screened score, matrix by
    matrix and flips ascending: every flip whose objective is within
    SCREEN_SLACK / 2 of its matrix's best, ties included."""
    screened, _ = _screen_flips(stack, s, family)
    return np.nonzero(screened >= screened.max(-1, keepdims=True) - SCREEN_SLACK)


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
    """Steepest-ascent hill climbing over single-edge flips.

    Starts from `restarts` seeded random graphs (seed + restart index) plus
    any matching extremal construction, and climbs from all of them in
    lockstep.  Each step screens the n(n-1)/2 flips of every climb still
    running in one `_screen_flips` pass, rescores each climb's leaders,
    those within SCREEN_SLACK of its best screened score
    (`_screen_leaders`), through `_score_stack`, and takes each climb's
    best, the smallest flip index among equal scores.  That is the flip,
    and the score, that rescoring every flip would give.  A climb stops, and
    leaves the batch, when no flip improves its score by more than
    CLIMB_TIE_TOL.  The returned value is the witness re-scored by
    `objective` after its graph6 round trip, hence a certified lower bound
    on the true extremal value.
    """
    _validate_family(family)
    _validate_s(n, s, family)
    check_order(n)
    _validate_climb(seed, iterations, restarts)

    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)  # flip order; the smallest index wins ties
    starts = [erdos_renyi(n, 0.5, seed + r) for r in range(restarts)]
    starts.extend(_constructive_starts(n, s))

    a = np.stack([start.adjacency_matrix() for start in starts])
    score = _score_stack(a, s, family)
    evaluations = len(starts)
    live = np.arange(len(starts) if m else 0)  # one vertex: nothing to flip
    batch = max(1, min(FLIP_CHUNK, RESCORE_ENTRIES // (n * n)))
    for _ in range(iterations):
        if not live.size:
            break
        owner, flip = _screen_leaders(a[live], s, family)
        rescored = np.concatenate([
            _score_stack(_flipped_stack(a[live[owner[k]]], iu[flip[k]], ju[flip[k]]), s, family)
            for k in np.split(np.arange(flip.size), np.arange(batch, flip.size, batch))
        ])
        evaluations += m * live.size
        climbing = []
        # every climb has a leader, and its leaders are contiguous
        for c, lead in zip(live, np.split(np.arange(flip.size), np.flatnonzero(np.diff(owner)) + 1)):
            k = lead[np.argmax(rescored[lead])]  # ties resolve to the smallest flip index
            if rescored[k] > score[c] + CLIMB_TIE_TOL:
                score[c] = rescored[k]
                i, j = iu[flip[k]], ju[flip[k]]
                a[c, i, j] = a[c, j, i] = 1.0 - a[c, i, j]
                climbing.append(c)
        live = np.array(climbing, dtype=np.int64)

    best_score = -math.inf
    best_masks: list[int] = []
    for c in range(len(starts)):
        bits = Graph.from_adjacency(a[c]).bits
        if score[c] > best_score + CLIMB_TIE_TOL:
            best_score = float(score[c])
            best_masks = [bits]
        elif score[c] > best_score - CLIMB_TIE_TOL:
            best_masks.append(bits)

    witness = smallest_graph6(n, best_masks)
    value = objective(parse_graph6(witness), s, family)
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
) -> list[RatioRow]:
    """Evidence rows (n, value, value/n, target slope, gap, method).

    Exhaustive where the cap allows, hill climbing beyond; presents scaling
    evidence only and never claims a limit.
    """
    _validate_family(family)
    check_tol(tol)
    target = target_ratio(s, family)
    for n in n_list:  # every order, the seed and the climb's settings before any search
        _validate_s(n, s, family)
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
