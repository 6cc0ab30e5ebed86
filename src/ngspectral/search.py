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
both engines, by the memory budget `graphs.SCORE_ENTRIES`, and the chunks
of the flip screen by the cache budget SCREEN_ENTRIES.  Batches solve each
matrix, mask or problem on its own, so they never change a bit.

The hill climb takes, at every step, the single-edge flip with the best
score.  A flip is a rank-2 update of the adjacency matrix, so one
eigendecomposition of the graph and of its complement bounds the flipped
eigenvalue of every flip through 2x2 inertia counts (`_screen_flips`).
That screen only prunes: each count shrinks a bracket on the flipped
eigenvalue, the brackets bound each flip's score, and a flip whose upper
bound falls more than 2 SCREEN_SLACK below its climb's current score, or
below the best lower bound of another flip, is dropped; the first count
aims at the current score, so most flips that cannot beat it leave after
one count.  The screen counts on the flips that can still lead until their
brackets close, or until a block's open problems are so few that solving
them costs less than counting them; a block that starts that small is not
counted at all.  Every flip it keeps is rebuilt and rescored
through eigvalsh, and those scores pick the flip and stop the climb; a
climb whose flips are all pruned stops without rescoring, since none beats
its score.  So the climb visits the graphs, and reports the scores, of
rescoring every flip through eigvalsh.  The climbs from all starts run in
lockstep: each step solves the eigendecompositions of every climb still
running in one call and screens all their flips in one pass, so each Newton
step of the screen serves every climb; a climb leaves the batch when it
stops.  A flip's problems keep a fixed number of values whatever n (each
count gathers the eigenvector rows it needs), so one block of SCREEN_BLOCK
flips holds a whole step of four climbs of order 32.  Results are fully
deterministic: enumeration order is fixed, local search is seed-driven,
and value ties are broken by the lexicographically smallest graph6 string.
"""

from __future__ import annotations

import functools
import itertools
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
# local search: the most entries (problems x n, or x run width) of a chunk
# of the screen's sums, to stay in cache: 512 problems of order 32, 1024 of 16
SCREEN_ENTRIES = 1 << 14
# local search: the most flips, of every climb still running, that one
# screening block solves together.  A flip's two problems keep 78 numbers of
# 8 bytes whatever n, so a block takes about 1.3 MB; a step of four climbs of
# order 32 (1984 flips) fits in one
SCREEN_BLOCK = 2048
# the screen prunes a flip once its score is bounded more than 2
# SCREEN_SLACK below its climb's score or another flip's lower bound: far
# above the rounding of the brackets, so no flip that can beat that score,
# or lead, is pruned
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
# a screening block stops counting, before its first count or any later
# one, once its open problems times n^3 are at most this, and leaves their
# flips unpruned, for eigvalsh to rescore: 4 problems at n = 32, 32 at n =
# 16, 606 at n = 6 (a step of three climbs of order 6 holds 90).  A count
# of a few problems costs about 0.3 ms whatever n, and rescoring a
# flip 32, 70 and 124 us at n = 16, 24 and 32 (4-8 ns n^3).  Timed over the
# six climbs of the search_local benchmark, 2^16 was 8% slower, 2^18 1% and
# 2^19 4% (2 cores, 1 BLAS thread, 10 interleaved rounds)
SCREEN_HANDOFF = 1 << 17


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


def _near_runs(lam: np.ndarray, rho: np.ndarray, t: int) -> np.ndarray:
    """Index runs [start, stop) of each descending spectrum in `lam` (S, n)
    that hold eigenvalue t-1, t or t+1 (1-based), as starts and stops (2, S,
    3); a run joins neighbours closer than 2 rho.  A run that holds two of
    these eigenvalues fills the slot of the first and leaves the others
    empty (start = stop = 0).

    Only these poles can come near a point of the bracket of eigenvalue t.
    """
    count, n = lam.shape
    index = np.arange(n)
    # a run starts at 0 and after every gap wider than 2 rho
    cut = np.ones((count, n + 1), dtype=bool)
    cut[:, 1:n] = lam[:, :-1] - lam[:, 1:] > 2.0 * rho[:, None]
    first = np.maximum.accumulate(np.where(cut[:, :n], index, 0), axis=1)
    stop = np.minimum.accumulate(np.where(cut[:, 1:], index + 1, n)[:, ::-1], axis=1)[:, ::-1]
    near = index[max(t - 2, 0) : t + 1]
    runs = np.zeros((2, count, 3), dtype=np.int64)
    runs[:, :, : near.size] = first[:, near], stop[:, near]
    runs[:, :, 1:][:, runs[0, :, 1:] == runs[0, :, :-1]] = 0
    return runs


def _gram_det(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Determinant of the Gram matrix of u and v over their last axis,
    through Gram-Schmidt, so that it stays accurate when u and v are nearly
    parallel."""
    uu = np.einsum("...r,...r->...", u, u)
    uv = np.einsum("...r,...r->...", u, v)
    beta = np.divide(uv, uu, out=np.zeros_like(uu), where=uu > 0)
    rest = v - beta[..., None] * u
    return uu * np.einsum("...r,...r->...", rest, rest)


# rows of the (27, K) table of a block's problem constants: the guard rho;
# t + 1 minus the poles above the runs next to the bracket and minus half
# the runs' poles; the runs' means and half their multiplicities; the
# flip's d; the three sums of `_count` over each run (component by run);
# and the terms of det M that pair two runs
RHO, NEED, NU, HALF, DELTA, NEAR, QUAD = 0, 1, slice(2, 5), slice(5, 8), 8, slice(9, 18), slice(18, 27)


def _far_sums(x, ints, tables):
    """The three sums of `_count` over the poles away from the bracket, and
    their derivatives in x, as (2, 3, K): q_ik^2, q_ik q_jk and q_jk^2
    against 1 / (far - x) and against its square.

    They take SCREEN_ENTRIES // n problems at a time: the rows q_i and q_j
    gathered from Q, and u = q / (far - x), so that a, b, c are u_i q_i, u_i
    q_j, u_j q_j and their derivatives u_i u_i, u_i u_j, u_j u_j.  No (K, n)
    array is built whole.
    """
    far, vec = tables
    spec, vij = ints[0], ints[1:3]
    chunk = max(1, SCREEN_ENTRIES // far.shape[1])
    sums = np.empty((2, 3, x.size))
    for lo in range(0, x.size, chunk):
        part = slice(lo, lo + chunk)
        q = vec[vij[:, part]]
        u = q * np.reciprocal(far[spec[part]] - x[part, None])
        for row, (left, right) in enumerate([(u, q), (u, u)]):
            np.einsum("akn,akn->ak", left, right, out=sums[row, 0::2, part])
            np.einsum("kn,kn->k", left[0], right[1], out=sums[row, 1, part])
    return sums


def _screen_flips(
    stack: np.ndarray, t: int, iu: np.ndarray, ju: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """Which single-edge flips G of each adjacency matrix in `stack` (C, n,
    n) are pruned: a mask (C, n(n-1)/2) in the flip order (iu, ju) of
    `np.triu_indices(n, 1)`, true where brackets on eigenvalue t (1-based,
    descending) of G and of its complement prove |mu_t(G)| + |mu_t(comp)|
    too far below the floor or another flip to matter.  The brackets come
    from one eigendecomposition of each matrix and of its complement.

    Flip (i, j) adds d = 1 - 2 a_ij at (i, j) and (j, i) of the graph and
    -d to its complement, so for each spectrum Q diag(lam) Q' it is the
    rank-2 update d(e_i e_j' + e_j e_i').  By Haynsworth inertia additivity
    the flipped matrix has #{lam_k > x} + neg(M) - 1 eigenvalues above x,
    where M = [[a, b + d], [b + d, c]] and a, b, c sum q_ik^2, q_ik q_jk and
    q_jk^2 against 1 / (lam_k - x) (`_count`).  That count shrinks the
    bracket of eigenvalue t (`_flip_bracket`, `_solve_flips`), starting at
    its first-order perturbation.  The runs of poles next to eigenvalue t
    (`_near_runs`) enter det M by expansion, and the points keep a
    distance rho from them.

    The spectra are set up once per call, with array operations over all
    of them: their runs, their poles away from the bracket and the tables
    a problem reads by its spectrum.  Every count gathers the rows of Q its
    problems need (`_far_sums`), so a flip's problems hold a fixed number
    of values whatever n.  The flips of all matrices are screened together,
    SCREEN_BLOCK at most per block, so every Newton step serves every
    matrix; a single graph is a stack of one.  Each problem keeps to its
    own matrix: its spectrum, its guard rho and, for pruning, its matrix's
    floor and best lower bound.

    The screen only prunes, and `local_search_f` rescores every flip it
    keeps.  `floor` (C,) holds the score each matrix's flips must beat, a
    climb's current score (0 keeps every flip that may lead).  A flip whose
    brackets prove it more than 2 SCREEN_SLACK below its matrix's floor, or
    below another flip of its matrix, is pruned, so it neither beats the
    floor nor leads.  The flips the screen stops counting (SCREEN_HANDOFF)
    stay unpruned.
    """
    count, n = stack.shape[0], stack.shape[-1]
    lam, vec = complement_pair_eigh(stack)
    # spectrum 2c is matrix c and spectrum 2c + 1 its complement; row
    # (2c + p) n + i of `vec` holds vertex i of spectrum 2c + p
    lam = lam.reshape(2 * count, n)
    vec = vec.reshape(2 * count * n, n)
    rho = np.repeat(POLE_GUARD * np.maximum(1.0, np.abs(lam).reshape(count, 2 * n).max(-1)), 2)

    # the poles of the runs next to eigenvalue t, by spectrum and slot:
    # their indices, padded to the longest run, then their mean and
    # multiplicity.  The rest lie outside every bracket and enter a, b, c
    # one by one
    start, stop = _near_runs(lam, rho, t)
    mult = stop - start
    cols = start[..., None] + np.arange(max(1, mult.max()))
    inside = cols < stop[..., None]
    cols = np.minimum(cols, n - 1)
    spectrum = np.arange(2 * count)[:, None, None]
    nu = np.full(mult.shape, np.inf)
    np.divide(np.where(inside, lam[spectrum, cols], 0.0).sum(-1), mult, out=nu, where=mult > 0)
    far = lam.copy()
    far[np.broadcast_to(spectrum, cols.shape)[inside], cols[inside]] = np.inf
    spectra = (
        lam, vec, start.T, np.stack(_flip_bracket(lam, t)),
        np.vstack([rho, t + 1 - start[:, 0] - 0.5 * mult.sum(1), nu.T, 0.5 * mult.T]),
    )
    tables = (far, vec)

    total = count * iu.size
    pruned = np.empty(total, dtype=bool)
    best = np.array(floor, dtype=np.float64)  # per matrix, its floor or a flip's larger lower bound
    for lo in range(0, total, SCREEN_BLOCK):
        climb, pair = np.divmod(np.arange(lo, min(lo + SCREEN_BLOCK, total)), iu.size)
        problems = _flip_problems(stack, climb, iu[pair], ju[pair], t, spectra)
        pruned[lo : lo + climb.size] = _solve_flips(problems, tables, climb, best)
    return pruned.reshape(count, -1)


def _flip_problems(stack, climb, i, j, t, spectra) -> list:
    """The problems of the flips (i[k], j[k]) of the matrices climb[k] of
    `stack`: the graph of flip k, then its complement, along the last axis
    of three tables.

    `spectra` holds, from `_screen_flips`, the spectra (S, n), their
    eigenvectors by rows, the first index of each run of poles next to
    eigenvalue t (3, S), the bracket ends (2, S) and the rows RHO to HALF
    of the problem constants (8, S).  Returns the list that `_solve_flips`
    takes: the points (5, K), that is the bracket's low, x, the bracket's
    high and the step sizes one and two steps back; the constants (27, K);
    and the indices (5, K): spectrum, rows of Q for i and j, problem and
    flip.  The runs with more than one pole are summed over, and their Gram
    determinants built, SCREEN_ENTRIES // run width problems at a time.
    """
    lam, vec, start, bracket, table = spectra
    n = lam.shape[1]
    size = climb.size
    ints = np.empty((5, 2 * size), dtype=np.int64)
    spec = ints[0]
    np.concatenate([2 * climb, 2 * climb + 1], out=spec)
    np.add(spec * n, [np.tile(i, 2), np.tile(j, 2)], out=ints[1:3])
    ints[3] = np.arange(2 * size)
    ints[4, :size] = ints[4, size:] = ints[3, :size]
    const = np.empty((27, 2 * size))
    const[:DELTA] = table.take(spec, axis=1)
    d = 1.0 - 2.0 * stack[climb, i, j]
    const[DELTA] = np.concatenate([d, -d])
    points = np.empty((5, 2 * size))
    points[0:3:2] = bracket.take(spec, axis=1)
    # the first point is the first-order perturbation of eigenvalue t
    points[1] = lam[spec, t - 1] + 2.0 * const[DELTA] * vec[ints[1], t - 1] * vec[ints[2], t - 1]
    points[3] = points[4] = points[2] - points[0]
    # the Gram entries of each run: i with i, i with j and j with j, from
    # its first pole (an empty run's alpha is 0, so its entries do not
    # count), then summed over every pole, with the run's determinant,
    # where it has more than one
    entries = vec.reshape(-1)
    first = start.take(spec, axis=1)
    q = entries.take(ints[1:3, None] * n + first)
    near = const[NEAR].reshape(3, 3, -1)
    np.multiply(q[[0, 0, 1]], q[[0, 1, 1]], out=near)
    gdet = np.zeros((3, 2 * size))
    slot, row = np.nonzero(const[HALF] > 0.5)
    if row.size:
        width = np.arange(int(2 * const[HALF].max()))
        chunk = max(1, SCREEN_ENTRIES // width.size)
        for lo in range(0, row.size, chunk):
            s, k = slot[lo : lo + chunk], row[lo : lo + chunk]
            cols = np.minimum(first[s, k, None] + width, n - 1)
            inside = width < 2.0 * const[HALF][s, k, None]
            u, v = (np.where(inside, entries.take(ints[end, k, None] * n + cols), 0.0) for end in (1, 2))
            near[:, s, k] = [np.einsum("kr,kr->k", *pair) for pair in ((u, u), (u, v), (v, v))]
            gdet[s, k] = _gram_det(u, v)
    ga, gb, gc = near
    # run pair (j, l) adds alpha_j alpha_l (a_j c_l + c_j a_l - 2 b_j b_l)
    quad = const[QUAD].reshape(3, 3, -1)
    quad[:] = 0.5 * (ga[:, None] * gc + gc[:, None] * ga) - gb[:, None] * gb
    quad[[0, 1, 2], [0, 1, 2]] = gdet
    return [points, const, ints]


def _solve_flips(problems, tables, climb, best):
    """Which flips of one `_screen_flips` block are pruned, a mask (size,),
    from its `problems` (`_flip_problems`), which starts from the first
    points x in the brackets (low, high) of eigenvalue t and which this
    empties.  Problem k is the graph of flip k, problem k + size its
    complement; flip k belongs to matrix climb[k], which ascends, and
    `best` holds each matrix's floor, or a larger lower bound on a score
    from earlier blocks, and is raised in place.

    The first count of each flip aims at that bound: both of its first
    points move away from 0 until their sizes sum to 3 SCREEN_SLACK below
    it, so a flip whose two eigenvalues lie nearer 0 than its points is
    pruned by that count.  Each step counts at x, shrinks the bracket and
    picks the next point (`_count`).  A problem leaves its three tables, a
    column each, once its bracket is 2 SCREEN_TOL wide.

    After every count, the two brackets of a flip bound its score: above by
    the sum of their largest |end|, below by the sum of their distances
    from 0.  A flip whose upper bound is more than 2 SCREEN_SLACK below
    `best` of its matrix is pruned: both of its problems leave the tables.
    Before each count, the first too, counting stops once the open problems
    times n^3 are at most SCREEN_HANDOFF, and the flips still open stay
    unpruned.
    """
    points, const, ints = problems
    problems.clear()  # the block's first tables go as its problems leave
    size = climb.size
    cubes = tables[0].shape[1] ** 3
    pruned = np.zeros(size, dtype=bool)
    owner = np.arange(climb[0], climb[-1] + 1)
    first = np.searchsorted(climb, owner)  # each matrix's first flip
    lows, highs = points[0].copy(), points[2].copy()  # the bracket of every problem
    low, x, high = points[:3]
    aim = 0.5 * np.maximum(0.0, best[climb] - 3.0 * SCREEN_SLACK - np.abs(x[:size]) - np.abs(x[size:]))
    x += np.copysign(np.concatenate([aim, aim]), x)
    x[:] = np.where((x > low) & (x < high), x, 0.5 * (low + high))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in itertools.count():
            low, x, high = points[:3]
            rho, nu = const[RHO], const[NU]
            keep = high - low > 2.0 * SCREEN_TOL
            # points near a pole move just below or above it, if that still
            # splits the bracket; otherwise the bracket is within rho of it
            hit = np.abs(nu - x) < rho
            if hit.any():
                pole = np.where(hit, nu, 0.0).sum(0)  # runs are 2 rho apart: one hit at most
                moved = hit.any(0)
                use_below = pole - rho > low
                use_above = ~use_below & (pole + rho < high)
                x[:] = np.where(moved, np.where(use_above, pole + rho, pole - rho), x)
                keep &= ~moved | use_below | use_above
            keep &= ~pruned[ints[4]]
            if not keep.all():
                rows = np.flatnonzero(keep)
                if not rows.size:
                    break
                points, const, ints = (arr.take(rows, axis=1) for arr in (points, const, ints))
            if ints.shape[1] * cubes <= SCREEN_HANDOFF:
                break
            points = _count(points, const, ints, k, tables)
            lows[ints[3]], highs[ints[3]] = points[0], points[2]
            upper, lower = _score_bounds(lows, highs, size)
            best[owner] = np.maximum(best[owner], np.maximum.reduceat(lower, first))
            pruned |= upper < best[climb] - 2.0 * SCREEN_SLACK
    return pruned


def _count(points, const, ints, k, tables):
    """Count step k of `_solve_flips` at the points x: the next points,
    with the brackets (low, high) shrunk by the count and the step sizes
    moved back one step.

    The count is #{lam_k > x} + neg(M) - 1 for M = [[a, b + d], [b + d,
    c]]: the sums over the far poles (`_far_sums`), plus those over each run
    of poles next to the bracket, whose terms of det M are expanded so that
    det M cancels the square of each.  The next point is the Newton step on
    the eigenvalue of M whose sign decides the count, or the middle of the
    bracket where that step leaves the bracket or is not half the step
    before last.  The Newton step goes SCREEN_OVERSHOOT step^2, and at
    least SCREEN_TOL / 2, past its target, so the count that follows closes
    the bracket from the other side of the root.
    """
    _, x, _, last, before_last = points
    far = _far_sums(x, ints, tables)
    far[0, 1] += const[DELTA]
    gap = const[NU] - x
    alpha = np.empty((2,) + gap.shape)
    np.divide(1.0, gap, out=alpha[0])
    np.square(alpha[0], out=alpha[1])
    near = np.einsum("cjk,djk->dck", const[NEAR].reshape(3, 3, -1), alpha)
    (sa, sb, sc), (da, db, dc) = far + near
    (fa, fb, fc), (na, nb, _) = far[0], near[0]
    # det M expanded over the runs next to the bracket: det M cancels the
    # square of each of their terms, and rounding cannot
    det = fa * sc + fc * na - fb * (fb + 2.0 * nb)
    det += np.einsum("jlk,jk,lk->k", const[QUAD].reshape(3, 3, -1), alpha[0], alpha[0])
    # the eigenvalue larger in size from the trace; the other from det next
    # to a pole, and from the trace elsewhere, where det loses its digits
    # at a double root
    trace = sa + sc
    root = np.copysign(np.hypot(sa - sc, 2.0 * sb), trace)
    large = 0.5 * (trace + root)
    small = 0.5 * (trace - root)
    np.divide(det, large, out=small, where=np.abs(large) > 1.0 + np.abs(far[0]).sum(0))
    eig = np.array([np.minimum(large, small), np.maximum(large, small)])
    # count >= t needs `need` negative eigenvalues of M; the gaps are never
    # 0, so the runs above x hold sum(half + copysign(half, gap)) poles
    need = const[NEED] - np.copysign(const[HALF], gap).sum(0)
    up = (eig < 0).sum(0) >= need
    low, high = np.where(up, points[1:3], points[0:2])
    nxt = 0.5 * (low + high)
    if k < SCREEN_NEWTON_STEPS:
        # Newton step on the eigenvalue of M whose sign decides the count;
        # its slope is tr(adj(ev - M) M') / tr(adj(ev - M)).  M = c I: halve
        ev = np.where(need == 1, *eig)
        step = ev * (2.0 * ev - trace) / ((sc - ev) * da - 2.0 * sb * db + (sa - ev) * dc)
        step += np.copysign(np.maximum(SCREEN_OVERSHOOT * step * step, 0.5 * SCREEN_TOL), step)
        newton = x + step
        use = (np.abs(need - 1.5) < 1.0) & (newton > low) & (newton < high)
        use &= np.abs(step) <= 0.5 * before_last
        nxt = np.where(use, newton, nxt)
    return np.array([low, nxt, high, np.abs(nxt - x), last])


def _score_bounds(low: np.ndarray, high: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower bounds on |mu_graph| + |mu_complement| of each flip
    from the brackets [low, high] (2 size,) of its two problems: the
    largest |end| and the distance from 0 of each bracket."""
    upper = np.maximum(high, -low)
    lower = np.maximum(np.maximum(low, -high), 0.0)
    return upper[:size] + upper[size:], lower[:size] + lower[size:]


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
    the construction matching (n, s, family), if any (`_constructive_starts`),
    and climbs from all of them in lockstep.  Each step screens eigenvalue
    `_column(n, s, family)` + 1 of the n(n-1)/2 flips of every running climb
    in one `_screen_flips` pass against each climb's current score, rescores
    each climb's leaders, the flips the screen does not prune, through
    `_pair_scores`, and takes each climb's best, the smallest flip index
    among equal scores: the flip, and the score, that rescoring every flip
    would give.  A climb stops, and leaves the batch, when no flip improves
    its score by more than CLIMB_TIE_TOL, or when the screen prunes all its
    flips, which proves that none can.  The returned value is the witness
    re-scored by `objective` after its graph6 round trip (`_record`), hence
    a certified lower bound on the true extremal value.
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
        owner, flip = np.nonzero(~_screen_flips(a[live], col + 1, iu, ju, score[live]))

        def leaders(lo, hi):
            return _flipped_stack(a[live[owner[lo:hi]]], iu[flip[lo:hi]], ju[flip[lo:hi]])

        rescored = _pair_scores(flip.size, n, leaders, col)
        evaluations += m * live.size
        climbing = []
        # each climb's leaders, its unpruned flips, are contiguous; a climb with none stops
        ends = np.searchsorted(owner, np.arange(live.size + 1))
        for c, lo, hi in zip(live, ends[:-1], ends[1:]):
            if lo == hi:
                continue
            k = lo + np.argmax(rescored[lo:hi])  # ties resolve to the smallest flip index
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
