"""Extremal-function search: exact values by exhaustive enumeration for small
orders and certified lower bounds by seeded hill climbing for larger ones.

The objective for the top family at index s is |mu_s(G)| + |mu_s(comp)|; the
bottom family at index s uses mu_{n-s+1} instead.  Both depend only on the
spectra, so they are invariant under relabelling and under swapping G with
its complement.  The exhaustive pass therefore scores one graph per
isomorphism class: it builds the classes of order n-1 level by level (extend
every class by a new vertex with every neighbour set, dedupe by a canonical
form from colour refinement and the permutations within its cells) and
scores every one-vertex extension of them, which covers every class of
order n.  Rounding differs between labellings of one graph, so the classes
within tol of the best score are expanded into all their labellings and
rescored: the value and the witness are those of the search over every
labelled graph.

The hill climb takes, at every step, the single-edge flip with the best
score.  A flip is a rank-2 update of the adjacency matrix, so one
eigendecomposition of the graph and of its complement gives the flipped
eigenvalue of every flip through a 2x2 inertia count (`_screen_flips`).
That screen only ranks the flips: the flips within SCREEN_SLACK of its best
are rebuilt and rescored through eigvalsh, and those scores pick the flip
and stop the climb, so the climb visits the graphs, and reports the scores,
of rescoring every flip through eigvalsh.  Results are fully
deterministic: enumeration order is fixed, local search is seed-driven, and
value ties are broken by the lexicographically smallest graph6 string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues, complement_pair_eigh
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, check_order, erdos_renyi, pair_indices
from ngspectral.spectra import DEFAULT_TOL

FAMILIES = ("top", "bottom")

EXHAUSTIVE_DEFAULT_CAP = 7
EXHAUSTIVE_HARD_CAP = 8
# exhaustive search: matrices per eigvalsh batch, and per relabelling block
SCORE_CHUNK = 1 << 14
# two labellings of one graph score the same up to rounding far below this,
# so candidates this close to the tie band can still hold a maximizer
RELABEL_SLACK = 1e-12
# local search: scores closer than this are ties, and a flip must beat the
# current score by more than this to count as an improvement
CLIMB_TIE_TOL = 1e-12
# local search: flips per screening block and per rescoring batch
FLIP_CHUNK = 512
# flips screened within this of the best screened score are rescored; it
# exceeds twice the screen's error, so the best flip is always among them
SCREEN_SLACK = 1e-8
# the screen closes each eigenvalue's bracket to 2 * SCREEN_TOL; after
# SCREEN_NEWTON_STEPS steps it only halves brackets, so every bracket closes
SCREEN_TOL = 1e-10
SCREEN_NEWTON_STEPS = 40
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


def _masks_to_stack(masks: np.ndarray, n: int, dtype=np.float64) -> np.ndarray:
    i, j = pair_indices(n)
    stack = np.zeros((masks.shape[0], n, n), dtype=dtype)
    bits = (masks[:, None] >> np.arange(i.size)) & 1
    stack[:, i, j] = bits
    stack[:, j, i] = bits
    return stack


def _score_masks(masks: np.ndarray, n: int, s: int, family: str) -> np.ndarray:
    """Objective for each mask, solved SCORE_CHUNK matrices at a time."""
    return np.concatenate([
        _score_stack(_masks_to_stack(masks[lo : lo + SCORE_CHUNK], n), s, family)
        for lo in range(0, masks.size, SCORE_CHUNK)
    ])


def _extensions(reps: np.ndarray, k: int) -> np.ndarray:
    """Every order-k mask whose first k-1 vertices induce one of `reps`.

    The pairs of vertex k are the top k-1 bits of the pair order, so a new
    vertex joined to a neighbour set is that set shifted above the old mask.
    """
    shift = (k - 1) * (k - 2) // 2
    sets = np.arange(1 << (k - 1), dtype=np.int64) << shift
    return (reps[:, None] | sets[None, :]).ravel()


def _relabel(adj: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Masks of the graphs `adj` (G, k, k) relabelled by `seq` (G or 1, P, k).

    Vertex a of a relabelling is vertex seq[..., a] of the graph, so entry
    [g, p] is the mask of adj[g][seq[g, p]][:, seq[g, p]].
    """
    k = adj.shape[-1]
    i, j = pair_indices(k)
    g = np.arange(adj.shape[0])[:, None, None]
    bits = adj[g, seq[..., i], seq[..., j]]
    return bits @ (np.int64(1) << np.arange(i.size, dtype=np.int64))


def _cell_permutations(layout: np.ndarray) -> np.ndarray:
    """Every permutation of positions that maps each run of equal values in
    the sorted `layout` onto itself, as rows."""
    cuts = [0, *(np.flatnonzero(np.diff(layout)) + 1).tolist(), layout.size]
    cells = [itertools.permutations(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    return np.array([sum(p, ()) for p in itertools.product(*cells)], dtype=np.int64)


def _refined_colours(adj: np.ndarray) -> np.ndarray:
    """Stable colour refinement of each graph in `adj` (B, k, k).

    A vertex's next colour is the number of vertices whose (colour,
    neighbour count per colour) key is smaller, so colours are canonical:
    relabelling a graph permutes its colours the same way.
    """
    k = adj.shape[-1]
    place = (k + 1) ** np.arange(k, -1, -1, dtype=np.int64)
    colour = np.zeros(adj.shape[:2], dtype=np.int64)
    for _ in range(k):
        counts = adj @ (colour[:, :, None] == np.arange(k)).astype(np.int64)
        key = np.concatenate([colour[:, :, None], counts], axis=2) @ place
        refined = (key[:, :, None] > key[:, None, :]).sum(axis=2)
        if np.array_equal(refined, colour):
            break
        colour = refined
    return colour


def _canonical_masks(masks: np.ndarray, k: int) -> np.ndarray:
    """Canonical form of each order-k mask: the smallest mask over the
    relabellings that list the refined colour cells in colour order.

    Two masks get the same canonical form exactly when their graphs are
    isomorphic, and the form is itself a labelling of the graph.
    """
    adj = _masks_to_stack(masks, k, dtype=np.int64)
    colour = _refined_colours(adj)
    order = np.argsort(colour, axis=1, kind="stable")
    layouts, group = np.unique(
        np.take_along_axis(colour, order, axis=1), axis=0, return_inverse=True
    )
    group = group.ravel()
    canon = np.empty(masks.size, dtype=np.int64)
    for g, layout in enumerate(layouts):
        members = np.flatnonzero(group == g)
        perms = _cell_permutations(layout)
        step = max(1, SCORE_CHUNK // perms.shape[0])
        for lo in range(0, members.size, step):
            idx = members[lo : lo + step]
            canon[idx] = _relabel(adj[idx], order[idx][:, perms]).min(axis=1)
    return canon


def isomorphism_classes(n: int) -> np.ndarray:
    """Canonical masks of the graphs of order n, one per isomorphism class,
    ascending.  Built level by level from the graph on no vertices."""
    reps = np.zeros(1, dtype=np.int64)
    for k in range(1, n + 1):
        reps = np.unique(_canonical_masks(_extensions(reps, k), k))
    return reps


def _labellings(classes: np.ndarray, n: int) -> np.ndarray:
    """Distinct masks of every labelling of the given order-n graphs."""
    perms = _cell_permutations(np.zeros(n, dtype=np.int64))[None]  # one cell: all n!
    adj = _masks_to_stack(classes, n, dtype=np.int64)
    blocks = [_relabel(adj[c : c + 1], perms).ravel() for c in range(classes.size)]
    return np.unique(np.concatenate(blocks))


def _lex_min_witness(n: int, masks: Sequence[int]) -> str:
    """Smallest graph6 string over the given masks and their complements.

    At a fixed order graph6 compares as the pair bits read from bit 0 up,
    which is the mask's m-bit binary string reversed.
    """
    m = n * (n - 1) // 2
    full = (1 << m) - 1
    best = min(
        (cand for mask in masks for cand in (mask, mask ^ full)),
        key=lambda mask: f"{mask:0{m}b}"[::-1],
    )
    return emit_graph6(Graph(n, best))


def exhaustive_f(
    n: int,
    s: int,
    family: str,
    *,
    tol: float = DEFAULT_TOL,
    allow_order_8: bool = False,
) -> ExtremalRecord:
    """Exact extremal value over all 2^(n(n-1)/2) labeled graphs.

    Capped at n <= 7 by default (n <= 8 with allow_order_8).  The witness is
    the lexicographically smallest graph6 string among all maximizers within
    tol, complements included.  `evaluations` counts the labelled graphs
    covered, one per complement pair.
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

    candidates = _extensions(isomorphism_classes(n - 1), n)
    scores = _score_masks(candidates, n, s, family)
    near = candidates[scores >= scores.max() - tol - RELABEL_SLACK]
    labelled = _labellings(np.unique(_canonical_masks(near, n)), n)
    scores = _score_masks(labelled, n, s, family)
    value = float(scores.max())
    witness = _lex_min_witness(n, labelled[scores >= value - tol].tolist())
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


def _near_clusters(lam: np.ndarray, t: int, rho: float) -> list[np.ndarray]:
    """Index runs of the descending spectrum `lam` that hold eigenvalue t-1,
    t or t+1 (1-based); a run joins neighbours closer than 2 rho.

    Only these poles can come near a point of the bracket of eigenvalue t.
    """
    cluster = np.concatenate([[0], np.cumsum(-np.diff(lam) > 2.0 * rho)])
    ids = sorted(set(cluster[max(t - 2, 0) : t + 1].tolist()))
    return [np.flatnonzero(cluster == c) for c in ids]


def _gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entries |u|^2, u.v, |v|^2 and determinant of the Gram matrix of the
    rows of u and v (F, r), stacked on a new axis 1.

    The determinant goes through Gram-Schmidt, so it stays accurate when u
    and v are nearly parallel, and it is exactly 0 for r = 1.
    """
    uu, uv, vv = (u * u).sum(-1), (u * v).sum(-1), (v * v).sum(-1)
    det = np.zeros_like(uu)
    if u.shape[-1] > 1:
        beta = np.divide(uv, uu, out=np.zeros_like(uu), where=uu > 0)
        rest = v - beta[:, None] * u
        det = uu * (rest * rest).sum(-1)
    return np.stack([uu, uv, vv, det], axis=1)


def _secular(x, far, weights, nu, near, quad, delta):
    """The 2x2 matrix M(x) = [[a, b + d], [b + d, c]] of `_screen_flips` at
    the points x (K,), its derivative in x and its eigenvalues.

    Per problem: `far` (K, n) holds the poles away from the bracket (inf in
    place of the others) and `weights` (K, 3, n) their q_ik^2, q_ik q_jk,
    q_jk^2.  `nu` (K, 3) holds the runs of poles next to the bracket,
    `near` (K, 3, 3) the same three sums over each run, and `quad` (K, 3, 3)
    the terms of det M that pair two runs (off the diagonal) or a run with
    itself (its Gram determinant, on the diagonal).  Returns the gaps
    nu - x, the entries of M, their derivatives, and M's eigenvalues,
    smaller first.
    """
    gap = nu - x[:, None]
    alpha = 1.0 / gap
    inv = 1.0 / (far - x[:, None])
    fa, fb, fc = np.einsum("kcn,kn->ck", weights, inv)
    fb += delta
    na, nb, nc = np.einsum("kcj,kj->ck", near, alpha)
    deriv = np.einsum("kcn,kn->ck", weights, inv * inv) + np.einsum("kcj,kj->ck", near, alpha * alpha)
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


def _screen_flips(a: np.ndarray, s: int, family: str) -> np.ndarray:
    """Objective of every single-edge flip of the adjacency matrix `a`, in
    `np.triu_indices` order, from one eigendecomposition of `a` and of its
    complement.

    Flip (i, j) adds d = 1 - 2 a_ij at (i, j) and (j, i) of the graph and
    -d to its complement, so for each spectrum Q diag(lam) Q' it is the
    rank-2 update d(e_i e_j' + e_j e_i').  By Haynsworth inertia additivity
    the flipped matrix has #{lam_k > x} + neg(M) - 1 eigenvalues above x,
    where M = [[a, b + d], [b + d, c]] and a, b, c sum q_ik^2, q_ik q_jk and
    q_jk^2 against 1 / (lam_k - x) (`_secular`).  Eigenvalue t is found in
    its bracket (`_flip_bracket`) from that count (`_solve_flips`), starting
    at its first-order perturbation.  The runs of poles next to eigenvalue t
    (`_near_clusters`) enter det M by expansion, and the points keep a
    distance rho from them.  The error per score is below SCREEN_SLACK / 4:
    the screen ranks the flips, and `local_search_f` rescores the leaders.
    """
    n = a.shape[0]
    t = s if family == "top" else n - s + 1
    lam, vec = complement_pair_eigh(a)
    rho = POLE_GUARD * max(1.0, float(np.abs(lam).max()))
    low0, high0 = _flip_bracket(lam, t)

    # poles next to eigenvalue t: value, multiplicity and slot; the rest lie
    # outside every bracket and enter a, b, c one by one
    runs = [_near_clusters(row, t, rho) for row in lam]
    nu = np.full((2, 3), np.inf)
    mult = np.zeros((2, 3))
    far = lam.copy()
    for p, spectrum_runs in enumerate(runs):
        for slot, run in enumerate(spectrum_runs):
            nu[p, slot] = lam[p, run].mean()
            mult[p, slot] = run.size
            far[p, run] = np.inf
    above_near = np.array([spectrum_runs[0][0] for spectrum_runs in runs])

    iu, ju = np.triu_indices(n, 1)
    scores = np.empty(iu.size)
    for lo in range(0, iu.size, FLIP_CHUNK):
        i, j = iu[lo : lo + FLIP_CHUNK], ju[lo : lo + FLIP_CHUNK]
        size = i.size
        # problems: the flips of the graph, then those of the complement
        p = np.repeat([0, 1], size)
        qi, qj = vec[p, np.tile(i, 2)], vec[p, np.tile(j, 2)]
        weights = np.stack([qi * qi, qi * qj, qj * qj], axis=1)
        gram = np.zeros((2 * size, 4, 3))
        for spectrum, spectrum_runs in enumerate(runs):
            rows = slice(spectrum * size, (spectrum + 1) * size)
            for slot, run in enumerate(spectrum_runs):
                gram[rows, :, slot] = _gram(qi[rows][:, run], qj[rows][:, run])
                weights[rows, :, run] = 0.0
        ga, gb, gc, gdet = np.moveaxis(gram, 1, 0)
        # run pair (j, l) adds alpha_j alpha_l (a_j c_l + c_j a_l - 2 b_j b_l)
        quad = 0.5 * (ga[:, :, None] * gc[:, None, :] + gc[:, :, None] * ga[:, None, :])
        quad -= gb[:, :, None] * gb[:, None, :]
        quad[:, [0, 1, 2], [0, 1, 2]] = gdet
        d = 1.0 - 2.0 * a[i, j]
        delta = np.concatenate([d, -d])
        data = [far[p], weights, nu[p], gram[:, :3], quad, delta, mult[p], above_near[p]]
        # the first point is the first-order perturbation of eigenvalue t
        x = lam[p, t - 1] + 2.0 * delta * qi[:, t - 1] * qj[:, t - 1]
        mu = _solve_flips(x, low0[p], high0[p], data, t, rho)
        scores[lo : lo + size] = np.abs(mu[:size]) + np.abs(mu[size:])
    return scores


def _solve_flips(x, low, high, data, t, rho):
    """Eigenvalue t of each flipped matrix of `_screen_flips`, to within
    SCREEN_TOL, from the first points x in the brackets (low, high).

    Each step counts at x and so shrinks the bracket.  The next point is
    the Newton step on the eigenvalue of M whose sign decides the count, or
    the middle of the bracket where that step leaves the bracket or is not
    half the step before last.  A step shorter than SCREEN_TOL goes
    SCREEN_TOL further, so the count closes the bracket around the root.
    Problems leave the arrays as they converge.
    """
    result = np.empty(x.size)
    ids = np.arange(x.size)
    moves = [high - low] * 2  # step sizes one and two steps back
    x = np.where((x > low) & (x < high), x, 0.5 * (low + high))
    for k in itertools.count():
        far, weights, nu, near, quad, delta, mult, above_near = data
        done = high - low <= 2.0 * SCREEN_TOL
        # points near a pole move just below or above it, if that still
        # splits the bracket; otherwise the bracket is within rho of the pole
        hit = np.abs(nu - x[:, None]) < rho
        if hit.any():
            pole = np.where(hit, nu, 0.0).sum(-1)  # runs are 2 rho apart: one hit at most
            moved = hit.any(-1)
            use_below = pole - rho > low
            use_above = ~use_below & (pole + rho < high)
            x = np.where(moved, np.where(use_above, pole + rho, pole - rho), x)
            done |= moved & ~use_below & ~use_above
        if done.any():
            result[ids[done]] = 0.5 * (low[done] + high[done])
            keep = ~done
            ids, x, low, high = ids[keep], x[keep], low[keep], high[keep]
            moves = [w[keep] for w in moves]
            data = [arr[keep] for arr in data]
            if not ids.size:
                return result
            far, weights, nu, near, quad, delta, mult, above_near = data
        gap, (sa, sb, sc), (da, db, dc), lo, hi = _secular(x, far, weights, nu, near, quad, delta)
        # the count is #{lam_k > x} + neg(M) - 1, so count >= t needs
        # `need` negative eigenvalues of M
        need = t + 1 - above_near - (mult * (gap > 0)).sum(-1)
        up = (lo < 0).astype(np.int64) + (hi < 0) >= need
        low, high = np.where(up, x, low), np.where(up, high, x)
        # Newton step on the eigenvalue of M whose sign decides the count;
        # its slope is tr(adj(ev - M) M') / tr(adj(ev - M))
        ev = np.where(need == 1, lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):  # M = c I: no step, halve
            step = ev * (2.0 * ev - sa - sc) / ((sc - ev) * da - 2.0 * sb * db + (sa - ev) * dc)
        step += np.where(np.abs(step) < SCREEN_TOL, np.copysign(SCREEN_TOL, step), 0.0)
        newton = x + step
        use = (need >= 1) & (need <= 2) & (newton > low) & (newton < high)
        use &= (np.abs(step) <= 0.5 * moves[1]) & (k < SCREEN_NEWTON_STEPS)
        nxt = np.where(use, newton, 0.5 * (low + high))
        moves = [np.abs(nxt - x), moves[0]]
        x = nxt


def _flipped_stack(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Copies of `a`, copy k with the pair (i[k], j[k]) flipped."""
    stack = np.repeat(a[None, :, :], i.size, axis=0)
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
    any matching extremal construction.  Each step screens all n(n-1)/2
    flips (`_screen_flips`), rescores those within SCREEN_SLACK of the best
    screened score through `_score_stack`, and takes the best of them, the
    smallest flip index among equal scores.  That is the flip, and the
    score, that rescoring every flip would give.  The climb stops when no
    flip improves the score by more than CLIMB_TIE_TOL.  The returned value
    is the witness re-scored by `objective` after its graph6 round trip,
    hence a certified lower bound on the true extremal value.
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
        for _ in range(iterations if m else 0):  # one vertex: nothing to flip
            screened = _screen_flips(a, s, family)
            leaders = np.flatnonzero(screened >= screened.max() - SCREEN_SLACK)
            rescored = np.concatenate([
                _score_stack(_flipped_stack(a, iu[k], ju[k]), s, family)
                for k in np.split(leaders, np.arange(FLIP_CHUNK, leaders.size, FLIP_CHUNK))
            ])
            evaluations += m
            j = int(leaders[np.argmax(rescored)])  # ties resolve to the smallest flip index
            if rescored.max() <= score + CLIMB_TIE_TOL:
                break
            score = float(rescored.max())
            a[iu[j], ju[j]] = 1.0 - a[iu[j], ju[j]]
            a[ju[j], iu[j]] = a[iu[j], ju[j]]
        bits = Graph.from_adjacency(a).bits
        if score > best_score + CLIMB_TIE_TOL:
            best_score = score
            best_masks = [bits]
        elif score > best_score - CLIMB_TIE_TOL:
            best_masks.append(bits)

    witness = _lex_min_witness(n, best_masks)
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
            rec = local_search_f(n, s, family, seed, iterations, restarts)
        ratio = rec.value / n
        rows.append(RatioRow(n, rec.value, ratio, target, target - ratio, rec.method))
    return rows
