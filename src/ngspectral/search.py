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
labelled graph.  Results are fully deterministic: enumeration order is
fixed, local search is seed-driven, and value ties are broken by the
lexicographically smallest graph6 string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, check_order, erdos_renyi, pair_indices
from ngspectral.spectra import DEFAULT_TOL, mu, mu_bottom, spectrum_pair

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
