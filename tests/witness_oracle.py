"""The witness pass `exhaustive_f` ran before `graphs.smallest_labelling`,
kept as an oracle for it, with the relabelling kernel the package used
before its graph6 weight tables.

It canonicalizes the tie band (the extensions within tol of the best
score) to its classes, builds every labelling of them (`labellings`, one
`_relabel` call over the n! table, deduplicated) and ranks them and their
complements in graph6 order by their reversed pair bits in numpy
(`smallest_graph6_array`).  `_relabel` gathers the matrix entry of each
pair under each permutation, so it shares no arithmetic with the weight
tables of `graphs._label_weights`; `graph6_canonical_form` ranks its
relabellings within the refined colour cells by `emit_graph6`.  The
oracle shares with the program only the score table, the permutation
tables, the colour refinement, the canonical forms that reduce the band to
its classes (checked against `graph6_canonical_form`) and `objective`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import ngspectral.graphs
from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import (
    Graph, _cell_table, _refined_colours, canonical_masks, masks_to_stack, pair_indices,
)
from ngspectral.search import ExtremalRecord, _column, _extension_scores, objective


@functools.cache
def _permutations_within(cells: tuple[int, ...]) -> np.ndarray:
    """Each colour layout's permutation table, listed once per process and
    read-only."""
    table = _cell_table(cells)
    table.flags.writeable = False
    return table


def _relabel(adj: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Masks (G, P) of the graphs `adj` (G, k, k) relabelled by each row of
    `perms` (P, k): entry [g, p] is the mask of adj[g][perms[p]][:, perms[p]].
    Built in blocks of at most SCORE_ENTRIES pair bits (graphs x relabellings
    x pairs), which split `perms` when one graph's relabellings pass it."""
    k = adj.shape[-1]
    i, j = pair_indices(k)
    weights = np.int64(1) << np.arange(i.size, dtype=np.int64)
    block = max(1, ngspectral.graphs.SCORE_ENTRIES // max(1, i.size))  # graphs x relabellings
    flat, graphs = adj.reshape(adj.shape[0], k * k), max(1, block // perms.shape[0])
    out = np.empty((adj.shape[0], perms.shape[0]), dtype=np.int64)
    for p in range(0, perms.shape[0], block):
        entry = perms[p : p + block, i]  # the flat entry of each pair, relabelled
        entry *= k
        entry += perms[p : p + block, j]
        for g in range(0, adj.shape[0], graphs):
            out[g : g + graphs, p : p + block] = flat[g : g + graphs, entry] @ weights
    return out


def labellings(classes: np.ndarray, n: int) -> np.ndarray:
    """Distinct masks of every labelling of the given order-n graphs, from
    one `_relabel` call: only its (classes, n!) masks are built whole."""
    adj = masks_to_stack(classes, n, dtype=np.int64)
    return np.unique(_relabel(adj, _permutations_within((n,))))


def graph6_canonical_form(mask: int, n: int) -> int:
    """The mask of the smallest `emit_graph6` string over the `_relabel`
    relabellings of the order-n graph, put in refined-colour order, by the
    permutations within its colour cells: the canonical form
    `canonical_masks` must give."""
    adj = masks_to_stack(np.array([mask], dtype=np.int64), n, dtype=np.int64)
    colour = _refined_colours(adj)[0]
    order = np.argsort(colour, kind="stable")
    cells = tuple(np.unique(colour, return_counts=True)[1].tolist())
    relabelled = np.unique(_relabel(adj[:, order][:, :, order], _permutations_within(cells)))
    return min(relabelled.tolist(), key=lambda x: emit_graph6(Graph(n, x)))


def smallest_graph6_array(n: int, masks: np.ndarray) -> str:
    """Smallest graph6 string over the order-n int64 masks and their
    complements, ranked by the reversed masks: at a fixed order graph6
    compares as the pair bits read from bit 0 up."""
    m = n * (n - 1) // 2
    if m > 62:
        raise ValueError(f"int64 masks hold at most 62 pairs, order {n} has {m}")
    full = (1 << m) - 1
    rev = np.zeros_like(masks)  # the reversed bits; the complement's are full ^ rev
    for b in range(m):
        rev |= (masks >> b & 1) << (m - 1 - b)
    k = int(np.argmin(np.minimum(rev, rev ^ full)))
    best = int(masks[k]) if rev[k] <= rev[k] ^ full else int(masks[k]) ^ full
    return emit_graph6(Graph(n, best))


def canonical_exhaustive_f(n: int, s: int, family: str, tol: float) -> ExtremalRecord:
    """The record `exhaustive_f(n, s, family, tol=tol)` must return, with the
    witness taken from every labelling of the tie band's classes."""
    candidates, table = _extension_scores(n)
    scores = table[:, _column(n, s, family)]
    classes = np.unique(canonical_masks(candidates[scores >= scores.max() - tol], n))
    witness = smallest_graph6_array(n, labellings(classes, n))
    value = objective(parse_graph6(witness), s, family)
    total = 1 if n < 2 else 1 << (math.comb(n, 2) - 1)
    return ExtremalRecord(n, s, family, value, witness, "exhaustive", True, total)
