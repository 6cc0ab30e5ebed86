"""The witness pass `exhaustive_f` ran before `graphs.smallest_labelling`,
kept as an oracle for it.

It canonicalizes the tie band (the extensions within tol of the best
score) to its classes, builds every labelling of them (`labellings`, one
`_relabel` call over the n! table, deduplicated) and ranks them and their
complements in graph6 order by their reversed pair bits in numpy
(`smallest_graph6_array`).  The program ranks the band's relabellings by
matrix products and keeps no labelling, so the two share only the score
table, the n! table and `objective`.
"""

from __future__ import annotations

import math

import numpy as np

from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, _cell_table, _relabel, canonical_masks, masks_to_stack
from ngspectral.search import ExtremalRecord, _column, _extension_scores, objective


def labellings(classes: np.ndarray, n: int) -> np.ndarray:
    """Distinct masks of every labelling of the given order-n graphs, from
    one `_relabel` call: only its (classes, n!) masks are built whole."""
    return np.unique(_relabel(masks_to_stack(classes, n, dtype=np.int64), _cell_table((n,))))


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
