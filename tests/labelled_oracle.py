"""Reference exhaustive search over every labelled graph.

The program scores one graph per isomorphism class; the tests use this
enumeration of all 2^(m-1) labelled complement pairs as an oracle for it.
It scores every bitmask below the top pair bit, which holds exactly one of
each {G, comp} pair, in shards of `shard_size` masks, through the same
`_pair_scores` as the program, relying as the program does on a graph and
its complement scoring the same bits.  One pass scores every eigenvalue
index, so it gives the records of every (s, family) of its order at once.
The witness is the smallest graph6 string, compared as strings, among the
graphs within tol of the best score, and the value is the witness scored by
`objective`, so the two records must agree bit for bit.  That value must
lie within tol below the best score over every labelled graph.
"""

from __future__ import annotations

import functools

import numpy as np

from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import Graph, complement, masks_to_stack
from ngspectral.search import FAMILIES, ExtremalRecord, _column, _lowest_s, _pair_scores, objective
from ngspectral.spectra import DEFAULT_TOL

DEFAULT_SHARD_SIZE = 1 << 16


def labelled_exhaustive_f(
    n: int,
    s: int,
    family: str,
    *,
    tol: float = DEFAULT_TOL,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> ExtremalRecord:
    """The record `exhaustive_f(n, s, family)` must return, by brute force."""
    _column(n, s, family)  # reject what exhaustive_f rejects
    return labelled_records(n, tol, shard_size)[s, family]


@functools.cache
def labelled_records(
    n: int, tol: float = DEFAULT_TOL, shard_size: int = DEFAULT_SHARD_SIZE
) -> dict[tuple[int, str], ExtremalRecord]:
    """The records of every (s, family) at order n from one enumeration:
    each shard is scored for every eigenvalue index at once (`_pair_scores`
    with no column), and each column keeps its own best and near-best masks."""
    m = n * (n - 1) // 2
    total = 1 if m == 0 else 1 << (m - 1)
    shards = []  # per shard: per column (shard best, masks kept, their scores)
    for lo in range(0, total, shard_size):
        masks = np.arange(lo, min(lo + shard_size, total), dtype=np.int64)
        scores = _pair_scores(masks.size, n, lambda b, e: masks_to_stack(masks[b:e], n))
        best = scores.max(axis=0)
        keep = [np.nonzero(scores[:, c] >= best[c] - tol)[0] for c in range(n)]
        shards.append([(best[c], masks[k], scores[k, c]) for c, k in enumerate(keep)])
    witnesses = {}
    for c in range(n):
        best = max(float(shard[c][0]) for shard in shards)
        # shard-local keeps are relative to the shard maximum; filter them
        # against the global one before tie-breaking
        final = [Graph(n, int(mask)) for shard in shards
                 for mask, score in zip(*shard[c][1:]) if score >= best - tol]
        witnesses[c] = best, min(emit_graph6(h) for g in final for h in (g, complement(g)))
    records = {}
    for family in FAMILIES:
        for s in range(_lowest_s(family), n + 1):
            best, witness = witnesses[_column(n, s, family)]
            value = objective(parse_graph6(witness), s, family)
            assert best - tol <= value <= best, (n, s, family, value, best)
            records[s, family] = ExtremalRecord(
                n=n, s=s, family=family, value=value, witness=witness, method="exhaustive",
                exact=True, evaluations=total, seed=None,
            )
    return records
