"""Reference exhaustive search over every labelled graph.

The program scores one graph per isomorphism class; the tests use this
enumeration of all 2^(m-1) labelled complement pairs as an oracle for it.
It scores every bitmask below the top pair bit, which holds exactly one of
each {G, comp} pair, in shards of `shard_size` masks, through the same
`_pair_scores` as the program, so the two values must agree bit for bit.
That fold is now the program's fold too: `exhaustive_f` scores one class
per complement pair and relabels into min(x, full ^ x), which is the mask
below the top pair bit, relying as this oracle does on a graph and its
complement scoring the same bits.  The witness is the smallest graph6
string, compared as strings.
"""

from __future__ import annotations

import numpy as np

from ngspectral.graph6 import emit_graph6
from ngspectral.graphs import Graph, complement, masks_to_stack
from ngspectral.search import ExtremalRecord, _column, _pair_scores
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
    m = n * (n - 1) // 2
    col = _column(n, s, family)
    total = 1 if m == 0 else 1 << (m - 1)

    def run_shard(lo: int, hi: int) -> tuple[float, list[int]]:
        masks = np.arange(lo, hi, dtype=np.int64)
        scores = _pair_scores(masks.size, n, lambda b, e: masks_to_stack(masks[b:e], n), col)
        best = float(scores.max())
        keep = np.nonzero(scores >= best - tol)[0]
        return best, [int(masks[i]) for i in keep]

    results = [run_shard(lo, min(lo + shard_size, total)) for lo in range(0, total, shard_size)]
    value = max(best for best, _ in results)
    pool = [mask for best, masks in results if best >= value - tol for mask in masks]
    # shard-local keeps are relative to the shard maximum; re-score against the
    # global one before tie-breaking
    pool_masks = np.array(pool, dtype=np.int64)
    scores = _pair_scores(pool_masks.size, n, lambda b, e: masks_to_stack(pool_masks[b:e], n), col)
    final = [Graph(n, mask) for mask, score in zip(pool, scores) if score >= value - tol]
    return ExtremalRecord(
        n=n,
        s=s,
        family=family,
        value=value,
        witness=min(emit_graph6(h) for g in final for h in (g, complement(g))),
        method="exhaustive",
        exact=True,
        evaluations=total,
        seed=None,
    )
