"""Reference hill climb that runs one climb at a time.

The program climbs from every start in lockstep: each step ranks the flips
of all running climbs in one `_first_order_mu` call and rescores the
TOP_FLIPS best-ranked flips of each in one `_pair_scores` call.  The tests
use this plain loop, which climbs from each start on its own with the same
ranking and the same kernel, as an oracle for it, so the records must agree
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ngspectral.graphs import Graph, check_order, erdos_renyi
from ngspectral.search import (
    CLIMB_TIE_TOL,
    TOP_FLIPS,
    ExtremalRecord,
    _column,
    _constructive_starts,
    _first_order_mu,
    _flipped_stack,
    _pair_scores,
    _record,
)


def local_oracle(
    n: int, s: int, family: str, seed: int, iterations: int = 50, restarts: int = 3
) -> ExtremalRecord:
    """The record `local_search_f(n, s, family, seed, ...)` must return."""
    col = _column(n, s, family)
    check_order(n)
    if iterations < 1 or restarts < 1:
        raise ValueError("iterations and restarts must be at least 1")

    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    starts = [erdos_renyi(n, 0.5, seed + r) for r in range(restarts)]
    starts.extend(_constructive_starts(n, s, family))

    evaluations = 0
    best_score = -math.inf
    best_masks: list[int] = []
    for start in starts:
        a = start.adjacency_matrix()
        score = float(_pair_scores(1, n, lambda lo, hi: a[None], col)[0])
        evaluations += 1
        for _ in range(iterations if m else 0):
            rank = np.abs(_first_order_mu(a[None], col + 1, iu, ju)[0]).sum(0)
            top = np.array(sorted(sorted(range(m), key=lambda f: (-rank[f], f))[:TOP_FLIPS]))
            flipped = _flipped_stack(a, iu[top], ju[top])
            flips = _pair_scores(top.size, n, lambda lo, hi: flipped[lo:hi], col)
            evaluations += m
            k = int(np.argmax(flips))  # top ascends: ties resolve to the smallest flip index
            if flips[k] <= score + CLIMB_TIE_TOL:
                break
            score = float(flips[k])
            i, j = iu[top[k]], ju[top[k]]
            a[i, j] = a[j, i] = 1.0 - a[i, j]
        bits = Graph.from_adjacency(a).bits
        if score > best_score + CLIMB_TIE_TOL:
            best_score = score
            best_masks = [bits]
        elif score > best_score - CLIMB_TIE_TOL:
            best_masks.append(bits)

    return _record(
        n, s, family, best_masks, method="local_search", exact=False, evaluations=evaluations, seed=seed
    )
