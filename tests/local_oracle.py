"""Reference hill climb that rescores every flip through eigvalsh.

The program screens the flips of each step from one eigendecomposition and
rescores only the leaders; the tests use this climb, which builds and solves
all n(n-1)/2 flipped matrices at every step, as an oracle for it.  Both
score through the same `_score_stack`, so the records must agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ngspectral.graph6 import parse_graph6
from ngspectral.graphs import Graph, check_order, erdos_renyi
from ngspectral.search import (
    CLIMB_TIE_TOL,
    ExtremalRecord,
    _constructive_starts,
    _lex_min_witness,
    _score_stack,
    _validate_family,
    _validate_s,
    objective,
)


def local_oracle(
    n: int,
    s: int,
    family: str,
    seed: int,
    iterations: int = 50,
    restarts: int = 3,
    *,
    flip_chunk: int = 512,
) -> ExtremalRecord:
    """The record `local_search_f(n, s, family, seed, ...)` must return."""
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
