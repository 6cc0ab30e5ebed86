"""Reference hill climb that runs one climb at a time.

The program climbs from every start in lockstep: each step ranks the flips
of all running climbs in one `_first_order_mu` call and rescores, in one
`_pair_scores` call, those of the TOP_FLIPS best-ranked flips of each that
their brackets (`_flip_brackets`) leave in the running.  The tests use this
plain loop, which climbs from each start on its own with the same ranking
and rescores every top flip with the same kernel, as an oracle for it, so
the records must agree bit for bit.  `masked_first_order_mu` is the ranking
as first written, from a masked copy of every eigenvector; the ranking must
keep its bits.
"""

from __future__ import annotations

import numpy as np

from ngspectral.eigensolver import complement_pair_eigh
from ngspectral.graphs import Graph, check_order, erdos_renyi, smallest_graph6
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
from ngspectral.spectra import DEFAULT_TOL


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
    scores, masks = [], []
    for start in starts:
        a = start.adjacency_matrix()
        # a copy: _pair_scores overwrites the stack it solves, and a climbs on
        score = float(_pair_scores(1, n, lambda lo, hi: a[None].copy(), col)[0])
        evaluations += 1
        for _ in range(iterations if m else 0):
            lam, vec = complement_pair_eigh(a[None])
            rank = np.abs(_first_order_mu(a[None], lam, vec, col + 1, iu, ju)[0]).sum(0)
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
        scores.append(score)
        masks.append(Graph.from_adjacency(a).bits)

    scores = np.array(scores)
    tied = np.flatnonzero(scores >= scores.max() - CLIMB_TIE_TOL)
    return _record(
        n, s, family, smallest_graph6(n, [masks[c] for c in tied]), method="local_search",
        exact=False, evaluations=evaluations, seed=seed,
    )


def masked_first_order_mu(
    a: np.ndarray, lam: np.ndarray, vec: np.ndarray, t: int, iu: np.ndarray, ju: np.ndarray
) -> np.ndarray:
    """`_first_order_mu(a, lam, vec, t, iu, ju)` with Q_c as a copy of all n
    eigenvectors, zero outside the run, in vec's layout (eigh's columns
    reversed)."""
    mu = lam[..., t - 1 : t]
    run = np.abs(lam - mu) <= DEFAULT_TOL
    q = (vec[..., ::-1] * run[..., None, ::-1])[..., ::-1]
    proj = q @ q.swapaxes(-1, -2)
    norm = np.sqrt(np.diagonal(proj, axis1=-2, axis2=-1))
    d = 1.0 - 2.0 * a[:, iu, ju]
    uv = np.stack([d, -d], axis=1) * proj[..., iu, ju]
    root = norm[..., iu] * norm[..., ju]
    place = t - 1 - np.argmax(run, axis=-1)
    first, last = (place == 0)[..., None], (place == run.sum(-1) - 1)[..., None]
    return mu + first * (uv + root) + last * (uv - root)
