"""Adjacency spectra as the eigensolver returns them: 1-D float64 arrays,
sorted descending, read 1-based as mu_1 >= ... >= mu_n through `mu` and
`mu_bottom`.  Also the spectra of blow-ups from their quotient, and the
interlacing slack between a graph and an induced subgraph."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# symmetric_eigenvalues is unused here, but bench/test_bench.py reads it as
# ngspectral.spectra.symmetric_eigenvalues, an alias its tracer must rebind
from ngspectral.eigensolver import (
    batched_symmetric_eigenvalues, complement_pair_eigenvalues_in_place, symmetric_eigenvalues,
)
from ngspectral.graphs import Graph, Matrix01, check_sizes

DEFAULT_TOL = 1e-8


def check_tol(tol: float) -> float:
    """tol itself, when it is positive and finite; ValueError otherwise."""
    if not 0.0 < tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def mu(spec: np.ndarray, i: int) -> float:
    """i-th largest eigenvalue, 1-based."""
    if not 1 <= i <= len(spec):
        raise ValueError(f"eigenvalue index {i} out of range 1..{len(spec)}")
    return float(spec[i - 1])


def mu_bottom(spec: np.ndarray, s: int) -> float:
    """s-th smallest eigenvalue: mu_bottom(spec, s) = mu(spec, n-s+1)."""
    if not 1 <= s <= len(spec):
        raise ValueError(f"bottom index {s} out of range 1..{len(spec)}")
    return mu(spec, len(spec) - s + 1)


def adjacency_spectrum(g: Graph) -> np.ndarray:
    """All adjacency eigenvalues of g, sorted descending; deterministic.
    A Graph's matrix is symmetric by construction, so it skips the checks of
    `symmetric_eigenvalues`."""
    return batched_symmetric_eigenvalues(g.adjacency_matrix())


def spectrum_pair(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of g and of its complement, in that order, from
    `complement_pair_eigenvalues_in_place` on g's fresh adjacency matrix,
    which it hands over and does not read again: the one n x n matrix is
    solved, turned into the complement's in place and solved again, or,
    above order 500 with BLAS pinned to one thread, holds the complement in
    its strict lower triangle while both are solved on two threads."""
    return complement_pair_eigenvalues_in_place(g.adjacency_matrix())


def blowup_spectrum(base: Matrix01, sizes: Sequence[int]) -> np.ndarray:
    """Spectrum of graphs.blowup(base, sizes) from the r x r quotient, at any
    order: the parts are an equitable partition, so it is the eigenvalues of
    sqrt(T) B sqrt(T) - diag(B_ii) with T = diag(sizes), plus sizes[i] - 1
    copies of -B_ii for each part i.  The quotient is symmetric by
    construction, so it skips the checks of `symmetric_eigenvalues`."""
    sizes = check_sizes(base, sizes)
    root = np.sqrt(sizes)
    loops = np.diagonal(base.entries)
    quotient = batched_symmetric_eigenvalues(base.entries * np.outer(root, root) - np.diag(loops))
    extra = np.repeat(np.where(loops == 1, -1.0, 0.0), np.subtract(sizes, 1))
    return np.sort(np.concatenate([quotient, extra]))[::-1]


def interlacing_margins(g_spec: np.ndarray, h_spec: np.ndarray) -> np.ndarray:
    """Cauchy interlacing slack mu_{m-i}(H) - mu_{n-i}(G) for i = 0..m-1.

    All entries are nonnegative (up to tolerance) when H is an induced
    subgraph of G.
    """
    n, m = len(g_spec), len(h_spec)
    if m > n:
        raise ValueError("subgraph order exceeds host order")
    return (h_spec - g_spec[n - m:])[::-1]
