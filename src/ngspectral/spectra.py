"""Adjacency spectra as the eigensolver returns them: 1-D float64 arrays,
sorted descending, read 1-based as mu_1 >= ... >= mu_n through `mu` and
`mu_bottom`.  Also the spectra of blow-ups from their quotient and of
rank-one regular shifts."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ngspectral.eigensolver import complement_pair_eigenvalues, symmetric_eigenvalues
from ngspectral.graphs import Graph, Matrix01, check_sizes

DEFAULT_TOL = 1e-8


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
    """All adjacency eigenvalues of g, sorted descending; deterministic."""
    return symmetric_eigenvalues(g.adjacency_matrix())


def spectrum_pair(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of g and of its complement, in that order."""
    return complement_pair_eigenvalues(g.adjacency_matrix())


def regular_shift_spectrum(spec: np.ndarray, r: float, a: float, b: float) -> np.ndarray:
    """Spectrum of a*M + b*J for symmetric M with constant row-sums r.

    Requires mu_1 = r (the regular top eigenvalue); the result is
    {a*r + b*n} together with {a*mu_i : i >= 2}, re-sorted descending.
    """
    if len(spec) < 1:
        raise ValueError("spectrum must be nonempty")
    if abs(spec[0] - r) > DEFAULT_TOL:
        raise ValueError(
            f"top eigenvalue {spec[0]} does not match row-sum {r} within {DEFAULT_TOL}"
        )
    values = np.concatenate([[a * r + b * len(spec)], a * spec[1:]])
    return np.sort(values)[::-1]


def blowup_spectrum(base: Matrix01, sizes: Sequence[int]) -> np.ndarray:
    """Spectrum of graphs.blowup(base, sizes) from the r x r quotient, at any
    order: the parts are an equitable partition, so it is the eigenvalues of
    sqrt(T) B sqrt(T) - diag(B_ii) with T = diag(sizes), plus sizes[i] - 1
    copies of -B_ii for each part i."""
    sizes = check_sizes(base, sizes)
    root = np.sqrt(sizes)
    loops = np.diagonal(base.entries)
    quotient = symmetric_eigenvalues(base.entries * np.outer(root, root) - np.diag(loops))
    extra = np.repeat(np.where(loops == 1, -1.0, 0.0), np.subtract(sizes, 1))
    return np.sort(np.concatenate([quotient, extra]))[::-1]


def trace_checks(g: Graph, spec: np.ndarray) -> tuple[float, float]:
    """(sum of eigenvalues, sum of squares - 2e(G)); both near zero."""
    values = spec.tolist()
    total = math.fsum(values)
    squares = math.fsum(v * v for v in values)
    return total, squares - 2.0 * g.edge_count


def interlacing_margins(g_spec: np.ndarray, h_spec: np.ndarray) -> np.ndarray:
    """Cauchy interlacing slack mu_{m-i}(H) - mu_{n-i}(G) for i = 0..m-1.

    All entries are nonnegative (up to tolerance) when H is an induced
    subgraph of G.
    """
    n, m = len(g_spec), len(h_spec)
    if m > n:
        raise ValueError("subgraph order exceeds host order")
    return (h_spec - g_spec[n - m:])[::-1]
