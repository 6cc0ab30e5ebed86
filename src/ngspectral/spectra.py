"""Adjacency spectra with 1-based indexing mu_1 >= ... >= mu_n, plus the
spectra of blow-ups from their quotient and of rank-one regular shifts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ngspectral.eigensolver import complement_pair_eigenvalues, symmetric_eigenvalues
from ngspectral.graphs import Graph, Matrix01, check_sizes

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset of a symmetric matrix, sorted descending."""

    values: tuple[float, ...]
    n: int
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} eigenvalues, got {len(self.values)}")
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("spectrum values must be sorted non-increasing")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def mu(spec: Spectrum, i: int) -> float:
    """i-th largest eigenvalue, 1-based."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"eigenvalue index {i} out of range 1..{spec.n}")
    return spec.values[i - 1]


def mu_bottom(spec: Spectrum, s: int) -> float:
    """s-th smallest eigenvalue: mu_bottom(spec, s) = mu(spec, n-s+1)."""
    if not 1 <= s <= spec.n:
        raise ValueError(f"bottom index {s} out of range 1..{spec.n}")
    return mu(spec, spec.n - s + 1)


def _spectrum(w: np.ndarray, tol: float) -> Spectrum:
    return Spectrum(tuple(float(x) for x in w), int(w.shape[0]), tol)


def symmetric_spectrum(matrix, tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of an arbitrary real symmetric matrix."""
    return _spectrum(symmetric_eigenvalues(matrix), tol)


def adjacency_spectrum(g: Graph, tol: float = DEFAULT_TOL) -> Spectrum:
    """All adjacency eigenvalues of g, sorted descending; deterministic."""
    return symmetric_spectrum(g.adjacency_matrix(), tol)


def spectrum_pair(g: Graph, tol: float = DEFAULT_TOL) -> tuple[Spectrum, Spectrum]:
    """Spectra of g and of its complement, in that order."""
    wg, wc = complement_pair_eigenvalues(g.adjacency_matrix())
    return _spectrum(wg, tol), _spectrum(wc, tol)


def regular_shift_spectrum(spec: Spectrum, r: float, a: float, b: float) -> Spectrum:
    """Spectrum of a*M + b*J for symmetric M with constant row-sums r.

    Requires mu_1 = r (the regular top eigenvalue); the result is
    {a*r + b*n} together with {a*mu_i : i >= 2}, re-sorted descending.
    """
    if spec.n < 1:
        raise ValueError("spectrum must be nonempty")
    if abs(spec.values[0] - r) > spec.tol:
        raise ValueError(
            f"top eigenvalue {spec.values[0]} does not match row-sum {r} within {spec.tol}"
        )
    values = [a * r + b * spec.n] + [a * v for v in spec.values[1:]]
    values.sort(reverse=True)
    return Spectrum(tuple(values), spec.n, spec.tol)


def blowup_spectrum(base: Matrix01, sizes: Sequence[int], tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of graphs.blowup(base, sizes) from the r x r quotient, at any
    order: the parts are an equitable partition, so it is the eigenvalues of
    sqrt(T) B sqrt(T) - diag(B_ii) with T = diag(sizes), plus sizes[i] - 1
    copies of -B_ii for each part i."""
    sizes = check_sizes(base, sizes)
    root = np.sqrt(sizes)
    loops = np.diagonal(base.entries)
    quotient = symmetric_eigenvalues(base.entries * np.outer(root, root) - np.diag(loops))
    extra = np.repeat(np.where(loops == 1, -1.0, 0.0), np.subtract(sizes, 1))
    return _spectrum(np.sort(np.concatenate([quotient, extra]))[::-1], tol)


def trace_checks(g: Graph, spec: Spectrum) -> tuple[float, float]:
    """(sum of eigenvalues, sum of squares - 2e(G)); both near zero."""
    total = math.fsum(spec.values)
    squares = math.fsum(v * v for v in spec.values)
    return total, squares - 2.0 * g.edge_count


def interlacing_margins(g_spec: Spectrum, h_spec: Spectrum) -> np.ndarray:
    """Cauchy interlacing slack mu_{m-i}(H) - mu_{n-i}(G) for i = 0..m-1.

    All entries are nonnegative (up to tolerance) when H is an induced
    subgraph of G.
    """
    n, m = g_spec.n, h_spec.n
    if m > n:
        raise ValueError("subgraph order exceeds host order")
    return np.array([mu(h_spec, m - i) - mu(g_spec, n - i) for i in range(m)])
