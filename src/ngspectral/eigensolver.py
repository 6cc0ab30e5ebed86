"""Dense symmetric eigenvalues through LAPACK (numpy.linalg.eigvalsh, eigh).

This is the toolkit's one eigen path, and the only module that calls
numpy.linalg.  Single matrices, stacks of matrices and graph/complement
pairs all end in `batched_symmetric_eigenvalues`; its descending float64
arrays are the toolkit's spectra, read 1-based by `spectra.mu`.  Local
search also needs eigenvectors: `complement_pair_eigh` returns the
eigenpairs of one graph and of its complement from one eigh call.  On
integer adjacency matrices the error per eigenvalue is a small multiple of
machine epsilon times the spectral radius.

Determinism: the same input gives byte-identical output across runs on the
same machine with the same BLAS thread count.  A different thread count can
change the last bits from order about 300 up.
"""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending."""
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    return batched_symmetric_eigenvalues(a)


def batched_symmetric_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric matrices, descending on the last axis."""
    return np.linalg.eigvalsh(stack)[..., ::-1]


def _complement(a: np.ndarray) -> np.ndarray:
    """1 - A with a zero diagonal, on the last two axes."""
    comp = 1.0 - a
    idx = np.arange(a.shape[-1])
    comp[..., idx, idx] = 0.0
    return comp


def complement_pair_eigenvalues(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of adjacency matrices (..., n, n) and of their complements.

    The complement matrix is 1 - A with a zero diagonal.  Both results are
    descending on the last axis.
    """
    a = np.asarray(stack, dtype=np.float64)
    return batched_symmetric_eigenvalues(a), batched_symmetric_eigenvalues(_complement(a))


def complement_pair_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of one adjacency matrix A (n, n) and of its complement.

    Returns eigenvalues (2, n), row 0 for A and row 1 for the complement,
    each descending, and eigenvectors (2, n, n) whose column k belongs to
    eigenvalue k of the same row.  Both come from one eigh call.
    """
    a = np.asarray(matrix, dtype=np.float64)
    w, v = np.linalg.eigh(np.stack([a, _complement(a)]))
    return w[:, ::-1], v[:, :, ::-1]
