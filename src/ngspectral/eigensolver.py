"""Dense symmetric eigenvalues through LAPACK (numpy.linalg.eigvalsh).

This is the toolkit's one eigen path: single matrices, stacks of matrices and
graph/complement pairs all end in `batched_symmetric_eigenvalues`.  On
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


def complement_pair_eigenvalues(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of adjacency matrices (..., n, n) and of their complements.

    The complement matrix is 1 - A with a zero diagonal.  Both results are
    descending on the last axis.
    """
    a = np.asarray(stack, dtype=np.float64)
    comp = 1.0 - a
    idx = np.arange(a.shape[-1])
    comp[..., idx, idx] = 0.0
    return batched_symmetric_eigenvalues(a), batched_symmetric_eigenvalues(comp)
