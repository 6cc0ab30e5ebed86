"""Dense symmetric eigenvalues through LAPACK (numpy.linalg.eigvalsh, eigh).

This is the toolkit's one eigen path, and the only module that calls
numpy.linalg.  Single matrices, stacks of matrices and graph/complement
pairs all end in `batched_symmetric_eigenvalues`; its descending float64
arrays are the toolkit's spectra, read 1-based by `spectra.mu`.  The
spectra of graph/complement pairs come from one function,
`complement_pair_eigenvalues_in_place`: it solves a float64 stack its
caller hands over, overwrites that stack with the complements and solves
it again, so a pair holds one array, not two; a caller that reads its stack
again hands over a copy.  Local search also needs eigenvectors:
`complement_pair_eigh` returns the eigenpairs of a stack of graphs and of
their complements from one eigh call.  On integer adjacency matrices the
error per eigenvalue is a small multiple of machine epsilon times the
spectral radius.

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


def _complement(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 - A with a zero diagonal, on the last two axes, written to `out`
    when given (which may be `a` itself)."""
    comp = np.subtract(1.0, a, out=out)
    idx = np.arange(a.shape[-1])
    comp[..., idx, idx] = 0.0
    return comp


def complement_pair_eigenvalues_in_place(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of adjacency matrices (..., n, n) and of their complements,
    both descending on the last axis, overwriting a float64 `stack` with the
    complements.

    The complement matrix is 1 - A with a zero diagonal.  The stack is
    solved, turned into its complements in place and solved again, so no
    second stack is built; any other dtype is solved on a float64 copy.
    """
    a = np.asarray(stack, dtype=np.float64)
    return batched_symmetric_eigenvalues(a), batched_symmetric_eigenvalues(_complement(a, out=a))


def complement_pair_eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of adjacency matrices A (..., n, n) and of their complements.

    Returns eigenvalues (..., 2, n), row 0 for A and row 1 for the
    complement, each descending, and eigenvectors (..., 2, n, n) whose column
    k belongs to eigenvalue k of the same row.  All come from one eigh call.
    """
    a = np.asarray(stack, dtype=np.float64)
    w, v = np.linalg.eigh(np.stack([a, _complement(a)], axis=-3))
    return w[..., ::-1], v[..., ::-1]
