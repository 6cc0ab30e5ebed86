"""Dense symmetric eigenvalues through LAPACK (numpy.linalg.eigvalsh, eigh).

This is the toolkit's one eigen path, and the only module that calls
numpy.linalg.  Single matrices, stacks of matrices and graph/complement
pairs all end in `batched_symmetric_eigenvalues`; its descending float64
arrays are the toolkit's spectra, read 1-based by `spectra.mu`.  The
spectra of graph/complement pairs come from one function,
`complement_pair_eigenvalues_in_place`.  Its caller hands a float64 array
over and does not read it again, so a pair holds one array, not two:
- a stack, or a matrix of order at most `TWO_THREAD_ORDER`, is solved,
  overwritten with its complements and solved again;
- a matrix above that order, with BLAS pinned to one thread, gets the
  complement in its strict lower triangle, and the graph (from the
  transpose) and the complement are solved on two threads.
LAPACK reads only the lower triangle, so both ways give the same bits.
Local search also needs eigenvectors: `complement_pair_eigh` returns the
eigenpairs of a stack of graphs and of their complements from one eigh
call.  On integer adjacency matrices the error per eigenvalue is a small
multiple of machine epsilon times the spectral radius.

Determinism: the same input gives byte-identical output across runs on the
same machine with the same BLAS thread count.  A different thread count can
change the last bits from order about 300 up.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# numpy holds the interpreter lock through eigvalsh on one matrix of order up
# to 500, so only larger matrices gain from a second thread: 1.8x at 501,
# 512 and 1024 with one BLAS thread (numpy 2.4, OpenBLAS 0.3.31, 2 cores)
TWO_THREAD_ORDER = 500

# OpenBLAS reads its thread count when numpy loads it, from
# OPENBLAS_NUM_THREADS or else OMP_NUM_THREADS.  Two concurrent solves that
# each start BLAS threads ran 0.7-0.9x as fast as one after the other
# (orders 512-2048, 2 cores), so the pair takes two threads only when BLAS
# has one.
_ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"


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
    """Spectra of adjacency matrices (..., n, n), whose diagonals are zero,
    and of their complements, both descending on the last axis, reusing a
    float64 `stack` that the caller does not read again; any other dtype is
    solved on a float64 copy.

    The complement matrix is 1 - A with a zero diagonal.  A stack, or a
    matrix of order at most `TWO_THREAD_ORDER`, is solved, overwritten with
    its complements and solved again.  A larger matrix, with BLAS pinned to
    one thread, is left holding the complement in its strict lower triangle
    and the graph in its upper one, and `_solve_on_two_threads` solves both.
    No second n x n array is built here either way, but the two threads hold
    LAPACK's two working copies at once.
    """
    a = np.asarray(stack, dtype=np.float64)
    if a.ndim == 2 and a.shape[0] > TWO_THREAD_ORDER and _ONE_BLAS_THREAD:
        np.subtract(1.0, a, out=a, where=np.tri(a.shape[0], k=-1, dtype=bool))
        return _solve_on_two_threads(a.T, a)
    return batched_symmetric_eigenvalues(a), batched_symmetric_eigenvalues(_complement(a, out=a))


def _solve_on_two_threads(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectra of two symmetric matrices, the second solved on a thread of
    its own, which is joined before this returns or raises; an exception the
    thread raises is raised here."""
    out: dict[str, object] = {}

    def solve_second() -> None:
        try:
            out["spectrum"] = batched_symmetric_eigenvalues(second)
        except BaseException as exc:  # handed to the caller, which raises it
            out["error"] = exc

    worker = threading.Thread(target=solve_second)
    worker.start()
    try:
        spectrum = batched_symmetric_eigenvalues(first)
    finally:
        worker.join()
    if "error" in out:
        raise out["error"]
    return spectrum, out["spectrum"]


def complement_pair_eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of adjacency matrices A (..., n, n) and of their complements.

    Returns eigenvalues (..., 2, n), row 0 for A and row 1 for the
    complement, each descending, and eigenvectors (..., 2, n, n) whose column
    k belongs to eigenvalue k of the same row.  All come from one eigh call.
    """
    a = np.asarray(stack, dtype=np.float64)
    w, v = np.linalg.eigh(np.stack([a, _complement(a)], axis=-3))
    return w[..., ::-1], v[..., ::-1]
