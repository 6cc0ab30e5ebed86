"""Reference spectra of graph/complement pairs, built without `eigensolver`.

The program solves a pair through one function,
`eigensolver.complement_pair_eigenvalues_in_place`, which overwrites its
stack with the complements between the two solves.  The tests compare it
and everything that reads it against this plain form: the complement
1 - A with a zero diagonal, built here as a new array, and
`np.linalg.eigvalsh` on each stack, reversed to descending order.  Both
hand LAPACK the same float64 values, so the bits must agree.
"""

from __future__ import annotations

import numpy as np


def pair_eigenvalues(stack) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of adjacency matrices (..., n, n) and of their
    complements; `stack` is left as it is."""
    a = np.asarray(stack, dtype=np.float64)
    comp = 1.0 - a
    idx = np.arange(a.shape[-1])
    comp[..., idx, idx] = 0.0
    return np.linalg.eigvalsh(a)[..., ::-1], np.linalg.eigvalsh(comp)[..., ::-1]
