"""Independent reference eigensolver: Householder tridiagonalization followed
by implicit-shift QL, in plain Python and numpy (no LAPACK eigen routine).

The program computes every spectrum through LAPACK; the tests use this
solver as an oracle to cross-check that path.  It can fail to deflate on
highly degenerate spectra, and raises ConvergenceError when it does.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
ITERATION_CAP_FACTOR = 50


class ConvergenceError(RuntimeError):
    """QL iteration failed to deflate within the iteration cap."""


def ql_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted descending."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.array([a[0, 0]])
    d, e = _householder_tridiagonalize(a)
    w = _ql_implicit_shift(d, e, cap=ITERATION_CAP_FACTOR * n)
    return np.sort(w)[::-1]


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce symmetric a (overwritten) to tridiagonal form.

    Returns (d, e): diagonal and subdiagonal (length n-1, e[i] = T[i+1, i]).
    """
    n = a.shape[0]
    e = np.zeros(n)
    for i in range(n - 1, 1, -1):
        row = a[i, :i]
        if not np.any(row[: i - 1]):
            e[i] = row[i - 1]
            continue
        scale = float(np.sum(np.abs(row)))
        v = row / scale
        vnorm = math.sqrt(float(np.dot(v, v)))
        alpha = -math.copysign(vnorm, v[i - 1])
        e[i] = scale * alpha
        h = vnorm * vnorm - v[i - 1] * alpha  # half the squared Householder norm
        u = v.copy()
        u[i - 1] -= alpha
        block = a[:i, :i]
        p = block @ u / h
        kappa = float(np.dot(u, p)) / (2.0 * h)
        q = p - kappa * u
        block -= np.outer(q, u) + np.outer(u, q)
    e[1] = a[1, 0]
    return np.diagonal(a).copy(), e[1:]


def _ql_implicit_shift(d: np.ndarray, e_sub: np.ndarray, cap: int) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix (unordered)."""
    d = d.copy()
    n = d.shape[0]
    e = np.zeros(n)
    e[: n - 1] = e_sub
    iterations = 0
    for low in range(n):
        while True:
            m = n - 1
            for j in range(low, n - 1):
                dd = abs(d[j]) + abs(d[j + 1])
                if abs(e[j]) <= _EPS * dd:
                    m = j
                    break
            if m == low:
                break
            iterations += 1
            if iterations > cap:
                raise ConvergenceError(f"QL iteration exceeded cap of {cap}")
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = math.hypot(g, 1.0)
            g = d[m] - d[low] + e[low] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[low] -= p
            e[low] = g
            e[m] = 0.0
    return d
