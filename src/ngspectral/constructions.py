"""Recursive Kronecker family of symmetric 0/1 matrices and the extremal
graphs obtained by blowing them up.

The family starts from the 2x2 identity; each step maps A to
(1/2) * ((2A - J) (x) B + J) with B = [[1, -1], [-1, -1]].  The k-th matrix
has order 2^k, constant row-sums 2^{k-1}, and a four-valued spectrum that is
known in closed form.  Read as a looped quotient, A blows up through
`graphs.blowup` into parts of size t (cliques at the diagonal ones), whose
adjacency matrix is A (x) J_t with the diagonal zeroed.  Those graphs have
eigenvalues mu_i and mu_{n-i+2} (for 2 <= i <= 2^{k-1}+1) within 1 of
+/- n / (2 sqrt(2(s-1))), on the graph and on its complement alike.
"""

from __future__ import annotations

import math

import numpy as np

from ngspectral.bounds import BoundReport
from ngspectral.graphs import Graph, Matrix01, blowup, check_order
from ngspectral.spectra import mu, mu_bottom, spectrum_pair

KRONECKER_SEED = np.array([[1, -1], [-1, -1]], dtype=np.int64)  # eigenvalues +/- sqrt(2)

WITNESS_TOL = 1e-9


def construct_a(k: int) -> Matrix01:
    """k-th matrix of the recursive family, in exact integer arithmetic.

    Each step is evaluated on the +/-1 matrix 2A - J, Kronecker-multiplied by
    the seed block, then shifted and halved; landing back in {0, 1} is
    asserted so any drift fails immediately.
    """
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    check_order(2**k)
    a = np.eye(2, dtype=np.int64)
    for _ in range(k - 1):
        signed = 2 * a - 1  # entries in {-1, +1}
        expanded = np.kron(signed, KRONECKER_SEED) + 1
        if np.any(expanded % 2):
            raise AssertionError("recursion left the even lattice")
        a = expanded // 2
        if np.any((a != 0) & (a != 1)) or not np.array_equal(a, a.T):
            raise AssertionError("recursion left the symmetric 0/1 matrices")
    return Matrix01(a)


def a_spectrum_closed_form(k: int) -> np.ndarray:
    """Closed-form spectrum of construct_a(k+1), order 2^(k+1), descending:
    one 2^k, then 2^(k/2) with multiplicity 2^(k-1), 2^k - 1 zeros, and
    -2^(k/2) with multiplicity 2^(k-1)."""
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    check_order(2 ** (k + 1))
    half = math.sqrt(2.0**k)
    return np.array(
        [float(2**k)]
        + [half] * 2 ** (k - 1)
        + [0.0] * (2**k - 1)
        + [-half] * 2 ** (k - 1)
    )


def extremal_graph(k: int, t: int) -> Graph:
    """Blow-up of construct_a(k+1) into parts of size t, order 2^(k+1) * t:
    its adjacency matrix is construct_a(k+1) (x) J_t, diagonal zeroed."""
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    if t < 1:
        raise ValueError(f"blow-up factor must be at least 1, got {t}")
    check_order(2 ** (k + 1) * t)
    return blowup(construct_a(k + 1), [t] * 2 ** (k + 1))


def witness_check(k: int, t: int, *, tol: float = WITNESS_TOL) -> list[BoundReport]:
    """Verify the four eigenvalue guarantees of extremal_graph(k, t).

    With s = 2^(k-1) + 1 and c = n / (2 sqrt(2(s-1))), every 2 <= i <= s must
    satisfy mu_i >= c - 1 and mu_{n-i+2} <= -c, on the graph and on its
    complement.
    """
    g = extremal_graph(k, t)
    s = 2 ** (k - 1) + 1
    n = g.n
    c = n / (2.0 * math.sqrt(2.0 * (s - 1)))
    sg, sc = spectrum_pair(g)
    reports: list[BoundReport] = []
    for i in range(2, s + 1):
        reports.append(
            BoundReport("witness_top", n, i, True, False, c - 1.0, mu(sg, i), tol)
        )
        reports.append(
            BoundReport(
                "witness_top_complement", n, i, True, False, c - 1.0, mu(sc, i), tol
            )
        )
        reports.append(
            BoundReport("witness_bottom", n, i, True, False, mu_bottom(sg, i - 1), -c, tol)
        )
        reports.append(
            BoundReport(
                "witness_bottom_complement", n, i, True, False, mu_bottom(sc, i - 1), -c, tol
            )
        )
    return reports
