"""Recursive Kronecker family of symmetric 0/1 matrices and the extremal
graphs obtained by blowing them up.

The family starts from the 2x2 identity; each step maps A to
(1/2) * ((2A - J) (x) B + J) with B = [[1, -1], [-1, -1]].  The k-th matrix
has order 2^k, constant row-sums 2^{k-1}, and a four-valued spectrum that is
known in closed form.  Read as a looped quotient, A blows up through
`graphs.blowup` into parts of size t (cliques at the diagonal ones), whose
adjacency matrix is A (x) J_t with the diagonal zeroed.  With q = 2^(k-1)
and c = n / (2 sqrt(2q)), the blow-up extremal_graph(k, t) of order n has
mu_i in [c - 1, c] and mu_{n-i+2} in [-c - 1, -c] for 2 <= i <= q + 1, on
the graph and on its complement alike.  So it meets the slope 1/sqrt(2q) of
`search.target_ratio`: it scores at least n / sqrt(2q) - 2 at top s = q + 1
and at least n / sqrt(2q) at bottom s = q.
"""

from __future__ import annotations

import math

import numpy as np

from ngspectral.bounds import ALWAYS, Bound, BoundReport, Fixed, Views, table_reports
from ngspectral.graphs import Graph, Matrix01, blowup, check_order
from ngspectral.spectra import check_tol, spectrum_pair

KRONECKER_SEED = np.array([[1, -1], [-1, -1]], dtype=np.int64)  # eigenvalues +/- sqrt(2)

WITNESS_TOL = 1e-9


def construct_a(k: int) -> Matrix01:
    """k-th matrix of the recursive family, in exact integer arithmetic.

    Each step maps the +/-1 matrix S = 2A - J to S (x) B, so the k-th is
    (J + S) / 2 with S = (2I - J) (x) B^(x)(k-1), B the seed block.
    """
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    check_order(2**k)
    signed = 2 * np.eye(2, dtype=np.int64) - 1
    for _ in range(k - 1):
        signed = np.kron(signed, KRONECKER_SEED)
    return Matrix01((signed + 1) // 2)


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


def _scale(v: Views) -> float:
    """c = n / (2 sqrt(2(s-1))), with s = 2^(k-1) + 1 passed as s_max."""
    return v.n / (2.0 * math.sqrt(2.0 * (v.s_max - 1)))


_top_floor = Fixed(lambda v, i: _scale(v) - 1.0)  # mu_i >= c - 1
_bottom_ceiling = Fixed(lambda v, i: -_scale(v))  # mu_{n-i+2} <= -c

WITNESS_ROWS: tuple[Bound, ...] = (
    Bound("witness_top", False, lambda n, s: range(2, s + 1),
          _top_floor, lambda v, i: v.t[0][:, i], ALWAYS),
    Bound("witness_top_complement", False, lambda n, s: range(2, s + 1),
          _top_floor, lambda v, i: v.t[1][:, i], ALWAYS),
    Bound("witness_bottom", False, lambda n, s: range(2, s + 1),
          lambda v, i: v.b[0][:, i - 1], _bottom_ceiling, ALWAYS),
    Bound("witness_bottom_complement", False, lambda n, s: range(2, s + 1),
          lambda v, i: v.b[1][:, i - 1], _bottom_ceiling, ALWAYS),
)


def witness_check(g: Graph, k: int, *, tol: float = WITNESS_TOL) -> list[BoundReport]:
    """Reports of WITNESS_ROWS on g = extremal_graph(k, t), sorted by (i,
    row): mu_i >= c - 1 and mu_{n-i+2} <= -c, on g and its complement, for
    every 2 <= i <= s = 2^(k-1) + 1 (module docstring); g needs order >= s."""
    check_tol(tol)
    if k < 1:
        raise ValueError(f"index must be at least 1, got {k}")
    s = 2 ** (k - 1) + 1
    if s > g.n:
        raise ValueError(f"index {k} needs order at least {s}, got {g.n}")
    sg, sc = spectrum_pair(g)
    return sorted(table_reports(sg, sc, s, WITNESS_ROWS, tol=tol), key=lambda r: r.param)
