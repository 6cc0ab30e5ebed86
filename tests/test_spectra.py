"""Spectrum indexing, trace identities, closed-form spectra, interlacing and
Weyl properties.  The trace identities and the rank-one shift of a regular
graph are checked here against test-local formulas."""

import math
import tracemalloc

import numpy as np
import pytest

from ngspectral.bounds import run_battery
from ngspectral.constructions import construct_a, extremal_graph, witness_check
from ngspectral.eigensolver import symmetric_eigenvalues
from ngspectral.graphs import (
    Graph,
    Matrix01,
    blowup,
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi,
    induced_subgraph,
    path,
)
from ngspectral.spectra import (
    adjacency_spectrum,
    blowup_spectrum,
    interlacing_margins,
    mu,
    mu_bottom,
    spectrum_pair,
)
from ngspectral.search import exhaustive_f, ratio_table
from pair_oracle import pair_eigenvalues

GOLDEN = (1 + math.sqrt(5)) / 2

RANDOM_SUITE = [(5, 0.3, 0), (6, 0.5, 1), (8, 0.7, 2), (10, 0.5, 3), (12, 0.2, 4), (15, 0.6, 5)]


def test_adjacency_spectrum_examples():
    assert adjacency_spectrum(complete(4)) == pytest.approx([3, -1, -1, -1], abs=1e-12)
    assert adjacency_spectrum(complete_bipartite(2, 2)) == pytest.approx(
        [2, 0, 0, -2], abs=1e-12
    )
    # path on 4 vertices: plus/minus golden ratio and its inverse
    assert adjacency_spectrum(path(4)) == pytest.approx(
        [GOLDEN, GOLDEN - 1, 1 - GOLDEN, -GOLDEN], abs=1e-12
    )


def test_adjacency_spectrum_is_the_first_of_spectrum_pair():
    graphs = [complete(1), path(7), cycle(12), complete_bipartite(5, 9)]
    graphs += [erdos_renyi(n, 0.5, n) for n in (16, 33, 100)]
    for g in graphs:
        assert adjacency_spectrum(g).tobytes() == spectrum_pair(g)[0].tobytes(), g.n


def test_spectrum_pair_matches_the_batched_pair_solve():
    # the in-place complement gives the bits of a batched reference solve on
    # a fresh complement matrix
    graphs = [complete(1), path(7), complete_bipartite(48, 48), erdos_renyi(100, 0.5, 3)]
    for g in graphs:
        expected = pair_eigenvalues(g.adjacency_matrix())
        got = spectrum_pair(g)
        assert [w.tobytes() for w in got] == [w.tobytes() for w in expected], g.n


# spectrum_pair holds one n x n float64 matrix at a time: its tracemalloc
# peak at n = 512 was 1.2 matrices, against 2.0 when the complement's matrix
# was built beside g's (numpy 2.4, Python 3.11)
PAIR_PEAK_MATRICES = 1.5


def test_spectrum_pair_holds_one_matrix():
    g = erdos_renyi(512, 0.5, 1)
    tracemalloc.start()
    try:
        spectrum_pair(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PAIR_PEAK_MATRICES * 512 * 512 * 8, peak / (512 * 512 * 8)


def test_mu_indexing():
    spec = adjacency_spectrum(complete(4))
    assert mu(spec, 1) == pytest.approx(3.0, abs=1e-12)
    assert mu(spec, 4) == pytest.approx(-1.0, abs=1e-12)
    assert mu_bottom(spec, 1) == pytest.approx(-1.0, abs=1e-12)
    assert mu_bottom(spec, 4) == pytest.approx(3.0, abs=1e-12)
    assert mu_bottom(adjacency_spectrum(complete_bipartite(2, 2)), 1) == pytest.approx(
        -2.0, abs=1e-12
    )
    for bad in (0, 5):
        with pytest.raises(ValueError):
            mu(spec, bad)
        with pytest.raises(ValueError):
            mu_bottom(spec, bad)


def trace_checks(g: Graph, spec: np.ndarray) -> tuple[float, float]:
    """(sum of eigenvalues, sum of squares - 2e(G)); both near zero."""
    values = spec.tolist()
    total = math.fsum(values)
    squares = math.fsum(v * v for v in values)
    return total, squares - 2.0 * g.edge_count


def test_trace_identities_random_suite():
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        spec = adjacency_spectrum(g)
        total, square_gap = trace_checks(g, spec)
        assert abs(total) <= 1e-8
        assert abs(square_gap) <= 1e-8
        # the top eigenvalue dominates the average degree
        assert mu(spec, 1) >= 2 * g.edge_count / n - 1e-8


@pytest.mark.parametrize("k", [2, 3])
def test_regular_shift_matches_direct_eigensolve(k):
    # A is 2^(k-1)-regular, so J shares its top eigenvector: 2A - J has
    # eigenvalue 2 * 2^(k-1) - n there and 2 mu_i(A) on the rest
    a = construct_a(k).entries
    n = a.shape[0]
    spec = symmetric_eigenvalues(a)
    r = 2.0 ** (k - 1)
    assert spec[0] == pytest.approx(r, abs=1e-12)
    assert np.array_equal(a.sum(axis=1), np.full(n, r))
    shifted = np.sort(np.concatenate([[2.0 * r - n], 2.0 * spec[1:]]))[::-1]
    direct = symmetric_eigenvalues(2 * a - np.ones((n, n), dtype=np.int64))
    assert shifted == pytest.approx(direct, abs=1e-9)


def independent(g: Graph) -> Matrix01:
    """g as a quotient whose parts are independent sets."""
    return Matrix01(g.adjacency_matrix(dtype=np.int64))


def cliques(g: Graph) -> Matrix01:
    """g as a quotient whose parts are cliques: A + I."""
    return Matrix01(g.adjacency_matrix(dtype=np.int64) + np.eye(g.n, dtype=np.int64))


def test_blowup_closed_form_examples():
    edge = complete(2)
    indep = blowup_spectrum(independent(edge), [2, 2])
    assert indep == pytest.approx([2, 0, 0, -2], abs=1e-12)
    cliq = blowup_spectrum(cliques(edge), [2, 2])
    assert cliq == pytest.approx([3, -1, -1, -1], abs=1e-12)
    same = blowup_spectrum(independent(edge), [1, 1])
    assert np.array_equal(same, adjacency_spectrum(edge))
    # K_{a,b}: +/- sqrt(ab) and a + b - 2 zeros
    kab = blowup_spectrum(independent(edge), [3, 5])
    assert kab == pytest.approx([math.sqrt(15)] + [0] * 6 + [-math.sqrt(15)], abs=1e-12)
    with pytest.raises(ValueError):
        blowup_spectrum(independent(edge), [0, 0])
    with pytest.raises(ValueError):
        blowup_spectrum(independent(edge), [2, 2, 2])


@pytest.mark.parametrize("t", [2, 3, 4])
def test_blowup_closed_form_matches_construction(t):
    for n, p, seed in RANDOM_SUITE[:4]:
        g = erdos_renyi(n, p, seed)
        for base in (independent(g), cliques(g)):
            predicted = blowup_spectrum(base, [t] * n)
            direct = adjacency_spectrum(blowup(base, [t] * n))
            assert np.max(np.abs(predicted - direct)) <= 1e-8


def test_blowup_spectrum_with_unit_parts_is_the_adjacency_spectrum():
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        expected = adjacency_spectrum(g)
        assert np.array_equal(blowup_spectrum(independent(g), [1] * n), expected)
        assert np.array_equal(blowup_spectrum(cliques(g), [1] * n), expected)


def test_blowup_spectrum_matches_eigvalsh_on_random_looped_quotients():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(1, 7))
        upper = np.triu(rng.integers(0, 2, size=(r, r)))
        base = Matrix01(upper + np.triu(upper, 1).T)
        sizes = [int(x) for x in rng.integers(1, 9, size=r)]
        predicted = blowup_spectrum(base, sizes)
        a = blowup(base, sizes).adjacency_matrix()
        direct = np.linalg.eigvalsh(a)[::-1]
        worst = max(worst, float(np.max(np.abs(predicted - direct))))
    assert worst <= 1e-12


def test_cauchy_interlacing_random_pairs():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(3, 14))
        g = erdos_renyi(n, float(rng.choice([0.2, 0.5, 0.8])), trial)
        m = int(rng.integers(1, n + 1))
        subset = sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
        h = induced_subgraph(g, subset)
        margins = interlacing_margins(adjacency_spectrum(g), adjacency_spectrum(h))
        assert np.min(margins) >= -1e-8


def test_weyl_sandwich_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        p = rng.standard_normal((n, n))
        q = rng.standard_normal((n, n))
        p = p + p.T
        q = q + q.T
        wp = symmetric_eigenvalues(p)
        wq = symmetric_eigenvalues(q)
        wd = symmetric_eigenvalues(p - q)
        for s in range(n):
            assert wd[-1] - 1e-8 <= wp[s] - wq[s] <= wd[0] + 1e-8


def test_graph_weyl_pair_inequalities():
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        sg, sc = spectrum_pair(g)
        for k in range(2, n + 1):
            assert mu(sg, k) + mu(sc, n - k + 2) <= -1 + 1e-8
            assert mu(sg, k) + mu(sc, n - k + 1) >= -1 - 1e-8


def test_spectrum_pair_complete_bipartite_closed_form():
    # K_{a,b} has spectrum +-sqrt(ab) and zeros; its complement K_a + K_b has
    # a-1, b-1 and -1's.  These degenerate spectra once broke the solver.
    for n in range(2, 65):
        for a in range(1, n):
            b = n - a
            sg, sc = spectrum_pair(complete_bipartite(a, b))
            root = math.sqrt(a * b)
            expected_g = [root] + [0.0] * (n - 2) + [-root]
            expected_c = sorted([a - 1.0, b - 1.0] + [-1.0] * (n - 2), reverse=True)
            assert np.max(np.abs(sg - expected_g)) <= 1e-9 * n, (a, b)
            assert np.max(np.abs(sc - expected_c)) <= 1e-9 * n, (a, b)


# the four library calls that decide an inequality up to a tolerance
TOL_READERS = {
    "run_battery": lambda tol: run_battery(complete(4), 2, tol=tol),
    "witness_check": lambda tol: witness_check(extremal_graph(1, 1), 1, tol=tol),
    "exhaustive_f": lambda tol: exhaustive_f(5, 2, "top", tol=tol),
    "ratio_table": lambda tol: ratio_table(2, "top", [5], tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("reader", sorted(TOL_READERS))
def test_library_rejects_bad_tolerance(reader, tol):
    # an infinite tolerance would accept any graph as a witness, and a NaN
    # one would mark every report violated
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        TOL_READERS[reader](tol)
