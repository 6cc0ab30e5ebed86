"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured runtime (run with -s to see them)."""

import math
import time

import numpy as np

from ngspectral.bounds import run_battery, violations
from ngspectral.constructions import (
    a_spectrum_closed_form,
    construct_a,
    extremal_graph,
    witness_check,
)
from ngspectral.eigensolver import symmetric_eigenvalues
from ngspectral.graphs import (
    Graph,
    Matrix01,
    blowup,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    induced_subgraph,
    path,
)
from ngspectral.search import exhaustive_f
from ngspectral.spectra import (
    adjacency_spectrum,
    blowup_spectrum,
    interlacing_margins,
    mu,
    mu_bottom,
    spectrum_pair,
)


def _report(name: str, elapsed: float, budget: float) -> None:
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget:.0f}s)")


def test_criterion_1_construction_spectra():
    """Numeric spectra of the recursion matrices match the closed form."""
    start = time.perf_counter()
    for k in range(1, 7):
        numeric = symmetric_eigenvalues(construct_a(k + 1).entries)
        closed = a_spectrum_closed_form(k)
        assert numeric.shape == (2 ** (k + 1),)
        assert np.max(np.abs(numeric - closed)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 1 (construction spectra, k=1..6)", elapsed, 5)


def test_criterion_2_blowup_closed_forms():
    """200 seeded random graphs, t in 1..4, with independent parts (base A)
    and clique parts (base A + I)."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 16))
        p = float(rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        a = erdos_renyi(n, p, case).adjacency_matrix(dtype=np.int64)
        for base in (Matrix01(a), Matrix01(a + np.eye(n, dtype=np.int64))):
            for t in range(1, 5):
                predicted = blowup_spectrum(base, [t] * n)
                direct = adjacency_spectrum(blowup(base, [t] * n))
                worst = max(worst, float(np.max(np.abs(predicted - direct))))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"criterion 2 (blow-up closed forms, max err {worst:.2e})", elapsed, 60)


def test_criterion_3_extremal_witnesses():
    """All four witness inequality families hold at tolerance 1e-9."""
    start = time.perf_counter()
    for k in (1, 2, 3):
        for t in (1, 2, 4, 8):
            reports = witness_check(extremal_graph(k, t), k, tol=1e-9)
            assert not [r for r in reports if r.violated], (k, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 3 (witness graphs, 12 (k,t) pairs)", elapsed, 30)


def test_criterion_4_soundness_battery():
    """2000 seeded random graphs plus all named generators: zero violations."""
    start = time.perf_counter()
    probs = (0.1, 0.3, 0.5, 0.7, 0.9)
    suite = [erdos_renyi(4 + (i % 61), probs[i % 5], i) for i in range(2000)]
    for n in (4, 7, 16, 33, 64):
        suite.append(complete(n))
        suite.append(empty(n))
        suite.append(path(n))
        suite.append(cycle(n))
        suite.append(complete_bipartite(n // 2, n - n // 2))
    bad = []
    for g in suite:
        bad.extend(violations(run_battery(g, 5)))
    assert not bad
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(f"criterion 4 (soundness battery, {len(suite)} graphs)", elapsed, 600)


def test_criterion_5_exhaustive_exactness():
    """f_2 values for n = 2..7: inside the known bracket, reproducible."""
    start = time.perf_counter()
    records = {n: exhaustive_f(n, 2, "top") for n in range(2, 8)}
    for n, rec in records.items():
        assert rec.exact
        assert rec.value < n / math.sqrt(2)
        if n >= 5:  # the lower side is positive only from n = 5 on
            assert rec.value > n / math.sqrt(2) - 3
    for n in (2, 5, 7):
        again = exhaustive_f(n, 2, "top")
        assert again == records[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 5 (exhaustive f_2, n=2..7)", elapsed, 300)


def test_criterion_6_balanced_bipartite_identity():
    """Bottom eigenvalue squares of K_{n/2,n/2} and complement sum to n^2/4 + 1."""
    start = time.perf_counter()
    for n in range(4, 21, 2):
        g = complete_bipartite(n // 2, n // 2)
        sg, sc = spectrum_pair(g)
        value = mu_bottom(sg, 1) ** 2 + mu_bottom(sc, 1) ** 2
        assert abs(value - (n * n / 4 + 1)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 6 (balanced bipartite identity)", elapsed, 1)


def _circulant(n: int, connections: list[int]) -> Graph:
    edges = []
    for d in connections:
        for v in range(1, n + 1):
            w = (v - 1 + d) % n + 1
            if v != w:
                edges.append((v, w))
    return Graph.from_edges(n, edges)


def test_criterion_7_regular_nosal_tightness():
    """mu(G) + mu(complement) = n - 1 for regular graphs."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    samples = [complete(n) for n in (2, 5, 9, 16)]
    samples += [cycle(n) for n in (3, 6, 11, 20)]
    for n in (7, 10, 13, 19):
        k = int(rng.integers(1, n // 2 + 1))
        conns = sorted(rng.choice(np.arange(1, n // 2 + 1), size=k, replace=False).tolist())
        samples.append(_circulant(n, conns))
    for g in samples:
        degs = set(g.adjacency_matrix().sum(0).tolist())
        assert len(degs) == 1  # regular by construction
        sg, sc = spectrum_pair(g)
        assert abs(mu(sg, 1) + mu(sc, 1) - (g.n - 1)) <= 1e-9
    elapsed = time.perf_counter() - start
    _report("criterion 7 (regular Nosal tightness)", elapsed, 10)


def test_criterion_8_interlacing_and_weyl():
    """500 induced-subgraph pairs and 500 symmetric matrix pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    for trial in range(500):
        n = int(rng.integers(2, 33))
        g = erdos_renyi(n, float(rng.choice([0.2, 0.5, 0.8])), trial)
        m = int(rng.integers(1, n + 1))
        subset = sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
        h = induced_subgraph(g, subset)
        margins = interlacing_margins(adjacency_spectrum(g), adjacency_spectrum(h))
        assert float(np.min(margins)) >= -1e-8

    for _ in range(500):
        n = int(rng.integers(2, 25))
        p = rng.standard_normal((n, n))
        q = rng.standard_normal((n, n))
        p = p + p.T
        q = q + q.T
        wp = symmetric_eigenvalues(p)
        wq = symmetric_eigenvalues(q)
        wd = symmetric_eigenvalues(p - q)
        assert np.all(wp - wq >= wd[-1] - 1e-8)
        assert np.all(wp - wq <= wd[0] + 1e-8)
    elapsed = time.perf_counter() - start
    _report("criterion 8 (interlacing + Weyl sandwich, 1000 pairs)", elapsed, 60)
