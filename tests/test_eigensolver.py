"""The LAPACK eigen path against closed forms, and against the independent
Householder + QL oracle in ql_oracle.py."""

import math
import threading

import numpy as np
import pytest

import ngspectral.eigensolver
from ngspectral.eigensolver import (
    batched_symmetric_eigenvalues,
    complement_pair_eigenvalues_in_place,
    complement_pair_eigh,
    symmetric_eigenvalues,
)
from ngspectral.graphs import complement, complete, complete_bipartite, cycle, erdos_renyi, path
from pair_oracle import pair_eigenvalues
from ql_oracle import ql_eigenvalues


def test_trivial_sizes():
    assert symmetric_eigenvalues(np.array([[5.0]])) == pytest.approx([5.0])
    w = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert w == pytest.approx([1.0, -1.0])
    assert np.array_equal(symmetric_eigenvalues(np.zeros((4, 4))), np.zeros(4))


def test_diagonal_and_tridiagonal_shortcut():
    d = np.diag([3.0, -1.0, 2.0, 0.0])
    assert symmetric_eigenvalues(d) == pytest.approx([3.0, 2.0, 0.0, -1.0])
    # P_n adjacency is already tridiagonal: eigenvalues 2 cos(pi j / (n+1))
    n = 9
    w = symmetric_eigenvalues(path(n).adjacency_matrix())
    expected = sorted((2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)), reverse=True)
    assert w == pytest.approx(expected, abs=1e-12)


def test_complete_graph_closed_form():
    for n in [2, 3, 7, 20]:
        w = symmetric_eigenvalues(complete(n).adjacency_matrix())
        assert w[0] == pytest.approx(n - 1, abs=1e-12)
        assert w[1:] == pytest.approx([-1.0] * (n - 1), abs=1e-12)


def test_bipartite_closed_form():
    w = symmetric_eigenvalues(complete_bipartite(3, 5).adjacency_matrix())
    assert w[0] == pytest.approx(math.sqrt(15), abs=1e-12)
    assert w[-1] == pytest.approx(-math.sqrt(15), abs=1e-12)
    assert np.max(np.abs(w[1:-1])) < 1e-12


def test_cycle_closed_form():
    n = 12
    w = symmetric_eigenvalues(cycle(n).adjacency_matrix())
    expected = sorted((2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
    assert w == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64, 128])
def test_matches_lapack_random(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.standard_normal((n, n))
        a = a + a.T
        assert np.max(np.abs(ql_eigenvalues(a) - symmetric_eigenvalues(a))) <= 1e-10 * n


def test_matches_lapack_adjacency():
    for seed in range(10):
        g = erdos_renyi(4 + 6 * seed, 0.5, seed)
        a = g.adjacency_matrix()
        assert np.max(np.abs(ql_eigenvalues(a) - symmetric_eigenvalues(a))) <= 1e-10 * g.n


def test_accuracy_at_order_512():
    rng = np.random.default_rng(512)
    a = (rng.random((512, 512)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    assert np.max(np.abs(ql_eigenvalues(a) - symmetric_eigenvalues(a))) <= 1e-10 * 512


def test_deterministic():
    a = erdos_renyi(40, 0.5, 11).adjacency_matrix()
    w1 = symmetric_eigenvalues(a)
    w2 = symmetric_eigenvalues(a)
    assert np.array_equal(w1, w2)


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_batched_matches_scalar_path():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((16, 9, 9))
    stack = stack + stack.transpose(0, 2, 1)
    batch = batched_symmetric_eigenvalues(stack)
    for i in range(stack.shape[0]):
        assert np.max(np.abs(batch[i] - symmetric_eigenvalues(stack[i]))) < 1e-10


def test_complement_pair_matches_single_solves():
    graphs = [erdos_renyi(11, 0.5, seed) for seed in range(6)]
    stack = np.stack([g.adjacency_matrix() for g in graphs])
    wg, wc = complement_pair_eigenvalues_in_place(stack)
    # the stack it was handed now holds the complements
    assert np.array_equal(stack, np.stack([complement(g).adjacency_matrix() for g in graphs]))
    for i, g in enumerate(graphs):
        assert np.max(np.abs(wg[i] - symmetric_eigenvalues(g.adjacency_matrix()))) < 1e-10
        wc_single = symmetric_eigenvalues(complement(g).adjacency_matrix())
        assert np.max(np.abs(wc[i] - wc_single)) < 1e-10



def test_two_thread_pair_leaves_the_complement_below_the_diagonal(monkeypatch):
    monkeypatch.setattr(ngspectral.eigensolver, "_ONE_BLAS_THREAD", True)
    g = erdos_renyi(ngspectral.eigensolver.TWO_THREAD_ORDER + 1, 0.5, 4)
    a = g.adjacency_matrix()
    threads = threading.active_count()
    wg, wc = complement_pair_eigenvalues_in_place(a)
    # the worker thread is joined before the call returns
    assert threading.active_count() == threads
    assert [w.tobytes() for w in (wg, wc)] == [w.tobytes() for w in pair_eigenvalues(g.adjacency_matrix())]
    assert np.array_equal(np.tril(a), np.tril(complement(g).adjacency_matrix()))
    assert np.array_equal(np.triu(a), np.triu(g.adjacency_matrix()))


def test_two_thread_pair_raises_the_worker_error(monkeypatch):
    monkeypatch.setattr(ngspectral.eigensolver, "_ONE_BLAS_THREAD", True)
    solve = ngspectral.eigensolver.batched_symmetric_eigenvalues
    solved_here = []

    def fail_off_the_main_thread(stack):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("worker failed")
        solved_here.append(stack.shape)
        return solve(stack)

    monkeypatch.setattr(ngspectral.eigensolver, "batched_symmetric_eigenvalues", fail_off_the_main_thread)
    threads = threading.active_count()
    a = erdos_renyi(ngspectral.eigensolver.TWO_THREAD_ORDER + 1, 0.5, 5).adjacency_matrix()
    with pytest.raises(np.linalg.LinAlgError, match="worker failed"):
        complement_pair_eigenvalues_in_place(a)
    assert solved_here == [a.shape]
    assert threading.active_count() == threads

def test_complement_pair_eigh_reconstructs_both_matrices():
    for g in [erdos_renyi(11, 0.5, 3), complete_bipartite(4, 5), path(1)]:
        a = g.adjacency_matrix()
        lam, vec = complement_pair_eigh(a)
        wg, wc = pair_eigenvalues(a)
        assert np.max(np.abs(lam - np.stack([wg, wc]))) < 1e-10
        assert np.all(np.diff(lam, axis=1) <= 0)
        for w, v, m in zip(lam, vec, [a, complement(g).adjacency_matrix()]):
            assert np.max(np.abs((v * w) @ v.T - m)) < 1e-10
            assert np.max(np.abs(v.T @ v - np.eye(g.n))) < 1e-10
