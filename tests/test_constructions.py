"""Recursive matrix family, its closed-form spectrum, and the extremal
graphs built from it."""

import math

import numpy as np
import pytest

from ngspectral.constructions import (
    KRONECKER_SEED,
    Matrix01,
    a_spectrum_closed_form,
    construct_a,
    extremal_graph,
    witness_check,
)
from ngspectral.graphs import Graph
from ngspectral.eigensolver import symmetric_eigenvalues

A2_ROWS = [[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]]


def test_matrix01_validation():
    m = Matrix01(np.array(A2_ROWS))
    assert m.order == 4
    assert m.row_sums() == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        Matrix01(np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValueError):
        Matrix01(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        Matrix01(np.ones((2, 3)))


def test_first_two_matrices():
    assert construct_a(1) == Matrix01(np.eye(2, dtype=np.int64))
    assert construct_a(2) == Matrix01(np.array(A2_ROWS))
    with pytest.raises(ValueError):
        construct_a(0)


def test_third_matrix_by_independent_recursion():
    # one recursion step applied to the hard-coded order-4 matrix
    a2 = np.array(A2_ROWS, dtype=np.int64)
    expected = (np.kron(2 * a2 - 1, KRONECKER_SEED) + 1) // 2
    a3 = construct_a(3)
    assert np.array_equal(a3.entries, expected)
    assert a3.order == 8
    assert a3.row_sums() == [4] * 8


@pytest.mark.parametrize("k", range(1, 8))
def test_row_sums_exact(k):
    assert construct_a(k + 1).row_sums() == [2**k] * 2 ** (k + 1)


def test_closed_form_values():
    assert a_spectrum_closed_form(1) == pytest.approx([2, math.sqrt(2), 0, -math.sqrt(2)])
    assert a_spectrum_closed_form(2) == pytest.approx([4, 2, 2, 0, 0, 0, -2, -2])
    with pytest.raises(ValueError):
        a_spectrum_closed_form(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_form_multiplicities(k):
    spec = a_spectrum_closed_form(k)
    assert len(spec) == 2 ** (k + 1)
    assert 1 + 2 ** (k - 1) + (2**k - 1) + 2 ** (k - 1) == 2 ** (k + 1)


@pytest.mark.parametrize("k", range(1, 5))
def test_numeric_spectrum_matches_closed_form(k):
    numeric = symmetric_eigenvalues(construct_a(k + 1).entries)
    closed = a_spectrum_closed_form(k)
    assert np.max(np.abs(numeric - closed)) <= 1e-9


@pytest.mark.parametrize("k", range(1, 6))
def test_spectral_self_complementarity(k):
    a = construct_a(k + 1).entries
    flipped = np.ones_like(a) - a
    wa = symmetric_eigenvalues(a)
    wf = symmetric_eigenvalues(flipped)
    assert np.max(np.abs(wa - wf)) <= 1e-9


def test_extremal_graph_smallest_is_path4():
    g = extremal_graph(1, 1)
    assert g == Graph.from_edges(4, [(1, 4), (2, 4), (2, 3)])


def test_extremal_graph_orders_and_degrees():
    g = extremal_graph(1, 2)
    assert g.n == 8
    # row-sums of the order-4 seed are 2, diagonal is (1,0,1,0): blocks whose
    # seed vertex carries a diagonal one lose a loop, the others keep 2t
    assert g.degrees() == [3, 3, 4, 4, 3, 3, 4, 4]
    for k, t in [(1, 3), (2, 2), (3, 1)]:
        assert extremal_graph(k, t).n == 2 ** (k + 1) * t


def test_extremal_graph_rejects_bad_parameters():
    with pytest.raises(ValueError):
        extremal_graph(0, 1)
    with pytest.raises(ValueError):
        extremal_graph(1, 0)


def test_diagonal_zeroing_perturbs_eigenvalues_by_at_most_one():
    for k, t in [(1, 2), (2, 1), (2, 2)]:
        base = np.kron(
            construct_a(k + 1).entries, np.ones((t, t), dtype=np.int64)
        ).astype(float)
        zeroed = base.copy()
        np.fill_diagonal(zeroed, 0.0)
        wb = symmetric_eigenvalues(base)
        wz = symmetric_eigenvalues(zeroed)
        assert np.max(np.abs(wb - wz)) <= 1.0 + 1e-9


def test_witness_check_path4_values():
    reports = witness_check(1, 1)
    by_id = {(r.bound_id, r.param): r for r in reports}
    top = by_id[("witness_top", 2)]
    assert top.rhs == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
    assert top.lhs == pytest.approx(4 / (2 * math.sqrt(2)) - 1, abs=1e-12)
    bottom = by_id[("witness_bottom", 2)]
    assert bottom.lhs == pytest.approx(-(1 + math.sqrt(5)) / 2, abs=1e-9)
    assert bottom.rhs == pytest.approx(-4 / (2 * math.sqrt(2)), abs=1e-12)
    assert all(r.satisfied for r in reports)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 4])
def test_witness_check_families_hold(k, t):
    reports = witness_check(k, t)
    s = 2 ** (k - 1) + 1
    assert len(reports) == 4 * (s - 1)
    assert not [r for r in reports if r.violated]
