"""Inequality checkers: worked examples, exhaustive small-order soundness,
Ramsey certificates, battery determinism."""

import math

import numpy as np
import pytest

from ngspectral.bounds import (
    BoundReport,
    _neighbor_masks,
    check_abs_sum_bottom,
    check_abs_sum_top,
    check_csikvari_terpai,
    check_fns_upper,
    check_fs_upper,
    check_nonpositive_eigenvalue,
    check_nosal,
    check_pair_bottom,
    check_pair_top,
    check_ramsey_sign,
    check_subset_squares,
    check_sum_squares_bottom,
    check_sum_squares_top,
    check_weyl_pair,
    ramsey_certificate,
    run_battery,
    violations,
)
from ngspectral.constructions import extremal_graph
from ngspectral.graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    path,
)
from ngspectral.reporting import report_csv_row

SQ5 = math.sqrt(5)


def test_nosal_regular_lower_tight():
    lower, upper = check_nosal(complete(4))
    assert lower.bound_id == "nosal_lower"
    assert lower.rhs == pytest.approx(3.0, abs=1e-9)  # 3 + 0 meets n - 1 exactly
    assert lower.satisfied and upper.satisfied
    assert abs(lower.margin) <= 1e-9


def test_nosal_path4_self_complementary():
    lower, upper = check_nosal(path(4))
    assert lower.rhs == pytest.approx(1 + SQ5, abs=1e-9)  # twice the golden ratio
    assert lower.satisfied and upper.satisfied


def test_nosal_order_one_strict_boundary():
    # 0 < sqrt(2)*(n-1) = 0 fails as a strict inequality but passes at tolerance
    lower, upper = check_nosal(Graph(1))
    assert upper.strict and upper.satisfied
    assert upper.margin == pytest.approx(0.0, abs=1e-12)


def test_csikvari_terpai_examples():
    assert check_csikvari_terpai(Graph(1)).satisfied
    r = check_csikvari_terpai(complete(4))
    assert r.lhs == pytest.approx(3.0, abs=1e-9)
    assert r.rhs == pytest.approx(16 / 3 - 1, abs=1e-12)


def test_sum_squares_top_examples():
    r = check_sum_squares_top(cycle(5), 2)
    assert r.applicable and r.strict
    assert r.lhs == pytest.approx(2 * ((SQ5 - 1) / 2) ** 2, abs=1e-9)
    assert r.rhs == pytest.approx(6.25)
    for n in (4, 6, 9):
        r = check_sum_squares_top(complete(n), 2)
        assert r.lhs == pytest.approx(1.0, abs=1e-9)
        assert r.satisfied
    with pytest.raises(ValueError):
        check_sum_squares_top(complete(4), 1)


def test_sum_squares_top_applicability_gate():
    # n >= 3s - 2 fails: report emitted but never asserted
    r = check_sum_squares_top(complete(4), 3)
    assert not r.applicable


def test_abs_sum_top_examples():
    r = check_abs_sum_top(complete(6), 2)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(6 / math.sqrt(2))
    r = check_abs_sum_top(cycle(5), 2)
    assert r.lhs == pytest.approx(SQ5 - 1, abs=1e-9)
    assert r.satisfied


def test_pair_top_examples():
    r = check_pair_top(complete(4), 2)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(4.0)
    r = check_pair_top(cycle(5), 2)
    assert r.lhs == pytest.approx(2 * ((SQ5 - 1) / 2) ** 2, abs=1e-9)
    assert r.rhs == pytest.approx(25 / 4)


def test_pair_top_extremal_margin_is_small():
    # the construction pushes toward the bound: margin positive but tiny vs n^2
    r = check_pair_top(extremal_graph(2, 4), 3)
    assert r.applicable
    assert 0 < r.margin < 32
    assert r.rhs == pytest.approx(32**2 / 8)


def test_fs_upper_examples():
    r = check_fs_upper(complete(30), 2)
    assert r.applicable
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(30 / math.sqrt(2) - 1)
    r = check_fs_upper(complete(10), 2)
    assert not r.applicable  # needs n >= 15


def test_fs_upper_extremal_graphs_approach_bound():
    for t in (8, 16):
        g = extremal_graph(1, t)
        r = check_fs_upper(g, 2)
        assert r.applicable and r.satisfied
        assert 0 <= r.margin <= 1 + 1e-9
        assert abs(r.lhs / g.n - 1 / math.sqrt(2)) <= 2 / g.n


def test_sum_squares_bottom_example():
    r = check_sum_squares_bottom(complete_bipartite(2, 2), 1)
    assert r.applicable
    assert r.lhs == pytest.approx(5.0, abs=1e-9)  # 4 + 1
    assert r.rhs == pytest.approx(9.0)
    r = check_sum_squares_bottom(empty(8), 1)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)  # complement K_8 contributes 1
    assert r.satisfied


def test_abs_sum_bottom_example():
    r = check_abs_sum_bottom(complete_bipartite(2, 2), 1)
    assert r.lhs == pytest.approx(3.0, abs=1e-9)
    assert r.rhs == pytest.approx(3 * math.sqrt(2))
    with pytest.raises(ValueError):
        check_abs_sum_bottom(Graph(1), 0)


def test_pair_bottom_balanced_bipartite_identity():
    g = complete_bipartite(5, 5)
    r = check_pair_bottom(g, 1)
    assert r.applicable  # n = 10 > 4
    assert r.lhs == pytest.approx(10**2 / 4 + 1, abs=1e-9)
    assert r.rhs == pytest.approx(36.0)
    assert r.satisfied


def test_pair_bottom_boundary_not_applicable():
    # n = 4^s exactly is outside the strict precondition
    assert not check_pair_bottom(complete(4), 1).applicable
    assert check_pair_bottom(complete(5), 1).applicable
    for seed in range(5):
        r = check_pair_bottom(erdos_renyi(17, 0.5, seed), 2)
        assert r.applicable and r.satisfied


def test_fns_upper_examples():
    r = check_fns_upper(complete_bipartite(5, 5), 1)
    assert r.lhs == pytest.approx(6.0, abs=1e-9)
    assert r.rhs == pytest.approx(10 / math.sqrt(2) + 1)
    r = check_fns_upper(complete(6), 1)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.satisfied
    # boundary n = 4^s is applicable here (non-strict precondition)
    assert check_fns_upper(complete(4), 1).applicable


def test_subset_squares_examples():
    r = check_subset_squares(complete(5), [])
    assert r.lhs == 0.0 and r.satisfied
    r = check_subset_squares(complete_bipartite(2, 2), range(2, 5))
    assert r.lhs == pytest.approx(4.0, abs=1e-9)
    assert r.rhs == pytest.approx(4.0)
    assert r.satisfied  # tight
    with pytest.raises(ValueError):
        check_subset_squares(complete(4), [1])
    rng = np.random.default_rng(0)
    for seed in range(10):
        g = erdos_renyi(9, 0.5, seed)
        subset = [int(x) for x in rng.choice(np.arange(2, 10), size=4, replace=False)]
        assert check_subset_squares(g, subset).satisfied


def test_subset_squares_tolerance_scales_with_magnitude():
    # K_{2048,2048} meets the bound with equality; eigvalsh rounding at n=4096
    # left lhs above rhs by 3.9e-8, more than the absolute tolerance 1e-8
    r = BoundReport("subset_squares", 4096, 4095, True, False, 4194304.000000039, 4194304.0)
    assert r.margin < -r.tol
    assert r.satisfied and not r.violated
    # a relative excess well above the tolerance is still a violation
    over = 4194304.0 * (1 + 1e-6)
    assert BoundReport("subset_squares", 4096, 4095, True, False, over, 4194304.0).violated
    # below magnitude 1 the tolerance stays absolute
    assert BoundReport("weyl_upper", 4, 2, True, False, 0.5 + 2e-8, 0.5).violated
    assert BoundReport("nosal_upper", 4, None, True, True, 0.5 + 5e-9, 0.5).satisfied


def test_nonpositive_eigenvalue_examples():
    r = check_nonpositive_eigenvalue(complete(4), 2)
    assert r.applicable
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(4 / (2 * math.sqrt(3)))
    # mu_2 > 0: gated out
    two_edges = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert not check_nonpositive_eigenvalue(two_edges, 2).applicable
    r = check_nonpositive_eigenvalue(complete_bipartite(2, 2), 4)
    assert r.lhs == pytest.approx(2.0, abs=1e-9)
    assert r.rhs == pytest.approx(2.0)
    assert r.satisfied  # tight
    with pytest.raises(ValueError):
        check_nonpositive_eigenvalue(complete(4), 1)
    with pytest.raises(ValueError):
        check_nonpositive_eigenvalue(complete(4), 5)


def test_ramsey_sign_all_order4_graphs():
    for bits in range(64):
        r = check_ramsey_sign(Graph(4, bits), 1)
        assert r.applicable and r.satisfied


def test_ramsey_sign_k0_not_applicable():
    r = check_ramsey_sign(complete(4), 0)
    assert not r.applicable
    with pytest.raises(ValueError):
        check_ramsey_sign(complete(4), -1)


def test_ramsey_sign_k2_random():
    for seed in range(8):
        r = check_ramsey_sign(erdos_renyi(16, 0.5, seed), 2)
        assert r.applicable and r.satisfied


def _is_clique(g, verts):
    return all(g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :])


def test_ramsey_certificate_examples():
    cert = ramsey_certificate(cycle(5), 1)
    assert cert.kind == "clique" and len(cert.vertices) == 2
    assert _is_clique(cycle(5), cert.vertices)

    cert = ramsey_certificate(empty(4), 1)
    assert cert.kind == "independent_set" and len(cert.vertices) == 2

    for seed in range(6):
        g = erdos_renyi(16, 0.5, seed)
        cert = ramsey_certificate(g, 2)
        assert cert is not None and len(cert.vertices) == 3
        if cert.kind == "clique":
            assert _is_clique(g, cert.vertices)
        else:
            assert _is_clique(complement(g), cert.vertices)


def test_neighbor_masks_match_has_edge():
    graphs = [Graph(4, bits) for bits in range(64)]
    graphs += [erdos_renyi(40, 0.5, seed) for seed in range(3)]
    for g in graphs:
        masks = _neighbor_masks(g)
        assert len(masks) == g.n
        for u in range(1, g.n + 1):
            for v in range(1, g.n + 1):
                assert bool(masks[u - 1] >> (v - 1) & 1) == g.has_edge(u, v)


def test_ramsey_certificate_limits():
    with pytest.raises(ValueError):
        ramsey_certificate(complete(4), 0)
    with pytest.raises(ValueError):
        ramsey_certificate(complete(4), 12)  # size 13 above the search cap
    # below the Ramsey threshold the search may fail; that is a result, not an error
    assert ramsey_certificate(cycle(5), 2) is None


def test_weyl_pair_examples():
    upper, lower = check_weyl_pair(complete(4), 2)
    assert upper.lhs == pytest.approx(-1.0, abs=1e-9)  # -1 + 0, tight
    assert lower.rhs == pytest.approx(-1.0, abs=1e-9)
    assert upper.satisfied and lower.satisfied
    for k in (2, 3, 4, 5):
        assert not violations(check_weyl_pair(cycle(5), k))
    with pytest.raises(ValueError):
        check_weyl_pair(complete(4), 1)
    with pytest.raises(ValueError):
        check_weyl_pair(complete(4), 5)


def test_weyl_pair_exhaustive_small_orders():
    # direct vectorized sweep over every graph of order 4 and 5, all k
    for n in (4, 5):
        m = n * (n - 1) // 2
        masks = np.arange(1 << m, dtype=np.int64)
        iu, ju = np.triu_indices(n, 1)
        pos = ju * (ju - 1) // 2 + iu  # graph6 bit of the pair (iu, ju)
        stack = np.zeros((len(masks), n, n))
        bits = (masks[:, None] >> pos[None, :]) & 1
        stack[:, iu, ju] = bits
        stack[:, ju, iu] = bits
        comp = 1.0 - stack
        comp[:, np.arange(n), np.arange(n)] = 0.0
        wg = np.linalg.eigvalsh(stack)[:, ::-1]
        wc = np.linalg.eigvalsh(comp)[:, ::-1]
        for k in range(2, n + 1):
            assert np.all(wg[:, k - 1] + wc[:, n - k + 1] <= -1 + 1e-8)
            assert np.all(wg[:, k - 1] + wc[:, n - k] >= -1 - 1e-8)


def test_battery_order_one_all_clean():
    reports = run_battery(Graph(1), 1)
    assert reports
    assert not violations(reports)


def test_battery_exhaustive_order4_sound():
    for bits in range(64):
        assert not violations(run_battery(Graph(4, bits), 3))


def test_battery_cycle5():
    reports = run_battery(cycle(5), 2)
    assert not violations(reports)
    ids = {r.bound_id for r in reports}
    assert {
        "nosal_lower",
        "nosal_upper",
        "csikvari_terpai",
        "top_sum_squares",
        "top_abs_sum",
        "top_pair_squares",
        "fs_upper",
        "bottom_sum_squares",
        "bottom_abs_sum",
        "bottom_pair_squares",
        "fns_upper",
        "subset_squares",
        "nonpositive_eigenvalue",
        "ramsey_sign",
        "weyl_upper",
        "weyl_lower",
    } <= ids


def test_battery_deterministic():
    g = erdos_renyi(12, 0.5, 9)
    first = [report_csv_row(r) for r in run_battery(g, 4)]
    second = [report_csv_row(r) for r in run_battery(g, 4)]
    assert first == second
    # sorted by (bound_id, parameter)
    keys = [(r.bound_id, -1 if r.param is None else r.param) for r in run_battery(g, 4)]
    assert keys == sorted(keys)


def test_battery_rejects_bad_s_max():
    with pytest.raises(ValueError):
        run_battery(complete(3), 0)
