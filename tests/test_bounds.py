"""The inequality table: worked examples, report keys at the edges,
exhaustive small-order soundness, Ramsey certificates, battery determinism."""

import math
from collections import Counter

import numpy as np
import pytest

import ngspectral.bounds
from battery_oracle import battery_rows

from ngspectral.bounds import (
    BOUNDS,
    Bound,
    BoundReport,
    _neighbor_masks,
    _sq,
    evaluate,
    ramsey_certificate,
    run_battery,
    table_reports,
    violations,
)
from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues
from ngspectral.graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    isomorphism_classes,
    masks_to_stack,
    path,
)
from ngspectral.reporting import render

SQ5 = math.sqrt(5)


def report(g, bound_id, param=None):
    """The (bound_id, param) report of the battery on g."""
    s_max = param if param is not None and param >= 1 else 1
    found = [r for r in run_battery(g, s_max) if (r.bound_id, r.param) == (bound_id, param)]
    assert len(found) == 1, (bound_id, param)
    return found[0]


def keys(g, s_max):
    return {(r.bound_id, r.param) for r in run_battery(g, s_max)}


def judged(bound_id, n, param, strict, lhs, rhs):
    """The applicable report that the table walk gives, at its default
    tolerance, for one row with the given constant sides at order n."""
    row = Bound(bound_id, strict, lambda n, s_max: [param],
                lambda v, p: lhs, lambda v, p: rhs, lambda v, p: True)
    w = np.zeros(n)
    (r,) = table_reports(w, w, 1, [row])
    return r


def test_nosal_regular_lower_tight():
    lower = report(complete(4), "nosal_lower")
    upper = report(complete(4), "nosal_upper")
    assert lower.rhs == pytest.approx(3.0, abs=1e-9)  # 3 + 0 meets n - 1 exactly
    assert lower.satisfied and upper.satisfied
    assert abs(lower.margin) <= 1e-9


def test_nosal_path4_self_complementary():
    lower = report(path(4), "nosal_lower")
    assert lower.rhs == pytest.approx(1 + SQ5, abs=1e-9)  # twice the golden ratio
    assert lower.satisfied and report(path(4), "nosal_upper").satisfied


def test_nosal_order_one_strict_boundary():
    # 0 < sqrt(2)*(n-1) = 0 fails as a strict inequality but passes at tolerance
    upper = report(Graph(1), "nosal_upper")
    assert upper.strict and upper.satisfied
    assert upper.margin == pytest.approx(0.0, abs=1e-12)


def test_csikvari_terpai_examples():
    assert report(Graph(1), "csikvari_terpai").satisfied
    r = report(complete(4), "csikvari_terpai")
    assert r.lhs == pytest.approx(3.0, abs=1e-9)
    assert r.rhs == pytest.approx(16 / 3 - 1, abs=1e-12)


def test_sum_squares_top_examples():
    r = report(cycle(5), "top_sum_squares", 2)
    assert r.applicable and r.strict
    assert r.lhs == pytest.approx(2 * ((SQ5 - 1) / 2) ** 2, abs=1e-9)
    assert r.rhs == pytest.approx(6.25)
    for n in (4, 6, 9):
        r = report(complete(n), "top_sum_squares", 2)
        assert r.lhs == pytest.approx(1.0, abs=1e-9)
        assert r.satisfied
    # the top family starts at s = 2
    assert ("top_sum_squares", 1) not in keys(complete(4), 3)


def test_sum_squares_top_applicability_gate():
    # n >= 3s - 2 fails: report emitted but never asserted
    r = report(complete(4), "top_sum_squares", 3)
    assert not r.applicable


def test_abs_sum_top_examples():
    r = report(complete(6), "top_abs_sum", 2)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(6 / math.sqrt(2))
    r = report(cycle(5), "top_abs_sum", 2)
    assert r.lhs == pytest.approx(SQ5 - 1, abs=1e-9)
    assert r.satisfied


def test_pair_top_examples():
    r = report(complete(4), "top_pair_squares", 2)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(4.0)
    r = report(cycle(5), "top_pair_squares", 2)
    assert r.lhs == pytest.approx(2 * ((SQ5 - 1) / 2) ** 2, abs=1e-9)
    assert r.rhs == pytest.approx(25 / 4)


def test_pair_top_extremal_margin_is_small():
    # the construction pushes toward the bound: margin positive but tiny vs n^2
    r = report(extremal_graph(2, 4), "top_pair_squares", 3)
    assert r.applicable
    assert 0 < r.margin < 32
    assert r.rhs == pytest.approx(32**2 / 8)


def test_fs_upper_examples():
    r = report(complete(30), "fs_upper", 2)
    assert r.applicable
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(30 / math.sqrt(2) - 1)
    r = report(complete(10), "fs_upper", 2)
    assert not r.applicable  # needs n >= 15


def test_fs_upper_extremal_graphs_approach_bound():
    for t in (8, 16):
        g = extremal_graph(1, t)
        r = report(g, "fs_upper", 2)
        assert r.applicable and r.satisfied
        assert 0 <= r.margin <= 1 + 1e-9
        assert abs(r.lhs / g.n - 1 / math.sqrt(2)) <= 2 / g.n


def test_sum_squares_bottom_example():
    r = report(complete_bipartite(2, 2), "bottom_sum_squares", 1)
    assert r.applicable
    assert r.lhs == pytest.approx(5.0, abs=1e-9)  # 4 + 1
    assert r.rhs == pytest.approx(9.0)
    r = report(empty(8), "bottom_sum_squares", 1)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)  # complement K_8 contributes 1
    assert r.satisfied


def test_abs_sum_bottom_example():
    r = report(complete_bipartite(2, 2), "bottom_abs_sum", 1)
    assert r.lhs == pytest.approx(3.0, abs=1e-9)
    assert r.rhs == pytest.approx(3 * math.sqrt(2))
    # the bottom family starts at s = 1
    assert ("bottom_abs_sum", 0) not in keys(Graph(1), 1)


def test_pair_bottom_balanced_bipartite_identity():
    r = report(complete_bipartite(5, 5), "bottom_pair_squares", 1)
    assert r.applicable  # n = 10 > 4
    assert r.lhs == pytest.approx(10**2 / 4 + 1, abs=1e-9)
    assert r.rhs == pytest.approx(36.0)
    assert r.satisfied


def test_pair_bottom_boundary_not_applicable():
    # n = 4^s exactly is outside the strict precondition
    assert not report(complete(4), "bottom_pair_squares", 1).applicable
    assert report(complete(5), "bottom_pair_squares", 1).applicable
    for seed in range(5):
        r = report(erdos_renyi(17, 0.5, seed), "bottom_pair_squares", 2)
        assert r.applicable and r.satisfied


def test_fns_upper_examples():
    r = report(complete_bipartite(5, 5), "fns_upper", 1)
    assert r.lhs == pytest.approx(6.0, abs=1e-9)
    assert r.rhs == pytest.approx(10 / math.sqrt(2) + 1)
    r = report(complete(6), "fns_upper", 1)
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.satisfied
    # boundary n = 4^s is applicable here (non-strict precondition)
    assert report(complete(4), "fns_upper", 1).applicable


def test_subset_squares_examples():
    # the battery checks the full index set {2..n}; its sum of squares
    # bounds that of every subset, so no subset can do worse
    r = report(complete(5), "subset_squares", 4)
    assert r.lhs == pytest.approx(4.0, abs=1e-9)  # four eigenvalues -1
    assert r.satisfied
    r = report(complete_bipartite(2, 2), "subset_squares", 3)
    assert r.lhs == pytest.approx(4.0, abs=1e-9)
    assert r.rhs == pytest.approx(4.0)
    assert r.satisfied  # tight
    r = report(Graph(1), "subset_squares", 0)
    assert r.lhs == 0.0 and r.satisfied  # the empty index set
    for seed in range(10):
        assert report(erdos_renyi(9, 0.5, seed), "subset_squares", 8).satisfied


def test_subset_squares_tolerance_scales_with_magnitude():
    # K_{2048,2048} meets the bound with equality; eigvalsh rounding at n=4096
    # left lhs above rhs by 3.9e-8, more than the absolute tolerance 1e-8
    r = judged("subset_squares", 4096, 4095, False, 4194304.000000039, 4194304.0)
    assert r.margin < -r.tol
    assert r.satisfied and not r.violated
    # a relative excess well above the tolerance is still a violation
    over = 4194304.0 * (1 + 1e-6)
    assert judged("subset_squares", 4096, 4095, False, over, 4194304.0).violated
    # below magnitude 1 the tolerance stays absolute
    assert judged("weyl_upper", 4, 2, False, 0.5 + 2e-8, 0.5).violated
    assert judged("nosal_upper", 4, None, True, 0.5 + 5e-9, 0.5).satisfied


def test_bound_report_is_immutable():
    r = judged("nosal_upper", 4, None, True, 0.5, 1.0)
    assert r.tol == 1e-8 and r.margin == 0.5
    with pytest.raises(AttributeError):
        r.lhs = 2.0


def test_nonpositive_eigenvalue_examples():
    r = report(complete(4), "nonpositive_eigenvalue", 2)
    assert r.applicable
    assert r.lhs == pytest.approx(1.0, abs=1e-9)
    assert r.rhs == pytest.approx(4 / (2 * math.sqrt(3)))
    # mu_2 > 0: gated out
    two_edges = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert not report(two_edges, "nonpositive_eigenvalue", 2).applicable
    r = report(complete_bipartite(2, 2), "nonpositive_eigenvalue", 4)
    assert r.lhs == pytest.approx(2.0, abs=1e-9)
    assert r.rhs == pytest.approx(2.0)
    assert r.satisfied  # tight
    # s runs over 2..min(s_max, n)
    found = keys(complete(4), 9)
    assert ("nonpositive_eigenvalue", 1) not in found
    assert ("nonpositive_eigenvalue", 4) in found
    assert ("nonpositive_eigenvalue", 5) not in found


def test_ramsey_sign_all_order4_graphs():
    for bits in range(64):
        r = report(Graph(4, bits), "ramsey_sign", 1)
        assert r.applicable and r.satisfied


def test_ramsey_sign_k0_not_applicable():
    r = report(complete(4), "ramsey_sign", 0)
    assert not r.applicable
    assert math.isnan(r.lhs)  # k = 0 would index mu_{n+1}
    assert {k for b, k in keys(complete(4), 3) if b == "ramsey_sign"} == {0, 1}


def test_ramsey_sign_k2_random():
    for seed in range(8):
        r = report(erdos_renyi(16, 0.5, seed), "ramsey_sign", 2)
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
    upper = report(complete(4), "weyl_upper", 2)
    lower = report(complete(4), "weyl_lower", 2)
    assert upper.lhs == pytest.approx(-1.0, abs=1e-9)  # -1 + 0, tight
    assert lower.rhs == pytest.approx(-1.0, abs=1e-9)
    assert upper.satisfied and lower.satisfied
    reports = run_battery(cycle(5), 2)
    assert {r.param for r in reports if r.bound_id == "weyl_upper"} == {2, 3, 4, 5}
    assert not violations(r for r in reports if r.bound_id.startswith("weyl"))
    # k runs over 2..n
    found = keys(complete(4), 1)
    assert ("weyl_upper", 1) not in found and ("weyl_lower", 5) not in found


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
    first = render(run_battery(g, 4), "csv", BoundReport)
    second = render(run_battery(g, 4), "csv", BoundReport)
    assert first == second
    # sorted by (bound_id, parameter)
    keys = [(r.bound_id, -1 if r.param is None else r.param) for r in run_battery(g, 4)]
    assert keys == sorted(keys)


def test_battery_rejects_bad_s_max(monkeypatch):
    with pytest.raises(ValueError):
        run_battery(complete(3), 0)
    # above the order cap every s is inapplicable to every graph accepted, and
    # the padded prefix sums would grow quadratically in s_max
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    assert len(run_battery(complete(4), 8)) > 0
    with pytest.raises(ValueError, match="exceeds the graph-order cap 8"):
        run_battery(complete(4), 9)
    w = np.zeros((1, 4))
    with pytest.raises(ValueError, match="exceeds the graph-order cap 8"):
        evaluate(w, w, 9)


def test_battery_checks_s_max_before_the_eigensolve(monkeypatch):
    def no_solve(g):
        raise AssertionError("eigensolve ran before the s_max check")

    monkeypatch.setattr(ngspectral.bounds, "spectrum_pair", no_solve)
    with pytest.raises(ValueError, match="s_max must be at least 1, got 0"):
        run_battery(complete(3), 0)
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    with pytest.raises(ValueError, match="s_max 9 exceeds the graph-order cap 8"):
        run_battery(complete(4), 9)


def test_battery_report_keys_at_the_edges():
    # s > n gives NaN lhs; k = 0 is the inapplicable ramsey_sign row
    one = [(r.bound_id, r.param, r.applicable) for r in run_battery(Graph(1), 3)]
    assert one == [
        ("bottom_abs_sum", 1, False), ("bottom_abs_sum", 2, False), ("bottom_abs_sum", 3, False),
        ("bottom_pair_squares", 1, False), ("bottom_pair_squares", 2, False),
        ("bottom_pair_squares", 3, False),
        ("bottom_sum_squares", 1, False), ("bottom_sum_squares", 2, False),
        ("bottom_sum_squares", 3, False),
        ("csikvari_terpai", None, True),
        ("fns_upper", 1, False), ("fns_upper", 2, False), ("fns_upper", 3, False),
        ("fs_upper", 2, False), ("fs_upper", 3, False),
        ("nosal_lower", None, True), ("nosal_upper", None, True),
        ("ramsey_sign", 0, False),
        ("subset_squares", 0, True),
        ("top_abs_sum", 2, False), ("top_abs_sum", 3, False),
        ("top_pair_squares", 2, False), ("top_pair_squares", 3, False),
        ("top_sum_squares", 2, False), ("top_sum_squares", 3, False),
    ]
    nan = {(r.bound_id, r.param) for r in run_battery(Graph(1), 3) if math.isnan(r.lhs)}
    sums = ["bottom_abs_sum", "bottom_pair_squares", "bottom_sum_squares", "fns_upper",
            "fs_upper", "top_abs_sum", "top_pair_squares", "top_sum_squares"]
    assert nan == {(b, s) for b in sums for s in (2, 3)} | {("ramsey_sign", 0)}
    # n = 4^s: fns_upper (n >= 4^s) applies, bottom_pair_squares (n > 4^s) does not
    four = [(r.bound_id, r.param, r.applicable) for r in run_battery(complete(4), 2)]
    assert four == [
        ("bottom_abs_sum", 1, True), ("bottom_abs_sum", 2, False),
        ("bottom_pair_squares", 1, False), ("bottom_pair_squares", 2, False),
        ("bottom_sum_squares", 1, True), ("bottom_sum_squares", 2, False),
        ("csikvari_terpai", None, True),
        ("fns_upper", 1, True), ("fns_upper", 2, False),
        ("fs_upper", 2, False),
        ("nonpositive_eigenvalue", 2, True),
        ("nosal_lower", None, True), ("nosal_upper", None, True),
        ("ramsey_sign", 0, False), ("ramsey_sign", 1, True),
        ("subset_squares", 3, True),
        ("top_abs_sum", 2, True), ("top_pair_squares", 2, True), ("top_sum_squares", 2, True),
        ("weyl_lower", 2, True), ("weyl_lower", 3, True), ("weyl_lower", 4, True),
        ("weyl_upper", 2, True), ("weyl_upper", 3, True), ("weyl_upper", 4, True),
    ]
    nan = [(r.bound_id, r.param) for r in run_battery(complete(4), 2) if math.isnan(r.lhs)]
    assert nan == [("ramsey_sign", 0)]


def test_battery_report_counts_at_order_16():
    counts = Counter(r.bound_id for r in run_battery(erdos_renyi(16, 0.5, 0), 5))
    assert counts == {
        "bottom_abs_sum": 5, "bottom_pair_squares": 5, "bottom_sum_squares": 5, "fns_upper": 5,
        "csikvari_terpai": 1, "nosal_lower": 1, "nosal_upper": 1, "subset_squares": 1,
        "fs_upper": 4, "top_abs_sum": 4, "top_pair_squares": 4, "top_sum_squares": 4,
        "nonpositive_eigenvalue": 4, "ramsey_sign": 3, "weyl_lower": 15, "weyl_upper": 15,
    }
    assert set(counts) == {b.bound_id for b in BOUNDS}


def test_squares_match_python_pow():
    # the reports keep the bits of Python's v ** 2 (C pow), which is not
    # always the rounded v * v that numpy's ** 2 gives
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 500)) * 2.0 ** rng.integers(-20, 20, size=(200, 1))
    for view in (x, x[:, ::-1], x[::3, 7:300:2]):
        want = np.array([v**2 for v in view.ravel().tolist()]).reshape(view.shape)
        assert np.array_equal(_sq(view).view(np.int64), want.view(np.int64))
    assert not np.array_equal(x * x, _sq(x))


def _bits(rows):
    return [(b, p, a, st, lhs.hex(), rhs.hex()) for b, p, a, st, lhs, rhs in rows]


def test_battery_matches_plain_python_oracle():
    # every lhs and rhs bit, signed zeros and NaN included; s_max = 12 runs
    # the top sums past the length where np.sum would add pairwise, and
    # s_max = 40 takes the 4^s preconditions past the int64 range at n = 64
    graphs = [Graph(n, bits) for n in range(1, 5) for bits in range(1 << (n * (n - 1) // 2))]
    graphs += [complete_bipartite(3, 5), complete_bipartite(6, 6), cycle(9), extremal_graph(2, 2)]
    graphs += [erdos_renyi(n, p, n) for n in (16, 40, 64) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        wg, wc = complement_pair_eigenvalues(g.adjacency_matrix())
        for s_max in (1, 3, 12, 40):
            got = [(r.bound_id, r.param, r.applicable, r.strict, r.lhs, r.rhs)
                   for r in run_battery(g, s_max)]
            want = battery_rows(wg.tolist(), wc.tolist(), s_max, 1e-8)
            assert _bits(got) == _bits(want), (g.n, g.bits, s_max)


def test_batch_evaluation_matches_battery_per_graph():
    graphs = [erdos_renyi(9, p, seed) for p in (0.2, 0.5, 0.8) for seed in range(10)]
    graphs += [complete(9), empty(9), cycle(9), complete_bipartite(4, 5)]
    spectra = [complement_pair_eigenvalues(g.adjacency_matrix()) for g in graphs]
    wg = np.array([pair[0] for pair in spectra])
    wc = np.array([pair[1] for pair in spectra])
    ev = evaluate(wg, wc, 4)
    for b, g in enumerate(graphs):
        batched = {}
        for j, (row, p) in enumerate(zip(ev.rows, ev.params)):
            batched[row.bound_id, p] = (
                bool(ev.applicable[b, j]), float(ev.lhs[b, j]).hex(), float(ev.rhs[b, j]).hex()
            )
        single = {(r.bound_id, r.param): (r.applicable, r.lhs.hex(), r.rhs.hex())
                  for r in run_battery(g, 4)}
        assert batched == single


def test_table_sound_on_every_class_at_order_8():
    # every isomorphism class of order 8; the set is closed under
    # complement, so one orientation covers both.  s_max = 8 reaches every
    # parameter that applies at n = 8.
    classes = isomorphism_classes(8)
    assert classes.size == 12346
    wg, wc = complement_pair_eigenvalues(masks_to_stack(classes, 8))
    tol = 1e-8
    applicable_ids = set()
    ev = evaluate(wg, wc, 8, tol)
    ids = np.array([row.bound_id for row in ev.rows])
    for bound in BOUNDS:
        cols = ids == bound.bound_id
        lhs, rhs, applicable = ev.lhs[:, cols], ev.rhs[:, cols], ev.applicable[:, cols]
        margin = rhs - lhs
        slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        ok = margin > -slack if bound.strict else margin >= -slack
        assert np.array_equal(ev.satisfied[:, cols], ok), bound.bound_id
        bad = applicable & ~ok
        assert not bad.any(), (bound.bound_id, classes[np.nonzero(bad)[0][0]])
        if applicable.any():
            applicable_ids.add(bound.bound_id)
    # fs_upper needs n >= 15 and is the only row that never applies here
    assert applicable_ids == {b.bound_id for b in BOUNDS} - {"fs_upper"}
