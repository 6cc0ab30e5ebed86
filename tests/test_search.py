"""Exhaustive and hill-climbing extremal search."""

import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import ngspectral.graphs
import ngspectral.search
from class_oracle import all_classes, brute_force_pair_classes
from labelled_oracle import labelled_exhaustive_f
from local_oracle import local_oracle
from ngspectral.constructions import extremal_graph
from ngspectral.eigensolver import complement_pair_eigenvalues, complement_pair_eigh
from ngspectral.graph6 import parse_graph6
from ngspectral.graphs import (
    EXHAUSTIVE_CAP,
    Graph,
    canonical_masks,
    complement,
    complement_pair_classes,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    extensions,
    labellings,
    masks_to_stack,
)
from ngspectral.search import (
    FAMILIES,
    SCORE_ENTRIES,
    TOP_FLIPS,
    _column,
    _constructive_starts,
    _extension_scores,
    _first_order_mu,
    _flipped_stack,
    _pair_scores,
    exhaustive_f,
    local_search_f,
    objective,
    ratio_table,
    target_ratio,
)
from ngspectral.spectra import DEFAULT_TOL

SQ5 = math.sqrt(5)


def _mask_scores(masks, n, s, family):
    """The objective of each order-n mask, through the search's kernel."""
    col = _column(n, s, family)
    return _pair_scores(masks.size, n, lambda lo, hi: masks_to_stack(masks[lo:hi], n), col)


def test_objective_complement_symmetry():
    for seed in range(6):
        g = erdos_renyi(7, 0.5, seed)
        for s, family in [(2, "top"), (3, "top"), (1, "bottom"), (2, "bottom")]:
            assert objective(g, s, family) == pytest.approx(
                objective(complement(g), s, family), abs=1e-8
            )


def test_objective_relabel_invariance():
    g = erdos_renyi(6, 0.5, 4)
    perm = {1: 3, 2: 6, 3: 1, 4: 5, 5: 2, 6: 4}
    h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
    for s, family in [(2, "top"), (1, "bottom")]:
        assert objective(g, s, family) == pytest.approx(objective(h, s, family), abs=1e-8)


def test_exhaustive_two_vertices():
    # both graphs on 2 vertices score 1; the lexicographically smaller graph6
    # string among the maximizers is the edgeless one
    rec = exhaustive_f(2, 2, "top")
    assert rec.value == pytest.approx(1.0, abs=1e-9)
    assert rec.witness == "A?"
    assert rec.exact and rec.method == "exhaustive"
    assert rec.evaluations == 1
    assert rec.seed is None


def test_exhaustive_order4_bottom():
    # the 64-graph oracle: a labeled path on 4 vertices beats the 4-cycle's 3
    rec = exhaustive_f(4, 1, "bottom")
    assert rec.value == pytest.approx(1 + SQ5, abs=1e-9)
    assert rec.witness == "CL"
    witness = parse_graph6(rec.witness)
    assert sorted(witness.degrees()) == [1, 1, 2, 2]
    assert rec.evaluations == 32


def test_exhaustive_witness_rescores_to_value():
    # the value is the witness's score, bit for bit, as for local search
    missed = []
    for n in range(1, EXHAUSTIVE_CAP + 1):
        for _, s, family in _all_cases(n):
            rec = exhaustive_f(n, s, family)
            if objective(parse_graph6(rec.witness), s, family) != rec.value:
                missed.append((n, s, family))
    assert not missed, missed


def test_exhaustive_f2_below_upper_bracket():
    for n in range(2, 6):
        rec = exhaustive_f(n, 2, "top")
        assert rec.value < n / math.sqrt(2)


def test_exhaustive_deterministic_and_sharded():
    a = exhaustive_f(5, 2, "top")
    b = exhaustive_f(5, 2, "top")
    assert a == b
    # the labelled oracle's shard split must not change its reduction either
    c = labelled_exhaustive_f(5, 2, "top", shard_size=64)
    assert c == a


def _all_cases(n):
    return [(n, s, "top") for s in range(2, n + 1)] + [(n, s, "bottom") for s in range(1, n + 1)]


@pytest.mark.parametrize(
    "n,s,family",
    [case for n in range(1, 8) for case in _all_cases(n)],
)
def test_exhaustive_matches_labelled_oracle(n, s, family):
    # == on the whole record: the value bit for bit, the witness, the counts;
    # the oracle enumerates each order once, for every (s, family)
    assert exhaustive_f(n, s, family) == labelled_exhaustive_f(n, s, family)


# (n, s, family) -> (value.hex(), witness, evaluations) of exhaustive_f:
# every instance at order 7 and three at order 8, from the search that
# scored every class of order n - 1.  Each value is its witness's score
EXACT_RECORDS = {
    (7, 2, "top"): ("0x1.8fc1ecd5fda0ap+1", "F@NMO", 1048576),
    (7, 3, "top"): ("0x1.0642ec62ba521p+1", "F@Ue?", 1048576),
    (7, 4, "top"): ("0x1.3c6ef372fe94ep+0", "F@U^?", 1048576),
    (7, 5, "top"): ("0x1.9e3779b97f4a9p+1", "F@U^?", 1048576),
    (7, 6, "top"): ("0x1.032176315d290p+2", "F@Ue?", 1048576),
    (7, 7, "top"): ("0x1.4dbe9091fbc1cp+2", "F@rN_", 1048576),
    (7, 1, "bottom"): ("0x1.4dbe9091fbc1cp+2", "F@rN_", 1048576),
    (7, 2, "bottom"): ("0x1.032176315d290p+2", "F@Ue?", 1048576),
    (7, 3, "bottom"): ("0x1.9e3779b97f4a9p+1", "F@U^?", 1048576),
    (7, 4, "bottom"): ("0x1.3c6ef372fe94ep+0", "F@U^?", 1048576),
    (7, 5, "bottom"): ("0x1.0642ec62ba521p+1", "F@Ue?", 1048576),
    (7, 6, "bottom"): ("0x1.8fc1ecd5fda0ap+1", "F@NMO", 1048576),
    (7, 7, "bottom"): ("0x1.ece664ccfff80p+2", "F?B~w", 1048576),
    (8, 3, "top"): ("0x1.3504f333f9de6p+1", "G@Umf?", 134217728),
    (8, 5, "top"): ("0x1.ffffffffffffdp+0", "G?K}][", 134217728),
    (8, 8, "bottom"): ("0x1.1ffffffffffffp+3", "G??F~{", 134217728),
}


@pytest.mark.parametrize("n,s,family", sorted(EXACT_RECORDS))
def test_exhaustive_records_pinned(n, s, family):
    rec = exhaustive_f(n, s, family)
    assert (rec.value.hex(), rec.witness, rec.evaluations) == EXACT_RECORDS[n, s, family]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("family", FAMILIES)
def test_score_masks_complement_symmetric(n, family):
    # the two eigvalsh inputs swap and |a| + |b| commutes: the same bits.
    # Over every mask in order, full ^ x runs the same masks backwards
    masks = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
    assert np.array_equal(masks ^ masks[-1], masks[::-1])
    for s in range(2 if family == "top" else 1, n + 1):
        scores = _mask_scores(masks, n, s, family)
        assert np.array_equal(scores, scores[::-1])


@pytest.mark.parametrize("s,family", [(2, "top"), (4, "top"), (1, "bottom"), (6, "bottom")])
def test_exhaustive_scores_one_graph_per_complement_pair(monkeypatch, s, family):
    candidates, table = _extension_scores(6)
    scored = []

    def recording(count, n, build, col=None):
        scored.append(np.array([Graph.from_adjacency(a).bits for a in build(0, count)]))
        return _pair_scores(count, n, build, col)

    monkeypatch.setattr(ngspectral.search, "_pair_scores", recording)
    rec = exhaustive_f(6, s, family)
    (witness,) = scored
    # 18 of the 34 classes of order 5, one per complement pair, times 2^5
    # neighbour sets of vertex 6, each with one score per eigenvalue index
    assert candidates.size == 576 and table.shape == (576, 6)
    assert np.array_equal(candidates, extensions(complement_pair_classes(5), 6))
    # the table's column is the objective, bit for bit
    col = s - 1 if family == "top" else 6 - s
    assert np.array_equal(table[:, col], _mask_scores(candidates, 6, s, family))
    # with the order's table built, only the witness went through the kernel
    assert witness.tolist() == [parse_graph6(rec.witness).bits]


def test_extension_scores_solved_once_per_order(monkeypatch):
    solved, scored = [], []

    def counting(stack):
        solved.append(stack.shape[0])
        return complement_pair_eigenvalues(stack)

    def recording(count, n, build, col=None):
        scored.append(count)
        return _pair_scores(count, n, build, col)

    _extension_scores.cache_clear()
    monkeypatch.setattr(ngspectral.search, "complement_pair_eigenvalues", counting)
    monkeypatch.setattr(ngspectral.search, "_pair_scores", recording)
    exhaustive_f(6, 2, "top")
    # the 576 candidates, then the witness alone
    assert scored == [576, 1] and sum(solved) == 577
    solved.clear()
    exhaustive_f(6, 1, "bottom")
    assert scored == [576, 1, 1] and solved == [1]
    assert _extension_scores.cache_info().currsize == 1


def test_extension_scores_read_only():
    candidates, table = _extension_scores(5)
    assert not candidates.flags.writeable and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        candidates[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    assert _extension_scores(5)[1] is table


def test_rejected_exhaustive_call_builds_no_table():
    _extension_scores.cache_clear()
    for n, s, family, tol in [
        (9, 2, "top", DEFAULT_TOL),
        (6, 7, "top", DEFAULT_TOL),
        (6, 1, "top", DEFAULT_TOL),
        (6, 2, "middle", DEFAULT_TOL),
        (6, 2, "top", 0.0),
        (6, 2, "top", math.nan),
    ]:
        with pytest.raises(ValueError):
            exhaustive_f(n, s, family, tol=tol)
    assert _extension_scores.cache_info().currsize == 0


@pytest.mark.parametrize("n", sorted({n for n, _, _ in EXACT_RECORDS}))
def test_exhaustive_records_cold_and_warm(n):
    # each pin from a cleared table, then again once every (s, family) of
    # the order has read the same table
    pins = {key: pin for key, pin in EXACT_RECORDS.items() if key[0] == n}

    def record(s, family):
        rec = exhaustive_f(n, s, family)
        return rec.value.hex(), rec.witness, rec.evaluations

    for (_, s, family), pin in pins.items():
        _extension_scores.cache_clear()
        assert record(s, family) == pin
    for _, s, family in _all_cases(n):
        exhaustive_f(n, s, family)
    for (_, s, family), pin in pins.items():
        assert record(s, family) == pin


def test_complement_pair_classes():
    # OEIS A007869, (A000088 + A000171) / 2: classes plus self-complementary
    # classes, halved
    counts = [complement_pair_classes(n).size for n in range(9)]
    assert counts == [1, 1, 1, 2, 6, 18, 78, 522, 6178]
    for n in range(2, 9):
        reps = complement_pair_classes(n)
        full = (1 << n * (n - 1) // 2) - 1
        # each pair once, by the smaller canonical mask of its two classes
        assert np.array_equal(canonical_masks(reps, n), reps)
        assert (reps <= canonical_masks(reps ^ full, n)).all()
        assert (np.diff(reps) > 0).all()
    assert not complement_pair_classes(5).flags.writeable


@pytest.mark.parametrize("n", range(7))
def test_complement_pair_classes_match_brute_force(n):
    # every labelled graph of order n and its complement, canonicalized
    assert np.array_equal(complement_pair_classes(n), brute_force_pair_classes(n))


def test_exhaustive_rejects_a_tie_band_too_wide_to_relabel(monkeypatch):
    def no_labellings(classes, n):
        raise AssertionError("labellings built")

    monkeypatch.setattr(ngspectral.search, "labellings", no_labellings)
    # 1e9 puts every extension of the order in the band, all canonicalized
    # before the classes are counted
    for tol in (1.0, 1e9):
        with pytest.raises(ValueError, match=rf"tol={tol} leaves more than 208 classes of order 8"):
            exhaustive_f(8, 2, "top", tol=tol)


def test_isomorphism_class_counts():
    # OEIS A000088: graphs on n unlabelled vertices
    counts = [all_classes(n).size for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


# order -> (class count, sum of the class masks, sha256 prefix of the masks
# as little-endian int64), over every class: the pair classes and their
# complements' canonical forms.  The count and invariance tests accept any
# canonical labelling; these pin the representatives themselves.
CLASS_DIGESTS = {
    0: (1, 0, "af5570f5a1810b7a"),
    1: (1, 0, "af5570f5a1810b7a"),
    2: (2, 1, "9d34149fbd1fe777"),
    3: (4, 17, "4b98e917857295e3"),
    4: (11, 459, "c7f4f5dc70c39b12"),
    5: (34, 25372, "af3b5941164c8111"),
    6: (156, 3746451, "8d5369c45be3dad5"),
    7: (1044, 1643811301, "99615f42d502df29"),
    8: (12346, 2516343922332, "2ae045ee262d592f"),
}


@pytest.mark.parametrize("n", sorted(CLASS_DIGESTS))
def test_isomorphism_class_representatives_pinned(n):
    classes = all_classes(n)
    digest = hashlib.sha256(classes.astype("<i8").tobytes()).hexdigest()[:16]
    assert (classes.size, int(classes.sum()), digest) == CLASS_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_labellings_of_every_class_are_every_labelled_graph(n):
    # each of the 2^(n(n-1)/2) labelled graphs appears exactly once
    masks = labellings(all_classes(n), n)
    assert np.array_equal(masks, np.arange(1 << n * (n - 1) // 2))


def test_isomorphism_classes_capped():
    # order 9 would take about 38 s, and pair masks overflow int64 from order 12
    with pytest.raises(ValueError, match="n <= 8, got n=9"):
        complement_pair_classes(9)
    with pytest.raises(ValueError, match="got n=-1"):
        complement_pair_classes(-1)
    assert complement_pair_classes(0).tolist() == [0]


def test_isomorphism_classes_built_once_and_read_only(monkeypatch):
    first = exhaustive_f(6, 2, "top")
    classes = complement_pair_classes(5)

    def no_build(masks, k):
        raise AssertionError("classes canonicalized again")

    # search keeps its own reference for the near-best candidates
    monkeypatch.setattr(ngspectral.graphs, "canonical_masks", no_build)
    assert complement_pair_classes(5) is classes
    assert exhaustive_f(6, 2, "top") == first
    assert not classes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        classes[0] = 1


def test_permutation_tables_built_once_and_read_only(monkeypatch):
    labelled = labellings(all_classes(5), 5)
    table = ngspectral.graphs._cell_table((5,))
    assert table.shape == (120, 5) and len({tuple(row) for row in table}) == 120

    def no_build(*args):
        raise AssertionError("permutations listed again")

    monkeypatch.setattr(ngspectral.graphs, "_permutations", no_build)
    assert ngspectral.graphs._cell_table((5,)) is table
    assert np.array_equal(labellings(all_classes(5), 5), labelled)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    # cells of 2 and 3 positions: 2! 3! rows, each cell mapped onto itself
    cells = ngspectral.graphs._cell_table((2, 3))
    assert cells.shape == (12, 5)
    assert (np.sort(cells[:, :2], axis=1) == [0, 1]).all()
    assert (np.sort(cells[:, 2:], axis=1) == [2, 3, 4]).all()


@pytest.mark.parametrize("cells", [(5,), (2, 3), (1, 2, 2), (7,)])
def test_cell_table_rows_in_itertools_order(cells):
    # the product of each cell's permutations, row for row, in order
    bounds = np.cumsum((0, *cells)).tolist()
    runs = [itertools.permutations(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    expected = [list(sum(p, ())) for p in itertools.product(*runs)]
    assert ngspectral.graphs._cell_table(cells).tolist() == expected


def test_canonical_form_is_a_relabelling_invariant_labelling():
    rng = np.random.default_rng(5)
    for n in (5, 7, 8):
        m = n * (n - 1) // 2
        masks = rng.integers(0, 1 << m, size=40, dtype=np.int64)
        canon = canonical_masks(masks, n)
        for mask, form in zip(masks.tolist(), canon.tolist()):
            g = Graph(n, mask)
            perm = rng.permutation(n) + 1
            h = Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])
            assert canonical_masks(np.array([h.bits]), n)[0] == form
            # the form is a labelling of g: same degrees, same spectrum pair
            f = Graph(n, form)
            assert sorted(f.degrees()) == sorted(g.degrees())
            assert objective(f, 2, "top") == pytest.approx(objective(g, 2, "top"), abs=1e-9)
    # the regular graphs of order 7 fall in one refinement cell
    c7 = Graph.from_edges(7, [(i, i % 7 + 1) for i in range(1, 8)])
    c3c4 = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    assert len(set(canonical_masks(np.array([c7.bits, c3c4.bits]), 7).tolist())) == 2


def test_exhaustive_order8_within_budget():
    start = time.perf_counter()
    rec = exhaustive_f(8, 2, "top")
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"exhaustive_f(8) took {elapsed:.1f} s"
    assert rec.evaluations == 1 << 27
    assert rec.value < 8 / math.sqrt(2)
    assert rec.value >= local_search_f(8, 2, "top", 0).value - DEFAULT_TOL
    assert objective(parse_graph6(rec.witness), 2, "top") == pytest.approx(rec.value, abs=1e-9)


def test_exhaustive_cap():
    # n = 8 is allowed without an opt-in: test_exhaustive_order8_within_budget
    assert EXHAUSTIVE_CAP == 8
    with pytest.raises(ValueError, match="capped at n <= 8"):
        exhaustive_f(9, 2, "top")


def test_exhaustive_validation():
    with pytest.raises(ValueError):
        exhaustive_f(4, 1, "top")  # top needs s >= 2
    with pytest.raises(ValueError):
        exhaustive_f(4, 0, "bottom")
    with pytest.raises(ValueError):
        exhaustive_f(4, 2, "middle")


def test_local_search_dominates_starts():
    n, s, family, seed = 8, 2, "top", 3
    rec = local_search_f(n, s, family, seed, iterations=20, restarts=3)
    for r in range(3):
        start = erdos_renyi(n, 0.5, seed + r)
        assert rec.value >= objective(start, s, family) - 1e-9
    assert not rec.exact
    assert rec.method == "local_search"
    assert rec.seed == seed


def test_local_search_uses_constructive_start():
    # n = 16 = 2^(k+1) t with k=2, t=2 matches s = 2^(k-1)+1 = 3
    rec = local_search_f(16, 3, "top", seed=1, iterations=5, restarts=1)
    assert rec.value >= objective(extremal_graph(2, 2), 3, "top") - 1e-9


def test_local_search_deterministic():
    a = local_search_f(9, 2, "top", seed=5, iterations=10, restarts=2)
    b = local_search_f(9, 2, "top", seed=5, iterations=10, restarts=2)
    assert a == b


def test_local_search_witness_rescores():
    rec = local_search_f(7, 1, "bottom", seed=2, iterations=15, restarts=2)
    assert objective(parse_graph6(rec.witness), 1, "bottom") == pytest.approx(
        rec.value, abs=1e-9
    )
    exact = exhaustive_f(7, 1, "bottom")
    assert rec.value <= exact.value + 1e-9


# local_search_f records within tol of exhaustive_f, over seeds 0-4 and every
# s < n of both families: 23 of 55 at n = 7 and 25 of 65 at n = 8 with the
# default climb.  A better climb raises these floors
LOCAL_HITS_FLOOR = {7: 23, 8: 25}


@pytest.mark.parametrize("n", sorted(LOCAL_HITS_FLOOR))
def test_local_search_hits_the_exact_optimum(n):
    hits, gaps = 0, []  # gaps: (relative gap, s, family, seed) of every run
    for _, s, family in _all_cases(n):
        if s == n:
            continue
        exact = exhaustive_f(n, s, family).value
        for seed in range(5):
            value = local_search_f(n, s, family, seed).value
            assert value <= exact + DEFAULT_TOL, (n, s, family, seed, value, exact)
            hits += value >= exact - DEFAULT_TOL
            gaps.append(((exact - value) / exact, s, family, seed))
    assert hits >= LOCAL_HITS_FLOOR[n], f"{hits} of {len(gaps)} hits; worst relative gap {max(gaps)}"


@pytest.mark.parametrize("n", range(2, 10))
def test_local_search_matches_oracle_small_orders(n):
    # == on the whole record: the value bit for bit, the witness, the counts
    for _, s, family in _all_cases(n):
        for seed in range(3):
            assert local_search_f(n, s, family, seed) == local_oracle(n, s, family, seed)


@pytest.mark.parametrize(
    "args",
    [(16, 3, "top", 1), (20, 3, "top", 2)]
    + [(n, 2, family, 0, 8) for n in (16, 24, 32) for family in ("top", "bottom")],
)
def test_local_search_matches_oracle(args):
    assert local_search_f(*args) == local_oracle(*args)


@pytest.mark.parametrize("args", [(12, 2, "top", 0), (20, 3, "top", 2)])
def test_lockstep_climbs_that_stop_at_different_iterations(monkeypatch, args):
    # each climb leaves the batch when it stops; the others go on
    live = []

    def spy(stack):
        live.append(stack.shape[0])
        return complement_pair_eigh(stack)

    monkeypatch.setattr(ngspectral.search, "complement_pair_eigh", spy)
    rec = local_search_f(*args)
    assert live == sorted(live, reverse=True) and len(set(live)) >= 3, live
    assert rec == local_oracle(*args)


@pytest.mark.parametrize("args", [(48, 2, "top", 0, 6), (48, 4, "bottom", 1, 4)])
def test_local_search_matches_oracle_across_screen_blocks(args):
    # three seeded starts and one construction: each step ranks the 4512
    # flips of four climbs in one block, and rescores the top flips of all
    # four in one batch
    assert len(_constructive_starts(*args[:3])) == 1
    assert local_search_f(*args) == local_oracle(*args)


@pytest.mark.parametrize("args", [(16, 3, "top", 1, 50, 1), (24, 2, "bottom", 3, 50, 1)])
def test_local_search_one_restart_and_a_construction(args):
    assert len(_constructive_starts(*args[:3])) == 1
    assert local_search_f(*args) == local_oracle(*args)


def test_each_family_starts_from_its_construction():
    # extremal_graph(k, t) reaches the slope 1/sqrt(2q) of q = 2^(k-1), the
    # q of target_ratio: at top s = q + 1 to within 2 and at bottom s = q
    # (constructions.witness_check).  Climbs of both families start from
    # it; no other (n, s, family) gets a start
    for k in (1, 2, 3):
        q = 2 ** (k - 1)
        for n in range(2 ** (k + 1), 65, 2 ** (k + 1)):
            g = extremal_graph(k, n // 2 ** (k + 1))
            for s, family, slack in [(q + 1, "top", 2.0), (q, "bottom", 0.0)]:
                case = (n, s, family)
                assert _constructive_starts(n, s, family) == [g], case
                assert objective(g, s, family) >= n / math.sqrt(2**k) - slack - 1e-9, case
    for n in range(4, 65):
        assert _constructive_starts(n, 3, "bottom") == _constructive_starts(n, 4, "top") == [], n
    assert _constructive_starts(20, 2, "bottom") == []


# tracemalloc peak of local_search_f(32, 2, "bottom", 0, 5), in bytes, at the
# commit before the climbs ran in lockstep (numpy 2.4, Python 3.11).  Its
# peak is the rescoring of the construction's 256 tied leaders (the start
# was extremal_graph(1, 8) then; extremal_graph(2, 4) ties 256 as well);
# the lockstep steps rank the flips of up to four climbs at once and must
# stay below it
PEAK_BEFORE_LOCKSTEP = 4_469_704


def test_local_search_memory_stays_flat():
    local_search_f(32, 2, "bottom", 0, 5)
    tracemalloc.start()
    try:
        local_search_f(32, 2, "bottom", 0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * PEAK_BEFORE_LOCKSTEP, peak


def test_local_search_screens_each_step_in_one_block(monkeypatch):
    # each step ranks the flips of every running climb from one
    # complement_pair_eigh call and rescores TOP_FLIPS flips of each in one
    # _pair_scores call; the first call of the kernel scores the four starts
    # of order 32 (three seeded and the construction), the last the witness
    args = (32, 2, "bottom", 0)
    live, rescored = [], []

    def eigh_spy(stack):
        live.append(stack.shape[0])
        return complement_pair_eigh(stack)

    def score_spy(count, *call):
        rescored.append(count)
        return _pair_scores(count, *call)

    monkeypatch.setattr(ngspectral.search, "complement_pair_eigh", eigh_spy)
    monkeypatch.setattr(ngspectral.search, "_pair_scores", score_spy)
    rec = local_search_f(*args)
    assert rescored[0] == live[0] == 4 and rescored[-1] == 1, (rescored, live)
    assert rescored[1:-1] == [TOP_FLIPS * climbs for climbs in live], (rescored, live)
    assert rec == local_oracle(*args)


def test_each_step_rescores_at_most_top_flips_per_climb(monkeypatch):
    # the construction's start of order 96 ties 2304 flips for the best
    # first-order rank; the step rescores TOP_FLIPS of them, not all
    args = (96, 2, "bottom", 0, 1, 1)
    rescored = []

    def spy(count, *call):
        rescored.append(count)
        return _pair_scores(count, *call)

    monkeypatch.setattr(ngspectral.search, "_pair_scores", spy)
    rec = local_search_f(*args)
    assert rescored == [2, 2 * TOP_FLIPS, 1], rescored  # the starts, one step, the witness
    assert rec == local_oracle(*args)


def test_rescoring_batches_are_bounded_by_entries(monkeypatch):
    # each eigvalsh batch of the kernel holds at most SCORE_ENTRIES entries:
    # with room for 8 matrices of order 64, the 2 TOP_FLIPS flips of each of
    # the two steps take four batches, and the record is the one that whole
    # batches give
    args = (64, 2, "bottom", 0, 2, 1)
    n = args[0]
    batches = []

    def spy(stack):
        batches.append(stack.shape[0])
        return complement_pair_eigenvalues(stack)

    monkeypatch.setattr(ngspectral.search, "complement_pair_eigenvalues", spy)
    rec = local_search_f(*args)
    assert max(batches) == 2 * TOP_FLIPS, batches
    monkeypatch.setattr(ngspectral.search, "SCORE_ENTRIES", 8 * n * n)
    batches.clear()
    assert local_search_f(*args) == rec
    assert max(batches) == 8 and batches.count(8) == 8, batches
    assert (rec.value.hex(), rec.evaluations) == ("0x1.00109309dd0e5p+5", 8066)


def test_score_batches_keep_every_bit(monkeypatch):
    # each matrix and mask of a batch is solved on its own: eigvalsh batches
    # of a few matrices (48 of order 6, 35 of order 7, 3 of order 24),
    # relabellings in blocks of 1000 // m (100, 66 and 47 of the 5!, 6! and
    # 7! tables) and canonical forms of 1000 // k^2 masks give the bits of
    # whole batches, in the class build and in both engines
    batches, stacks = [], []

    def spy(stack):
        batches.append(stack.shape[0] * stack.shape[-1] ** 2)
        return complement_pair_eigenvalues(stack)

    def stack_spy(masks, n, dtype=np.float64):
        stacks.append(masks.size * n * n)
        return masks_to_stack(masks, n, dtype)

    def run():
        batches.clear()
        stacks.clear()
        for cache in (complement_pair_classes, _extension_scores):
            cache.cache_clear()
        arrays = [all_classes(n) for n in range(1, 7)]
        arrays += [labellings(all_classes(5), 5), _extension_scores(6)[1], _extension_scores(7)[1]]
        solved = len(batches)
        exact = exhaustive_f(7, 2, "top")
        # with the order's table built, pass 2 solves the witness alone
        assert batches[solved:] == [7 * 7], batches[solved:]
        return arrays, exact, local_search_f(24, 2, "top", 0)

    monkeypatch.setattr(ngspectral.search, "complement_pair_eigenvalues", spy)
    monkeypatch.setattr(ngspectral.graphs, "masks_to_stack", stack_spy)
    whole = run()
    calls, builds = len(batches), len(stacks)
    monkeypatch.setattr(ngspectral.search, "SCORE_ENTRIES", 3 * 24 * 24)
    monkeypatch.setattr(ngspectral.graphs, "SCORE_ENTRIES", 1000)
    split = run()
    assert max(batches) <= 3 * 24 * 24 and len(batches) > calls, (calls, len(batches))
    assert max(stacks) <= 1000 and len(stacks) > builds, (builds, len(stacks))
    assert all(np.array_equal(a, b) for a, b in zip(split[0], whole[0], strict=True))
    assert split[1:] == whole[1:]


# tracemalloc peaks of `labellings(all_classes(8)[:3], 8)` and of
# the canonical forms of three regular graphs of order 8 were 27.7 and 27.1
# MB when each graph's 8! relabellings were built in one block (numpy 2.4,
# Python 3.11).  A block now holds at most SCORE_ENTRIES pair bits, and its
# index and bit arrays, two of SCORE_ENTRIES int64 entries, are the largest
# live at once: 9.5 MB for both calls
RELABEL_PEAK_BOUND = 3 * 8 * SCORE_ENTRIES


def test_relabelling_memory_is_bounded():
    # C8, the cube and K_{4,4} are regular: one refinement cell, so their
    # canonical forms take all 8! relabellings, like every labelling
    cube = Graph.from_edges(8, [(a + 1, (a ^ d) + 1) for a in range(8) for d in (1, 2, 4) if a < a ^ d])
    regular = np.array([cycle(8).bits, cube.bits, complete_bipartite(4, 4).bits], dtype=np.int64)
    classes = all_classes(8)[:3]
    for call in (lambda: labellings(classes, 8), lambda: canonical_masks(regular, 8)):
        expected = call()  # builds the permutation table, kept for the process
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result, expected)
        assert peak <= RELABEL_PEAK_BOUND, peak


def test_local_search_without_flips():
    # one vertex has no pair to flip: every climb stops at its start
    rec = local_search_f(1, 1, "bottom", 0)
    exact = exhaustive_f(1, 1, "bottom")
    assert (rec.value, rec.witness) == (exact.value, exact.witness) == (0.0, "@")
    assert rec.evaluations == 3
    for _, s, family in _all_cases(2):
        rec = local_search_f(2, s, family, 0)
        assert rec == local_oracle(2, s, family, 0)
        assert rec.value == exhaustive_f(2, s, family).value


def _ranking_graphs(n):
    """Graphs of order n to rank flips on: two seeded G(n, 1/2), then the
    degenerate spectra of every extremal_graph(k, t) of order n, of
    K_{n/2, n/2} and of the empty graph, whose complement is complete."""
    yield erdos_renyi(n, 0.5, n)
    yield erdos_renyi(n, 0.5, n + 1)
    for k in range(1, 5):
        if n % 2 ** (k + 1) == 0:
            yield extremal_graph(k, n // 2 ** (k + 1))
    yield complete_bipartite(n // 2, n - n // 2)
    yield empty(n)


def _ranked_indices(n):
    return sorted({1, 2, 3, n // 2, n - 1, n})


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 16, 24, 32, 64])
def test_screen_matches_eigvalsh_on_every_flip(n):
    # where eigenvalue t of a spectrum is simple, its first-order value after
    # every flip is the slope of eigvalsh along the flip: a central
    # difference of A + eps D and A - eps D, D the flip's update, whose
    # complement moves by -eps D.  Only simple eigenvalues have a slope.  At
    # n = 64 only the two G(n, 1/2) run, which keeps the test to a few seconds
    eps = 1e-5
    iu, ju = np.triu_indices(n, 1)
    checked = 0
    for g in list(_ranking_graphs(n))[: 2 if n > 32 else None]:
        a = g.adjacency_matrix()
        d = 1.0 - 2.0 * a[iu, ju]
        rows = np.arange(iu.size)
        sides = []
        for sign in (1.0, -1.0):
            stack = np.repeat(a[None], iu.size, axis=0)
            stack[rows, iu, ju] = stack[rows, ju, iu] = a[iu, ju] + sign * eps * d
            sides.append(complement_pair_eigenvalues(stack))
        lam = np.stack(complement_pair_eigenvalues(a))
        gaps = np.abs(np.diff(lam, axis=-1))
        for t in _ranked_indices(n):
            mu = _first_order_mu(a[None], t, iu, ju)[0]
            for p in range(2):
                if gaps[p, max(t - 2, 0) : t].min() < 1e-2:
                    continue
                checked += 1
                slope = (sides[0][p][:, t - 1] - sides[1][p][:, t - 1]) / (2 * eps)
                assert np.allclose(mu[p], lam[p, t - 1] + slope, rtol=0, atol=1e-6), (n, g.bits, t, p)
    assert checked > 0


def _run(lam, t):
    """The indices of the eigenvalues within DEFAULT_TOL of eigenvalue t of
    the descending spectrum `lam`, found by walking out from t."""
    lo = hi = t - 1
    while lo > 0 and abs(lam[lo - 1] - lam[t - 1]) <= DEFAULT_TOL:
        lo -= 1
    while hi < lam.size - 1 and abs(lam[hi + 1] - lam[t - 1]) <= DEFAULT_TOL:
        hi += 1
    return np.arange(lo, hi + 1)


@pytest.mark.parametrize("n", [4, 6, 16])
def test_flip_problems_match_a_loop_over_spectra_and_runs(monkeypatch, n):
    # each flip's first-order problem, solved spectrum by spectrum and run by
    # run: eigenvalue t after the flip is mu_t plus eigenvalue (t's place in
    # its run c) of the run matrix Q_c' d(e_i e_j' + e_j e_i') Q_c, by
    # eigvalsh.  The closed form must give it within 1e-12, and must not move
    # when a random rotation of Q_c inside each eigenspace replaces the
    # basis eigh picked.  These spectra repeat eigenvalues
    iu, ju = np.triu_indices(n, 1)
    rng = np.random.default_rng(n)
    wide = 0

    def rotated(stack):
        lam, vec = complement_pair_eigh(stack)
        for index in np.ndindex(lam.shape[:-1]):
            cut = np.flatnonzero(np.diff(lam[index]) < -DEFAULT_TOL) + 1
            for run in np.split(np.arange(n), cut):
                turn = np.linalg.qr(rng.normal(size=(run.size, run.size)))[0]
                vec[index][:, run] = vec[index][:, run] @ turn
        return lam, vec

    for g in _ranking_graphs(n):
        a = g.adjacency_matrix()
        lam, vec = complement_pair_eigh(a)
        d = 1.0 - 2.0 * a[iu, ju]
        for t in _ranked_indices(n):
            mu = _first_order_mu(a[None], t, iu, ju)[0]
            for p, sign in enumerate([d, -d]):
                run = _run(lam[p], t)
                wide += run.size > 1
                u, v = vec[p][iu][:, run], vec[p][ju][:, run]
                update = u[:, :, None] * v[:, None, :]
                shifts = np.linalg.eigvalsh(sign[:, None, None] * (update + update.swapaxes(1, 2)))
                expected = lam[p, t - 1] + shifts[:, ::-1][:, t - 1 - run[0]]
                assert np.allclose(mu[p], expected, rtol=0, atol=1e-12), (n, g.bits, t, p)
            with monkeypatch.context() as patch:
                patch.setattr(ngspectral.search, "complement_pair_eigh", rotated)
                turned = _first_order_mu(a[None], t, iu, ju)[0]
            assert np.allclose(turned, mu, rtol=0, atol=1e-12), (n, g.bits, t)
    assert wide > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_screen_prunes_most_flips(monkeypatch, family):
    # a step from G(32, 1/2) rescores TOP_FLIPS of its 496 flips, and
    # eigvalsh's best flip is one of them
    n = 32
    start = erdos_renyi(n, 0.5, 0).adjacency_matrix()
    iu, ju = np.triu_indices(n, 1)
    col = _column(n, 2, family)
    exact = _pair_scores(iu.size, n, lambda lo, hi: _flipped_stack(start, iu[lo:hi], ju[lo:hi]), col)
    rescored = []

    def spy(count, order, build, col=None):
        rescored.append(build(0, count))
        return _pair_scores(count, order, build, col)

    monkeypatch.setattr(ngspectral.search, "_pair_scores", spy)
    local_search_f(n, 2, family, 0, 1, 1)
    matrices = rescored[1]  # after the starts: the step's flips, of the start and of the construction
    # a flip of the start differs from it in two entries, (i, j) and (j, i)
    flips = matrices[np.count_nonzero(matrices != start, axis=(1, 2)) == 2]
    best = _flipped_stack(start, iu[[np.argmax(exact)]], ju[[np.argmax(exact)]])
    assert len(flips) == TOP_FLIPS and (flips == best).all(axis=(1, 2)).any()


@pytest.mark.parametrize(
    "g", [extremal_graph(1, 8), complete_bipartite(8, 8)], ids=["extremal_1_8", "K_8_8"]
)
@pytest.mark.parametrize("s,family", [(2, "top"), (2, "bottom")])
def test_screen_leaders_keep_every_tied_flip(g, s, family):
    # many flips of these graphs tie in eigvalsh's score, by symmetry.  The
    # rank reads only each run's projector, not the basis eigh picks inside
    # an eigenspace, so flips that tie in score tie in rank too, to rounding,
    # and the screen keeps or drops them together, up to the flip index
    a = g.adjacency_matrix()
    iu, ju = np.triu_indices(g.n, 1)
    col = _column(g.n, s, family)
    exact = _pair_scores(iu.size, g.n, lambda lo, hi: _flipped_stack(a, iu[lo:hi], ju[lo:hi]), col)
    rank = np.abs(_first_order_mu(a[None], col + 1, iu, ju)[0]).sum(0)
    order = np.argsort(exact, kind="stable")
    ties = np.split(order, np.flatnonzero(np.diff(exact[order]) > 1e-9) + 1)
    assert max(tie.size for tie in ties) > TOP_FLIPS
    for tie in ties:
        assert np.ptp(rank[tie]) <= 1e-12, (exact[tie[0]], rank[tie])


def test_local_search_calls_no_unique(monkeypatch):
    # np.unique costs 13-18 ms at its first call in a process (numpy 2.4),
    # which a one-shot `search --local` would pay; the climbs need none
    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    for args in [(6, 2, "top", 0, 2, 1), (16, 3, "top", 1)]:
        local_search_f(*args)


def test_local_search_validation():
    with pytest.raises(ValueError):
        local_search_f(6, 2, "top", seed=0, iterations=0)
    with pytest.raises(ValueError):
        local_search_f(6, 2, "top", seed=0, restarts=0)


def test_target_ratios():
    assert target_ratio(3, "top") == pytest.approx(0.5)
    assert target_ratio(1, "bottom") == pytest.approx(1 / math.sqrt(2))
    assert target_ratio(2, "top") == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        target_ratio(1, "top")


def test_ratio_table_exhaustive_rows():
    rows = ratio_table(2, "top", [4, 5, 6])
    assert [row.n for row in rows] == [4, 5, 6]
    for row in rows:
        assert row.method == "exhaustive"
        assert row.ratio < 1 / math.sqrt(2)  # strictly below the conjectured slope
        assert row.gap == pytest.approx(row.target - row.ratio)


def test_ratio_table_validates_every_order_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before every order was validated")

    monkeypatch.setattr(ngspectral.search, "exhaustive_f", no_search)
    monkeypatch.setattr(ngspectral.search, "local_search_f", no_search)
    with pytest.raises(ValueError, match="needs 2 <= s <= n, got s=5, n=4"):
        ratio_table(5, "top", [8, 4])
    with pytest.raises(ValueError, match="needs 2 <= s <= n, got s=3, n=2"):
        ratio_table(3, "top", [48, 2])
    with pytest.raises(ValueError, match="iterations and restarts must be at least 1"):
        ratio_table(2, "top", [7, 8, 12], iterations=0)
    with pytest.raises(ValueError, match="iterations and restarts must be at least 1"):
        ratio_table(2, "bottom", [4, 5], restarts=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ratio_table(2, "top", [7, 8, 12], seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
        ratio_table(2, "bottom", [4, 5], seed=-2)
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    with pytest.raises(ValueError, match="graph order 9 exceeds size cap 8"):
        ratio_table(2, "top", [4, 9])


def test_ratio_table_switches_to_local_search():
    rows = ratio_table(2, "top", [4, 9], seed=0, iterations=5, restarts=1)
    assert rows[0].method == "exhaustive"
    assert rows[1].method == "local_search"
