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
from ngspectral.eigensolver import complement_pair_eigenvalues
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
    HALF,
    NEAR,
    NEED,
    NU,
    QUAD,
    RHO,
    SCORE_ENTRIES,
    SCREEN_BLOCK,
    SCREEN_HANDOFF,
    SCREEN_SLACK,
    SCREEN_TOL,
    _column,
    _constructive_starts,
    _extension_scores,
    _far_sums,
    _flipped_stack,
    _pair_scores,
    _screen_flips,
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

    def spy(stack, *args):
        live.append(stack.shape[0])
        return _screen_flips(stack, *args)

    monkeypatch.setattr(ngspectral.search, "_screen_flips", spy)
    rec = local_search_f(*args)
    assert live == sorted(live, reverse=True) and len(set(live)) >= 3, live
    assert rec == local_oracle(*args)


@pytest.mark.parametrize("args", [(48, 2, "top", 0, 6), (48, 4, "bottom", 1, 4)])
def test_local_search_matches_oracle_across_screen_blocks(args):
    # three seeded starts and one construction: the flips of one step fill
    # several screening blocks, and the blocks cut across climbs
    n, s, family = args[:3]
    flips = (3 + len(_constructive_starts(n, s, family))) * n * (n - 1) // 2
    assert flips > 2 * SCREEN_BLOCK and flips % SCREEN_BLOCK
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
# the lockstep screen solves the flips of up to four climbs at once and must
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


# `_count` calls of local_search_f(32, 2, "bottom", 0), measured when every
# step first fit one screening block (916 when the step took two blocks)
COUNTS_ONE_BLOCK_PER_STEP = 652


def test_local_search_screens_each_step_in_one_block(monkeypatch):
    # the four climbs of order 32 (three seeded starts and the construction)
    # screen their 1984 flips in one block: each step builds its problems
    # once, and the Newton counts stay at the number pinned above.  The
    # record is the one `local_oracle` gives (pinned; the oracle takes 9 s)
    calls = {"_screen_flips": 0, "_flip_problems": 0, "_count": 0}
    for name in calls:
        original = getattr(ngspectral.search, name)

        def spy(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ngspectral.search, name, spy)
    rec = local_search_f(32, 2, "bottom", 0)
    assert (rec.value.hex(), rec.evaluations) == ("0x1.0336114f9b940p+4", 63988)
    assert 4 * 32 * 31 // 2 <= SCREEN_BLOCK
    assert calls["_flip_problems"] == calls["_screen_flips"] > 1, calls
    assert calls["_count"] <= COUNTS_ONE_BLOCK_PER_STEP, calls


def test_rescoring_batches_are_bounded_by_entries(monkeypatch):
    # the construction's start ties 1024 flips that beat it; each eigvalsh
    # batch of the kernel must hold at most SCORE_ENTRIES entries, and the
    # record must be the one that batches eight times larger give
    args = (64, 2, "bottom", 0, 2, 1)
    n = args[0]
    batches = []

    def spy(stack):
        batches.append(stack.shape[0])
        return complement_pair_eigenvalues(stack)

    monkeypatch.setattr(ngspectral.search, "complement_pair_eigenvalues", spy)
    rec = local_search_f(*args)
    assert sum(batches) > 2 * (SCORE_ENTRIES // (n * n))
    assert max(batches) * n * n <= SCORE_ENTRIES, batches
    assert (rec.value.hex(), rec.evaluations) == ("0x1.00109309dd0e8p+5", 8066)
    monkeypatch.setattr(ngspectral.search, "SCORE_ENTRIES", 8 * SCORE_ENTRIES)
    assert local_search_f(*args) == rec


def test_score_batches_keep_every_bit(monkeypatch):
    # each matrix, mask and screen problem of a batch is solved on its own:
    # eigvalsh batches of a few matrices (48 of order 6, 35 of order 7, 3 of
    # order 24), relabellings in blocks of 1000 // m (100, 66 and 47 of the
    # 5!, 6! and 7! tables), canonical forms of 1000 // k^2 masks and screen
    # chunks of 4 problems give the bits of whole batches, in the class
    # build and in both engines
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
    monkeypatch.setattr(ngspectral.search, "SCREEN_ENTRIES", 4 * 24)
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


# seeded G(n, 0.5) with a flip 79-190 SCREEN_SLACK below the best flip at
# one t of `test_screen_matches_eigvalsh_on_every_flip` (n = 12, t = 3; n =
# 16, t = 15; n = 24, t = 12), found by scanning seeds: `_check_kept` fails
# on them if the screen prunes with a margin 1000 times too wide
NEAR_MISS_SEEDS = {12: 325, 16: 415, 24: 38}


def _screen_graphs(n):
    yield erdos_renyi(n, 0.5, n)
    yield erdos_renyi(n, 0.2, n + 1)
    if n in NEAR_MISS_SEEDS:
        yield erdos_renyi(n, 0.5, NEAR_MISS_SEEDS[n])
    for k in range(1, 5):
        if n % 2 ** (k + 1) == 0:
            yield extremal_graph(k, n // 2 ** (k + 1))
    yield complete_bipartite(n // 2, n - n // 2)
    yield empty(n)
    yield complete(n)


def _check_screen(pruned, exact, floor, case):
    # no flip that can lead or beat the floor is pruned: each pruned flip
    # scores more than 2 SCREEN_SLACK below the floor or the best flip
    near = exact >= max(floor, exact.max()) - 2 * SCREEN_SLACK
    assert not pruned[near].any(), case


def _check_kept(pruned, exact, floor, case):
    # without the handoff, the screen of one matrix in one block closes the
    # brackets of every flip it keeps and of the best flip, so it keeps
    # exactly the flips within 2 SCREEN_SLACK of max(floor, best), up to the
    # width of two flips' brackets, two problems of 2 SCREEN_TOL each
    line = max(floor, exact.max()) - 2 * SCREEN_SLACK
    assert (exact[~pruned] >= line - 8 * SCREEN_TOL).all(), (*case, line - exact[~pruned].min())


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 16, 24, 32, 64])
def test_screen_matches_eigvalsh_on_every_flip(monkeypatch, n):
    # the screen's pruning is checked against eigvalsh's score of every flip.
    # Integer and highly repeated spectra put the flipped eigenvalues on the
    # unflipped ones and make double roots: the cases the screen must survive.
    # Each graph is screened alone, a stack of one, and in one stack with
    # every other graph of its order: there it keeps to its own spectra,
    # guard, floor and pruning bound, so it meets the same contract, though
    # the shared blocks may prune other flips.  The floors are 0, a ranking,
    # and each graph's own score, the floor of a climb at that graph.  The
    # screen runs without the handoff and, below n = 51, where n^3 passes
    # SCREEN_HANDOFF, with it
    iu, ju = np.triu_indices(n, 1)
    assert iu.size <= SCREEN_BLOCK  # a graph screened alone takes one block
    graphs = list(_screen_graphs(n))
    stack = np.stack([g.adjacency_matrix() for g in graphs])
    # what _pair_scores computes, with the spectra solved once per graph
    exact = [complement_pair_eigenvalues(_flipped_stack(a, iu, ju)) for a in stack]
    own = complement_pair_eigenvalues(stack)
    for handoff in [0] + [SCREEN_HANDOFF] * (n**3 <= SCREEN_HANDOFF):
        monkeypatch.setattr(ngspectral.search, "SCREEN_HANDOFF", handoff)
        for t in sorted({1, 2, 3, n // 2, n - 1, n}):
            scores = np.abs(own[0][:, t - 1]) + np.abs(own[1][:, t - 1])
            for floors in (np.zeros(len(graphs)), scores):
                stacked = _screen_flips(stack, t, iu, ju, floors)
                assert stacked.shape == (len(graphs), iu.size) and stacked.dtype == bool
                for c, (g, (wg, wc)) in enumerate(zip(graphs, exact)):
                    case = (n, g.bits, t, floors[c], handoff)
                    flips = np.abs(wg[:, t - 1]) + np.abs(wc[:, t - 1])
                    alone = _screen_flips(stack[c : c + 1], t, iu, ju, floors[c : c + 1])[0]
                    _check_screen(alone, flips, floors[c], case)
                    _check_screen(stacked[c], flips, floors[c], case)
                    if not handoff:
                        _check_kept(alone, flips, floors[c], case)


def _runs_by_loop(row, guard, t):
    """The runs of poles next to eigenvalue t of one descending spectrum, as
    slices, found spectrum by spectrum: the reference for `_near_runs`."""
    cluster = np.concatenate([[0], np.cumsum(-np.diff(row) > 2.0 * guard)])
    return [
        slice(int(np.searchsorted(cluster, c)), int(np.searchsorted(cluster, c, side="right")))
        for c in sorted(set(cluster[max(t - 2, 0) : t + 1].tolist()))
    ]


@pytest.mark.parametrize("n", [4, 6, 16])
def test_flip_problems_match_a_loop_over_spectra_and_runs(monkeypatch, n):
    # the screen finds the runs next to the bracket, and sums each flip's
    # weights over them, with array operations over every spectrum and run;
    # a loop over spectra and runs must find the same runs and, to rounding,
    # the same sums and Gram determinants (these graphs repeat eigenvalues)
    blocks = []
    flip_problems = ngspectral.search._flip_problems

    def spy(stack, climb, i, j, t, spectra):
        problems = flip_problems(stack, climb, i, j, t, spectra)
        blocks.append((climb, i, j, t, spectra[0], spectra[1], problems[1].copy()))
        return problems

    monkeypatch.setattr(ngspectral.search, "_flip_problems", spy)
    stack = np.stack([g.adjacency_matrix() for g in _screen_graphs(n)])
    for t in (2, n // 2, n, n - 1):
        _screen_flips(stack, t, *np.triu_indices(n, 1), np.zeros(len(stack)))
    wide = 0
    for climb, i, j, t, lam, vec, const in blocks:
        spec = np.concatenate([2 * climb, 2 * climb + 1])
        ends = np.tile(i, 2), np.tile(j, 2)
        near, quad = const[NEAR].reshape(3, 3, -1), const[QUAD].reshape(3, 3, -1)
        for p in np.unique(spec):
            k = np.flatnonzero(spec == p)
            runs = _runs_by_loop(lam[p], const[RHO, k[0]], t)
            slots = np.flatnonzero(const[HALF, k[0]] > 0)
            assert [2 * const[HALF, k[0]][m] for m in slots] == [r.stop - r.start for r in runs]
            assert const[NEED, k[0]] == t + 1 - runs[0].start - sum(r.stop - r.start for r in runs) / 2
            for m, run in zip(slots, runs):
                assert np.allclose(const[NU, k][m], lam[p, run].mean(), rtol=0, atol=1e-12)
                u, v = (vec[p * n + end[k]][:, run] for end in ends)
                sums = [(u * u).sum(1), (u * v).sum(1), (v * v).sum(1)]
                assert np.allclose(near[:, m][:, k], sums, rtol=1e-12, atol=1e-15)
                # Lagrange's identity: the Gram determinant is the sum of the
                # squared 2x2 minors of the run's columns
                a, b = np.triu_indices(run.stop - run.start, 1)
                gram = ((u[:, a] * v[:, b] - u[:, b] * v[:, a]) ** 2).sum(1)
                assert np.allclose(quad[m, m, k], gram, rtol=1e-9, atol=1e-24)
                wide += run.stop - run.start > 1
    assert wide > 0


def test_far_sums_match_a_sum_per_problem(monkeypatch):
    # the far sums of each problem, taken in chunks of SCREEN_ENTRIES // n
    # problems, against a direct sum over its far poles: q_ik^2, q_ik q_jk
    # and q_jk^2 against 1 / (far - x) and against its square.  Three chunks
    # of 7 problems and a last one of 2; an infinite pole adds nothing
    n, size = 16, 23
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, n, n))
    lam, vec = np.linalg.eigh(m + m.swapaxes(1, 2))
    far = lam.copy()
    far[:, 5:7] = np.inf
    vec = vec.reshape(3 * n, n)
    spec = rng.integers(0, 3, size)
    ints = np.stack([spec, spec * n + rng.integers(0, n, size), spec * n + rng.integers(0, n, size)])
    x = lam[spec, 6] + rng.uniform(-0.1, 0.1, size)
    monkeypatch.setattr(ngspectral.search, "SCREEN_ENTRIES", 7 * n)
    sums = _far_sums(x, ints, (far, vec))
    for k in range(size):
        qi, qj = vec[ints[1, k]], vec[ints[2, k]]
        w = 1.0 / (far[spec[k]] - x[k])
        for row, weight in enumerate([w, w * w]):
            terms = np.array([qi * qi, qi * qj, qj * qj]) * weight
            scale = np.abs(terms).sum(1)
            assert np.all(np.abs(sums[row, :, k] - terms.sum(1)) <= 1e-12 * scale), (k, row)


@pytest.mark.parametrize("args,counts", [((6, 2, "top", 0), False), ((16, 2, "top", 0), True)])
def test_screen_counts_only_above_the_handoff(monkeypatch, args, counts):
    # at n = 6 every step's problems times n^3 are within SCREEN_HANDOFF
    # before the first count, so the screen makes none and eigvalsh rescores
    # every flip; at n = 16 the screen still counts
    calls = []
    count = ngspectral.search._count

    def spy(*call):
        calls.append(call[2].shape[1])
        return count(*call)

    monkeypatch.setattr(ngspectral.search, "_count", spy)
    assert local_search_f(*args) == local_oracle(*args)
    assert bool(calls) == counts, calls


@pytest.mark.parametrize("family", FAMILIES)
def test_screen_prunes_most_flips(family):
    # against a floor of 0, the flips prune each other; against the graph's
    # own score, most leave after one count
    a = erdos_renyi(32, 0.5, 0).adjacency_matrix()
    col = _column(32, 2, family)
    for floor in (0.0, _pair_scores(1, 32, lambda lo, hi: a[None], col)[0]):
        pruned = _screen_flips(a[None], col + 1, *np.triu_indices(32, 1), np.array([floor]))
        assert np.count_nonzero(pruned) > pruned.size / 2


@pytest.mark.parametrize(
    "g", [extremal_graph(1, 8), complete_bipartite(8, 8)], ids=["extremal_1_8", "K_8_8"]
)
@pytest.mark.parametrize("s,family", [(2, "top"), (2, "bottom")])
def test_screen_leaders_keep_every_tied_flip(g, s, family):
    # many flips of these graphs tie for the best score: pruning may not
    # drop one of them, or the climb could take another flip than eigvalsh
    a = g.adjacency_matrix()
    iu, ju = np.triu_indices(g.n, 1)
    col = _column(g.n, s, family)
    exact = _pair_scores(iu.size, g.n, lambda lo, hi: _flipped_stack(a, iu[lo:hi], ju[lo:hi]), col)
    best = np.flatnonzero(exact >= exact.max() - SCREEN_SLACK / 2)
    assert best.size > 1
    assert not _screen_flips(a[None], col + 1, iu, ju, np.zeros(1))[0, best].any()


@pytest.mark.parametrize(
    "args,record",
    [
        ((32, 2, "top", 0), ("0x1.4ee84b0d1f876p+4", 74900)),
        # 2048 tied flips of the start, none of which beats it: every one
        # was rescored through eigvalsh before the screen took the floor
        ((128, 2, "top", 0, 1, 1), ("0x1.6338ac5f9a113p+6", 16258)),
    ],
)
def test_climb_from_a_strict_local_maximum_rescores_no_leader(monkeypatch, args, record):
    # the construction's start beats every one of its flips, so the screen
    # prunes them all against the climb's score: that climb stops at its
    # first step with no leader, and no flip of it reaches eigvalsh
    n, s, family = args[:3]
    start = _constructive_starts(n, s, family)[0].adjacency_matrix()
    rescored = []

    def spy(count, order, build, col=None):
        rescored.extend(build(lo, min(lo + 64, count)) for lo in range(0, count, 64))
        return _pair_scores(count, order, build, col)

    monkeypatch.setattr(ngspectral.search, "_pair_scores", spy)
    rec = local_search_f(*args)
    assert (rec.value.hex(), rec.evaluations) == record
    matrices = np.concatenate(rescored)
    # a flip of the start differs from it in two entries, (i, j) and (j, i)
    assert (np.count_nonzero(matrices != start, axis=(1, 2)) != 2).all(), matrices.shape


def test_screen_leaves_no_leader_when_every_flip_is_pruned():
    # against its own score, every flip of the construction is pruned, so it
    # has no leader, while a random graph stacked with it keeps its own
    n, t = 32, 2
    stack = np.stack([extremal_graph(1, 8).adjacency_matrix(), erdos_renyi(n, 0.5, 0).adjacency_matrix()])
    wg, wc = complement_pair_eigenvalues(stack)
    floors = np.abs(wg[:, t - 1]) + np.abs(wc[:, t - 1])
    iu, ju = np.triu_indices(n, 1)
    pruned = _screen_flips(stack, t, iu, ju, floors)
    assert pruned[0].all() and not pruned[1].all()
    exact = _pair_scores(iu.size, n, lambda lo, hi: _flipped_stack(stack[0], iu[lo:hi], ju[lo:hi]), t - 1)
    assert exact.max() < floors[0] - 2 * SCREEN_SLACK


def test_flips_open_at_the_handoff_reach_the_rescoring_batch(monkeypatch):
    # the flips whose problems are still open when a block hands off stay
    # unpruned, so a larger SCREEN_HANDOFF, which stops counting sooner,
    # rescores more flips through eigvalsh; the climb still visits the
    # oracle's graphs, up to a handoff before every block's first count,
    # which rescores every flip
    args = (16, 3, "top", 1)
    oracle = local_oracle(*args)
    kept = []

    def spy(*call):
        pruned = _screen_flips(*call)
        kept[-1] += np.count_nonzero(~pruned)
        return pruned

    monkeypatch.setattr(ngspectral.search, "_screen_flips", spy)
    for handoff in (0, SCREEN_HANDOFF, 1 << 62):
        monkeypatch.setattr(ngspectral.search, "SCREEN_HANDOFF", handoff)
        kept.append(0)
        assert local_search_f(*args) == oracle, handoff
    assert kept[0] < kept[1] < kept[2], kept


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
