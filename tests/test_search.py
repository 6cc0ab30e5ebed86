"""Exhaustive and hill-climbing extremal search."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

import ngspectral.graphs
import ngspectral.search
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
    empty,
    erdos_renyi,
    isomorphism_classes,
    labellings,
)
from ngspectral.search import (
    FAMILIES,
    FLIP_CHUNK,
    RESCORE_ENTRIES,
    SCREEN_BLOCK,
    SCREEN_SLACK,
    _constructive_starts,
    _flipped_stack,
    _score_masks,
    _score_stack,
    _screen_flips,
    _screen_leaders,
    exhaustive_f,
    local_search_f,
    objective,
    ratio_table,
    target_ratio,
)
from ngspectral.spectra import DEFAULT_TOL

SQ5 = math.sqrt(5)


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
    for n, s, family in [(4, 2, "top"), (5, 1, "bottom"), (5, 2, "bottom")]:
        rec = exhaustive_f(n, s, family)
        assert objective(parse_graph6(rec.witness), s, family) == pytest.approx(
            rec.value, abs=1e-8
        )


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
    [case for n in range(1, 7) for case in _all_cases(n)] + [(7, 2, "top"), (7, 1, "bottom")],
)
def test_exhaustive_matches_labelled_oracle(n, s, family):
    # == on the whole record: the value bit for bit, the witness, the counts
    assert exhaustive_f(n, s, family) == labelled_exhaustive_f(n, s, family)


# (n, s, family) -> (value.hex(), witness, evaluations) of exhaustive_f:
# every instance at order 7 and three at order 8, from the search that
# scored every class of order n - 1
EXACT_RECORDS = {
    (7, 2, "top"): ("0x1.8fc1ecd5fda14p+1", "F@NMO", 1048576),
    (7, 3, "top"): ("0x1.0642ec62ba524p+1", "F@Ue?", 1048576),
    (7, 4, "top"): ("0x1.3c6ef372fe954p+0", "F@U^?", 1048576),
    (7, 5, "top"): ("0x1.9e3779b97f4aap+1", "F@U^?", 1048576),
    (7, 6, "top"): ("0x1.032176315d292p+2", "F@Ue?", 1048576),
    (7, 7, "top"): ("0x1.4dbe9091fbc1ep+2", "F@rN_", 1048576),
    (7, 1, "bottom"): ("0x1.4dbe9091fbc1ep+2", "F@rN_", 1048576),
    (7, 2, "bottom"): ("0x1.032176315d292p+2", "F@Ue?", 1048576),
    (7, 3, "bottom"): ("0x1.9e3779b97f4aap+1", "F@U^?", 1048576),
    (7, 4, "bottom"): ("0x1.3c6ef372fe954p+0", "F@U^?", 1048576),
    (7, 5, "bottom"): ("0x1.0642ec62ba524p+1", "F@Ue?", 1048576),
    (7, 6, "bottom"): ("0x1.8fc1ecd5fda14p+1", "F@NMO", 1048576),
    (7, 7, "bottom"): ("0x1.ece664ccfff82p+2", "F?B~w", 1048576),
    (8, 3, "top"): ("0x1.3504f333f9decp+1", "G@Umf?", 134217728),
    (8, 5, "top"): ("0x1.0000000000002p+1", "G?K}][", 134217728),
    (8, 8, "bottom"): ("0x1.2000000000002p+3", "G??F~{", 134217728),
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
        scores = _score_masks(masks, n, s, family)
        assert np.array_equal(scores, scores[::-1])


@pytest.mark.parametrize("s,family", [(2, "top"), (4, "top"), (1, "bottom"), (6, "bottom")])
def test_exhaustive_scores_one_graph_per_complement_pair(monkeypatch, s, family):
    scored = []

    def recording(masks, n, s, family):
        scored.append(masks.copy())
        return _score_masks(masks, n, s, family)

    monkeypatch.setattr(ngspectral.search, "_score_masks", recording)
    exhaustive_f(6, s, family)
    candidates, labelled = scored
    # 18 of the 34 classes of order 5, one per complement pair, times 2^5
    # neighbour sets of vertex 6
    assert candidates.size == 576
    # every relabelled graph is folded below the top pair bit
    assert labelled.size and not (labelled >> 14).any()


def test_complement_pair_classes():
    # (A000088 + A000171) / 2: classes plus self-complementary classes, halved
    counts = [complement_pair_classes(n).size for n in range(8)]
    assert counts == [1, 1, 1, 2, 6, 18, 78, 522]
    for n in range(2, 8):
        reps, classes = complement_pair_classes(n), isomorphism_classes(n)
        full = (1 << n * (n - 1) // 2) - 1
        comp = canonical_masks(reps ^ full, n)
        # each pair once: every class is a representative or the complement of one
        assert np.isin(reps, classes).all() and (reps <= comp).all()
        assert np.array_equal(np.union1d(reps, comp), classes)
    assert not complement_pair_classes(5).flags.writeable


def test_exhaustive_rejects_a_tie_band_too_wide_to_relabel(monkeypatch):
    def no_labellings(classes, n):
        raise AssertionError("labellings built")

    monkeypatch.setattr(ngspectral.search, "labellings", no_labellings)
    with pytest.raises(ValueError, match=r"tol=1\.0 leaves more than 208 classes of order 8"):
        exhaustive_f(8, 2, "top", tol=1.0)


def test_isomorphism_class_counts():
    # OEIS A000088: graphs on n unlabelled vertices
    counts = [isomorphism_classes(n).size for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


# order -> (class count, sum of the class masks, sha256 prefix of the masks
# as little-endian int64).  The count and invariance tests accept any
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
    classes = isomorphism_classes(n)
    digest = hashlib.sha256(classes.astype("<i8").tobytes()).hexdigest()[:16]
    assert (classes.size, int(classes.sum()), digest) == CLASS_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_labellings_of_every_class_are_every_labelled_graph(n):
    # each of the 2^(n(n-1)/2) labelled graphs appears exactly once
    masks = labellings(isomorphism_classes(n), n)
    assert np.array_equal(masks, np.arange(1 << n * (n - 1) // 2))


def test_isomorphism_classes_capped():
    # order 9 would take about 65 s, and pair masks overflow int64 from order 12
    with pytest.raises(ValueError, match="n <= 8, got n=9"):
        isomorphism_classes(9)
    with pytest.raises(ValueError, match="got n=-1"):
        isomorphism_classes(-1)
    assert isomorphism_classes(0).tolist() == [0]


def test_isomorphism_classes_built_once_and_read_only(monkeypatch):
    first = exhaustive_f(6, 2, "top")
    classes = isomorphism_classes(5)

    def no_build(masks, k):
        raise AssertionError("classes canonicalized again")

    # search keeps its own reference for the near-best candidates
    monkeypatch.setattr(ngspectral.graphs, "canonical_masks", no_build)
    assert isomorphism_classes(5) is classes
    assert exhaustive_f(6, 2, "top") == first
    assert not classes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        classes[0] = 1


def test_permutation_tables_built_once_and_read_only(monkeypatch):
    labelled = labellings(isomorphism_classes(5), 5)
    table = ngspectral.graphs._cell_permutations(np.zeros(5, dtype=np.int64))
    assert table.shape == (120, 5) and len({tuple(row) for row in table}) == 120

    def no_build(*args):
        raise AssertionError("permutations listed again")

    monkeypatch.setattr(ngspectral.graphs.itertools, "permutations", no_build)
    assert ngspectral.graphs._cell_permutations(np.zeros(5, dtype=np.int64)) is table
    assert np.array_equal(labellings(isomorphism_classes(5), 5), labelled)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    # cells of 2 and 3 positions: 2! 3! rows, each cell mapped onto itself
    cells = ngspectral.graphs._cell_permutations(np.array([0, 0, 4, 4, 4]))
    assert cells.shape == (12, 5)
    assert (np.sort(cells[:, :2], axis=1) == [0, 1]).all()
    assert (np.sort(cells[:, 2:], axis=1) == [2, 3, 4]).all()


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
    screen_leaders = ngspectral.search._screen_leaders

    def spy(stack, s, family):
        live.append(stack.shape[0])
        return screen_leaders(stack, s, family)

    monkeypatch.setattr(ngspectral.search, "_screen_leaders", spy)
    rec = local_search_f(*args)
    assert live == sorted(live, reverse=True) and len(set(live)) >= 3, live
    assert rec == local_oracle(*args)


@pytest.mark.parametrize("args", [(40, 2, "top", 0, 6), (48, 3, "bottom", 1, 4)])
def test_local_search_matches_oracle_across_screen_blocks(args):
    # three seeded starts and one construction: the flips of one step fill
    # several screening blocks, and the blocks cut across climbs
    n, s = args[:2]
    flips = (3 + len(_constructive_starts(n, s))) * n * (n - 1) // 2
    assert flips > 2 * SCREEN_BLOCK and flips % SCREEN_BLOCK
    assert local_search_f(*args) == local_oracle(*args)


@pytest.mark.parametrize("args", [(16, 3, "top", 1, 50, 1), (24, 2, "bottom", 3, 50, 1)])
def test_local_search_one_restart_and_a_construction(args):
    assert len(_constructive_starts(*args[:2])) == 1
    assert local_search_f(*args) == local_oracle(*args)


# tracemalloc peak of local_search_f(32, 2, "bottom", 0, 5), in bytes, at the
# commit before the climbs ran in lockstep (numpy 2.4, Python 3.11).  Its
# peak is the rescoring of the construction's tied leaders; the lockstep
# screen solves the flips of up to four climbs at once and must stay below it
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


def test_rescoring_batches_are_bounded_by_entries(monkeypatch):
    # the construction's start ties thousands of flips; each rescoring batch
    # must hold at most RESCORE_ENTRIES entries, and the record must be the
    # one that batches of FLIP_CHUNK leaders give
    args = (96, 2, "top", 0, 1, 1)
    n = args[0]
    batches = []
    score_stack = ngspectral.search._score_stack

    def spy(stack, s, family):
        batches.append(stack.shape[0])
        return score_stack(stack, s, family)

    monkeypatch.setattr(ngspectral.search, "_score_stack", spy)
    rec = local_search_f(*args)
    assert sum(batches) > 2 * FLIP_CHUNK
    assert max(batches) * n * n <= RESCORE_ENTRIES, batches
    assert (rec.value.hex(), rec.evaluations) == ("0x1.08b7289390862p+6", 9122)
    monkeypatch.setattr(ngspectral.search, "RESCORE_ENTRIES", FLIP_CHUNK * n * n)
    assert local_search_f(*args) == rec


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


def _screen_graphs(n):
    yield erdos_renyi(n, 0.5, n)
    yield erdos_renyi(n, 0.2, n + 1)
    for k in range(1, 5):
        if n % 2 ** (k + 1) == 0:
            yield extremal_graph(k, n // 2 ** (k + 1))
    yield complete_bipartite(n // 2, n - n // 2)
    yield empty(n)
    yield complete(n)


def _check_screen(screened, solved, exact, case):
    # Every flip that can lead is solved; every other score bounds its flip
    # from above and lies too far below the best to be a leader.
    near = exact >= exact.max() - 2 * SCREEN_SLACK
    assert solved[near].all(), case
    error = np.abs(screened - exact)[near].max()
    assert error <= SCREEN_SLACK / 4, (*case, error)
    rest = screened[~near]
    assert (rest >= exact[~near] - SCREEN_SLACK / 4).all(), case
    assert (rest < screened.max() - SCREEN_SLACK).all(), case


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 16, 24, 32, 64])
def test_screen_matches_eigvalsh_on_every_flip(n):
    # integer and highly repeated spectra put the flipped eigenvalues on the
    # unflipped ones and make double roots: the cases the screen must survive.
    # Each graph is screened alone, a stack of one, and in one stack with
    # every other graph of its order: there it keeps to its own spectra,
    # guard and pruning bound, so it meets the same contract and keeps the
    # leaders it has alone.
    iu, ju = np.triu_indices(n, 1)
    graphs = list(_screen_graphs(n))
    stack = np.stack([g.adjacency_matrix() for g in graphs])
    # what _score_stack computes, with the spectra solved once per graph
    exact = [complement_pair_eigenvalues(_flipped_stack(a, iu, ju)) for a in stack]
    for t in sorted({1, 2, 3, n // 2, n - 1, n}):
        for s, family in [(t, "top"), (n - t + 1, "bottom")]:
            if s < 2 and family == "top":
                continue
            stacked, stacked_solved = _screen_flips(stack, s, family)
            assert stacked.shape == stacked_solved.shape == (len(graphs), iu.size)
            stacked_leaders = _leader_rows(stacked)
            for c, (g, (wg, wc)) in enumerate(zip(graphs, exact)):
                case = (n, g.bits, s, family)
                flips = np.abs(wg[:, t - 1]) + np.abs(wc[:, t - 1])
                screened, solved = (row[0] for row in _screen_flips(stack[c : c + 1], s, family))
                _check_screen(screened, solved, flips, case)
                _check_screen(stacked[c], stacked_solved[c], flips, case)
                assert np.array_equal(stacked_leaders[c], _leader_rows([screened])[0]), case


def _leader_rows(screened):
    """The leaders of each row of a screen, as `_screen_leaders` picks them."""
    return [np.flatnonzero(row >= row.max() - SCREEN_SLACK) for row in screened]


def test_screen_leaders_of_a_stack_are_those_of_each_graph():
    graphs = list(_screen_graphs(16))
    stack = np.stack([g.adjacency_matrix() for g in graphs])
    for s, family in [(2, "top"), (3, "bottom")]:
        owner, flip = _screen_leaders(stack, s, family)
        assert (np.diff(owner) >= 0).all()
        for c in range(len(graphs)):
            assert np.array_equal(flip[owner == c], _screen_leaders(stack[c : c + 1], s, family)[1])


@pytest.mark.parametrize("family", FAMILIES)
def test_screen_prunes_most_flips(family):
    a = erdos_renyi(32, 0.5, 0).adjacency_matrix()
    _, solved = _screen_flips(a[None], 2, family)
    assert np.count_nonzero(~solved) > solved.size / 2


@pytest.mark.parametrize(
    "g", [extremal_graph(1, 8), complete_bipartite(8, 8)], ids=["extremal_1_8", "K_8_8"]
)
@pytest.mark.parametrize("s,family", [(2, "top"), (2, "bottom")])
def test_screen_leaders_keep_every_tied_flip(g, s, family):
    # many flips of these graphs tie for the best score: pruning may not
    # drop one of them, or the climb could take another flip than eigvalsh
    a = g.adjacency_matrix()
    iu, ju = np.triu_indices(g.n, 1)
    exact = _score_stack(_flipped_stack(a, iu, ju), s, family)
    best = np.flatnonzero(exact >= exact.max() - SCREEN_SLACK / 2)
    assert best.size > 1
    assert np.isin(best, _screen_leaders(a[None], s, family)[1]).all()


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
