"""Graph representation, complementation, blow-ups, induced subgraphs,
generators."""

import numpy as np
import pytest

from ngspectral.bounds import run_battery
from ngspectral.graph6 import emit_graph6
from ngspectral.graphs import (
    Graph,
    Matrix01,
    blowup,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    generate,
    induced_subgraph,
    isomorphism_classes,
    mask_to_bitarray,
    masks_to_stack,
    pair_bit,
    pair_indices,
    path,
)

RANDOM_SUITE = [(n, p, seed) for seed, (n, p) in enumerate(
    [(4, 0.3), (5, 0.5), (6, 0.7), (7, 0.5), (9, 0.2), (11, 0.5), (13, 0.8), (15, 0.4)]
)]


def test_pair_bit_order():
    # column-major order of the strict upper triangle
    assert pair_bit(1, 2) == 0
    assert pair_bit(1, 3) == 1
    assert pair_bit(2, 3) == 2
    assert pair_bit(1, 4) == 3
    assert pair_bit(4, 1) == 3  # symmetric access


def test_graph_invariants():
    g = cycle(5)
    assert g.n == 5
    assert g.edge_count == 5
    a = g.adjacency_matrix()
    assert np.array_equal(a, a.T)
    assert np.all(np.diagonal(a) == 0)
    assert a.sum() == 2 * g.edge_count
    assert g.has_edge(1, 2) and g.has_edge(1, 5)
    assert not g.has_edge(1, 3)
    assert not g.has_edge(2, 2)


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, 1 << 3)  # only 3 pair bits exist
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph.from_adjacency(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        Graph.from_adjacency(np.array([[1, 1], [1, 0]]))
    for n, bits in ((3.0, 0), (3, 1.0)):
        with pytest.raises(TypeError):
            Graph(n, bits)


def test_graph_takes_numpy_integers():
    # the class masks are int64; a graph built from one must work like one
    # built from the Python int
    for mask in isomorphism_classes(5):
        g, h = Graph(np.int64(5), mask), Graph(5, int(mask))
        assert type(g.n) is int and type(g.bits) is int
        assert g == h and hash(g) == hash(h)
        assert np.array_equal(g.adjacency_matrix(), h.adjacency_matrix())
        assert emit_graph6(g) == emit_graph6(h)
        assert repr(run_battery(g, 3)) == repr(run_battery(h, 3))  # NaN sides


def test_from_adjacency_round_trip():
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        assert Graph.from_adjacency(g.adjacency_matrix()) == g


def test_adjacency_matrix_matches_pair_indices_route():
    for n in range(1, 65):
        g = erdos_renyi(n, 0.5, n)
        i, j = pair_indices(n)
        bits = mask_to_bitarray(g.bits, g.pair_count)
        expected = np.zeros((n, n), dtype=np.uint8)
        expected[i, j] = bits
        expected[j, i] = bits
        for dtype in (np.float64, np.uint8):
            a = g.adjacency_matrix(dtype=dtype)
            assert a.dtype == dtype
            assert np.array_equal(a, expected)
        assert Graph.from_adjacency(expected) == g


def test_masks_to_stack_matches_adjacency_matrix():
    # the int64 batch route and the Python-int route give the same matrices:
    # every mask up to order 5, random masks and both extremes at 6-8
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        m = n * (n - 1) // 2
        if n <= 5:
            masks = np.arange(1 << m, dtype=np.int64)
        else:
            drawn = rng.integers(0, 1 << m, size=200, dtype=np.int64)
            masks = np.concatenate([[0, (1 << m) - 1], drawn]).astype(np.int64)
        for dtype in (np.float64, np.int64):
            stack = masks_to_stack(masks, n, dtype)
            assert stack.dtype == dtype and stack.shape == (masks.size, n, n)
            for k, mask in enumerate(masks.tolist()):
                expected = Graph(n, mask).adjacency_matrix(dtype)
                assert np.array_equal(stack[k], expected), (n, mask)


def test_complement_of_complete_is_empty():
    assert complement(complete(4)) == empty(4)


def test_complement_involution():
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        assert complement(complement(g)) == g
        assert g.edge_count + complement(g).edge_count == n * (n - 1) // 2


def test_cycle5_self_complementary():
    # relabeling 1,3,5,2,4 carries the complement back onto C_5
    g = cycle(5)
    relabel = {1: 1, 2: 3, 3: 5, 4: 2, 5: 4}
    mapped = Graph.from_edges(5, [(relabel[u], relabel[v]) for u, v in complement(g).edges()])
    assert mapped == g


def independent(g: Graph) -> Matrix01:
    """g as a quotient whose parts are independent sets."""
    return Matrix01(g.adjacency_matrix(dtype=np.int64))


def cliques(g: Graph) -> Matrix01:
    """g as a quotient whose parts are cliques: A + I."""
    return Matrix01(g.adjacency_matrix(dtype=np.int64) + np.eye(g.n, dtype=np.int64))


def test_blowup_independent_of_edge_is_bipartite():
    assert blowup(independent(complete(2)), [3, 3]) == complete_bipartite(3, 3)


def test_blowup_identity_at_t1():
    for n, p, seed in RANDOM_SUITE[:4]:
        g = erdos_renyi(n, p, seed)
        assert blowup(independent(g), [1] * n) == g
        assert blowup(cliques(g), [1] * n) == g


def test_blowup_cycle5_edge_count():
    b = blowup(independent(cycle(5)), [2] * 5)
    assert b.n == 10
    assert b.edge_count == 20  # t^2 * e


def test_blowup_clique_of_edge():
    assert blowup(cliques(complete(2)), [2, 2]) == complete(4)


def test_blowup_clique_of_empty_is_disjoint_cliques():
    t = 3
    b = blowup(cliques(empty(4)), [t] * 4)
    expected = Graph.from_edges(
        12,
        [
            ((u - 1) * t + i, (u - 1) * t + j)
            for u in range(1, 5)
            for i in range(1, t + 1)
            for j in range(i + 1, t + 1)
        ],
    )
    assert b == expected


@pytest.mark.parametrize("t", [1, 2, 3])
def test_blowup_edge_counts_and_complement_identity(t):
    for n, p, seed in RANDOM_SUITE:
        g = erdos_renyi(n, p, seed)
        indep = blowup(independent(g), [t] * n)
        cliq = blowup(cliques(g), [t] * n)
        assert indep.edge_count == t * t * g.edge_count
        assert cliq.edge_count == t * t * g.edge_count + n * t * (t - 1) // 2
        assert complement(blowup(independent(complement(g)), [t] * n)) == cliq
        # check the clique blow-up against the Kronecker formula
        # A (x) J + I (x) (J - I) as well
        a = g.adjacency_matrix(dtype=np.int64)
        j = np.ones((t, t), dtype=np.int64)
        i = np.eye(t, dtype=np.int64)
        kron = np.kron(a, j) + np.kron(np.eye(n, dtype=np.int64), j - i)
        assert cliq == Graph.from_adjacency(kron)


def test_blowup_unequal_parts_and_complement():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r = int(rng.integers(1, 7))
        upper = np.triu(rng.integers(0, 2, size=(r, r)))
        b = upper + np.triu(upper, 1).T
        sizes = [int(x) for x in rng.integers(1, 5, size=r)]
        g = blowup(Matrix01(b), sizes)
        assert g.n == sum(sizes)
        # parts are consecutive: vertex v lies in part part[v - 1]
        part = np.repeat(np.arange(r), sizes)
        expected = b[np.ix_(part, part)]
        np.fill_diagonal(expected, 0)
        assert np.array_equal(g.adjacency_matrix(dtype=np.int64), expected)
        assert complement(g) == blowup(Matrix01(1 - b), sizes)


def test_matrix01_rejects_non_integer_entries_before_casting():
    with pytest.raises(ValueError, match="0 or 1"):
        Matrix01(np.array([[0.5, 1.0], [1.0, 0.9]]))
    with pytest.raises(ValueError, match="0 or 1"):
        Matrix01(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    expected = np.array([[0, 1], [1, 1]], dtype=np.int64)
    for entries in (expected.astype(float), expected.astype(bool)):
        m = Matrix01(entries)
        assert m.entries.dtype == np.int64
        assert np.array_equal(m.entries, expected)


def test_matrix01_leaves_the_callers_array_writeable():
    a = np.eye(2, dtype=np.int64)
    m = Matrix01(a)
    assert a.flags.writeable
    assert not m.entries.flags.writeable
    a[0, 1] = 1
    assert m.entries[0, 1] == 0


def test_blowup_rejects_zero_factor():
    with pytest.raises(ValueError):
        blowup(independent(complete(2)), [0, 0])
    with pytest.raises(ValueError):
        blowup(cliques(complete(2)), [2, 0])
    with pytest.raises(ValueError):
        blowup(independent(complete(3)), [2, 2])  # one size per part
    with pytest.raises(TypeError):
        blowup(independent(complete(2)), [1.5, 2])


def test_blowup_checks_the_order_cap_before_building(monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    assert blowup(independent(complete(2)), [4, 4]) == complete_bipartite(4, 4)
    with pytest.raises(ValueError, match="cap"):
        blowup(independent(complete(2)), [4, 5])
    # an order far past any memory fails at the cap, not at allocation
    with pytest.raises(ValueError, match="cap"):
        blowup(independent(complete(2)), [10**9, 10**9])


def test_induced_subgraph_examples():
    assert induced_subgraph(complete(5), [1, 2, 3]) == complete(3)
    g = erdos_renyi(8, 0.5, 3)
    assert induced_subgraph(g, range(1, 9)) == g
    assert induced_subgraph(cycle(5), [1, 2, 3]) == path(3)


def _every_graph_up_to_order_5():
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            yield Graph(n, bits)


def _edges_by_has_edge(g):
    return [(i, j) for j in range(1, g.n + 1) for i in range(1, j) if g.has_edge(i, j)]


def _check_induced_by_has_edge(g, vs):
    h = induced_subgraph(g, vs)
    assert h.n == len(vs)
    for a in range(len(vs)):
        for b in range(len(vs)):
            assert h.has_edge(a + 1, b + 1) == (a != b and g.has_edge(vs[a], vs[b]))


def test_edges_and_from_edges_match_has_edge():
    graphs = list(_every_graph_up_to_order_5())
    graphs += [erdos_renyi(40, 0.5, seed) for seed in range(3)]
    for g in graphs:
        edges = list(g.edges())
        assert edges == _edges_by_has_edge(g)
        assert Graph.from_edges(g.n, edges) == g


def test_induced_subgraph_matches_has_edge():
    for g in _every_graph_up_to_order_5():
        every = list(range(1, g.n + 1))
        subsets = [every, every[::2]] + [every[:v] + every[v + 1 :] for v in range(g.n) if g.n > 1]
        for vs in subsets:
            _check_induced_by_has_edge(g, vs)
    rng = np.random.default_rng(0)
    for seed in range(3):
        g = erdos_renyi(40, 0.5, seed)
        for size in (1, 7, 20, 40):
            vs = sorted(int(v) for v in rng.choice(np.arange(1, 41), size=size, replace=False))
            _check_induced_by_has_edge(g, vs)


def test_induced_subgraph_rejects_bad_subsets():
    with pytest.raises(ValueError):
        induced_subgraph(complete(4), [])
    with pytest.raises(ValueError):
        induced_subgraph(complete(4), [0, 1])
    with pytest.raises(ValueError):
        induced_subgraph(complete(4), [4, 5])


def test_named_generators():
    assert complete(3).edge_count == 3
    assert empty(6).edge_count == 0
    assert path(1) == Graph(1)
    assert path(4).edge_count == 3
    assert cycle(3) == complete(3)
    # K_{2,2} is the 4-cycle up to swapping labels 2 and 3
    swap = {1: 1, 2: 3, 3: 2, 4: 4}
    relabeled = Graph.from_edges(4, [(swap[u], swap[v]) for u, v in complete_bipartite(2, 2).edges()])
    assert relabeled == cycle(4)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        complete(0)


def test_erdos_renyi_determinism_and_extremes():
    assert erdos_renyi(10, 0.0, 7) == empty(10)
    assert erdos_renyi(10, 1.0, 7) == complete(10)
    a = erdos_renyi(20, 0.5, 1)
    b = erdos_renyi(20, 0.5, 1)
    assert a == b
    assert erdos_renyi(20, 0.5, 2) != a
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 0)


def test_generate_rejects_non_finite_parameters():
    for kind, params in [("complete", [float("inf")]), ("erdos_renyi", [float("inf"), 0.5])]:
        with pytest.raises(ValueError, match=f"generator {kind} needs finite parameters"):
            generate(kind, params, seed=0)
    with pytest.raises(ValueError, match="finite"):
        generate("cycle", [float("nan")])


def test_generate_dispatcher():
    assert generate("complete_bipartite", [2, 2]) == complete_bipartite(2, 2)
    assert generate("erdos_renyi", [10, 0.0], seed=7) == empty(10)
    assert generate("erdos_renyi", [20, 0.5], seed=1) == generate("erdos_renyi", [20, 0.5], seed=1)
    with pytest.raises(ValueError, match="unknown generator 'petersen'; choose from"):
        generate("petersen", [10])
    with pytest.raises(ValueError, match=r"generator complete takes 1 parameter\(s\), got 2"):
        generate("complete", [2, 3])
    with pytest.raises(ValueError, match=r"generator erdos_renyi takes 2 parameter\(s\), got 3"):
        generate("erdos_renyi", [10, 0.5, 1], seed=0)
    with pytest.raises(ValueError, match="generator cycle needs integer parameters, got 4.5"):
        generate("cycle", [4.5])
    with pytest.raises(ValueError, match="generator erdos_renyi needs integer parameters, got 4.5"):
        generate("erdos_renyi", [4.5, 0.5], seed=0)
    with pytest.raises(ValueError, match="erdos_renyi requires a seed"):
        generate("erdos_renyi", [10, 0.5])


def test_erdos_renyi_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        erdos_renyi(10, 0.5, -1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        generate("erdos_renyi", [10, 0.5], seed=-3)


def test_size_cap_env(monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    with pytest.raises(ValueError):
        complete(9)
    assert complete(8).n == 8
    monkeypatch.setenv("NG_MAX_ORDER", "bogus")
    with pytest.raises(ValueError):
        complete(2)
