"""graph6 codec: hand-packed goldens, round trips, malformed input."""

import random

import numpy as np
import pytest

from ngspectral.graph6 import emit_graph6, parse_graph6
from ngspectral.graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    erdos_renyi,
    path,
    smallest_graph6,
)
from witness_oracle import smallest_graph6_array


def test_k3_hand_packed():
    # n=3 -> chr(63+3) = 'B'; bits (1,2),(1,3),(2,3) = 111 -> 111000 = 56 -> 'w'
    assert emit_graph6(complete(3)) == "Bw"


def test_c5_hand_packed():
    # bits 1010011001 -> groups 101001|100100 -> 41, 36 -> 'h', 'c'
    assert emit_graph6(cycle(5)) == "Dhc"


def test_more_goldens():
    assert emit_graph6(complete(4)) == "C~"
    assert emit_graph6(empty(4)) == "C?"
    assert emit_graph6(Graph(1)) == "@"
    assert emit_graph6(complete(2)) == "A_"
    assert emit_graph6(empty(2)) == "A?"
    assert emit_graph6(complete_bipartite(3, 5)) == "GFzfF?"


def test_round_trip_named():
    for g in [Graph(1), complete(2), path(4), cycle(5), complete(7), empty(9)]:
        assert parse_graph6(emit_graph6(g)) == g


def test_round_trip_random():
    for seed in range(20):
        g = erdos_renyi(3 + seed, 0.4, seed)
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        assert emit_graph6(parse_graph6(text)) == text


def test_round_trip_large_order_prefix():
    # 63 <= n uses the '~' + 3-byte order form
    for n, seed in [(63, 0), (70, 1), (100, 2)]:
        g = erdos_renyi(n, 0.1, seed)
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_header_accepted_never_emitted():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g
    assert not emit_graph6(g).startswith(">>")


def test_trailing_newline_tolerated():
    assert parse_graph6("Bw\n") == complete(3)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6(">>graph6<<")
    with pytest.raises(ValueError):
        parse_graph6("!!")  # bytes below 63
    with pytest.raises(ValueError):
        parse_graph6("B")  # truncated data for n=3
    with pytest.raises(ValueError):
        parse_graph6("Bww")  # surplus data
    with pytest.raises(ValueError):
        parse_graph6("?")  # order zero
    with pytest.raises(ValueError):
        parse_graph6("~~??????")  # eight-byte order form
    with pytest.raises(ValueError):
        parse_graph6("~?")  # truncated order prefix
    with pytest.raises(ValueError, match="order 4 takes the one-byte prefix"):
        parse_graph6("~??Cw")  # the long prefix of an order below 63; Cw is the graph
    with pytest.raises(ValueError, match="order 62 takes the one-byte prefix"):
        parse_graph6("~?" + chr(63) + chr(63 + 62))  # the largest order of the one-byte prefix
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(200))  # non-ASCII range


def test_padding_bits_must_be_zero():
    # n=2 has one pair bit; the five padding bits of the data byte must be 0
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 1))


def test_cap_respected(monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "10")
    with pytest.raises(ValueError):
        parse_graph6(chr(63 + 11))


def test_smallest_graph6_compares_as_strings():
    # the reversed-bits order must agree with comparing the emitted strings
    rng = random.Random(3)
    for n in range(1, 13):
        m = n * (n - 1) // 2
        for size in (1, 2, 7):
            masks = [rng.getrandbits(m) if m else 0 for _ in range(size)]
            graphs = [Graph(n, mask) for mask in masks]
            expected = min(emit_graph6(h) for g in graphs for h in (g, complement(g)))
            assert emit_graph6(Graph(n, smallest_graph6(n, masks))) == expected


def test_smallest_graph6_array_matches_list():
    # the witness oracle ranks int64 masks in numpy, smallest_graph6 lists of
    # ints by string; duplicates and masks given with their complements must
    # not change the answer
    rng = random.Random(11)
    for n in range(1, 12):
        m = n * (n - 1) // 2
        full = (1 << m) - 1
        for size in (1, 3, 40):
            masks = [rng.getrandbits(m) if m else 0 for _ in range(size)]
            masks += masks[: size // 2] + [mask ^ full for mask in masks[size // 3 :]]
            rng.shuffle(masks)
            array = np.array(masks, dtype=np.int64)
            best = smallest_graph6(n, masks)
            assert smallest_graph6_array(n, array) == emit_graph6(Graph(n, best))


def test_smallest_graph6_array_path_stops_at_order_11():
    # from order 12 a mask needs more than 62 bits: only lists hold it
    with pytest.raises(ValueError, match="order 12 has 66"):
        smallest_graph6_array(12, np.zeros(1, dtype=np.int64))
    masks = [random.Random(12).getrandbits(66)]
    assert emit_graph6(Graph(12, smallest_graph6(12, masks))) == min(
        emit_graph6(h) for h in (Graph(12, masks[0]), complement(Graph(12, masks[0])))
    )
