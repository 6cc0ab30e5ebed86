"""Simple undirected graphs on vertices {1..n} with bitmask adjacency.

The strict upper triangle of the adjacency relation is packed into a single
Python integer: the pair (i, j) with i < j sits at bit (j-1)(j-2)/2 + (i-1).
This is the column-major pair order of the graph6 wire format, so
serialization, complementation and whole-graph enumeration all reduce to
integer arithmetic on masks.  Graph values are immutable and safe to share.

Every conversion takes one route: bitmask <-> pair-order bit array <->
matrix.  `mask_to_bitarray` and `bitarray_to_mask` move between the mask
and a uint8 array indexed by bit position; `pair_indices` gives the matrix
entry of each position, and the strict lower triangle of the matrix, read
row by row, lists the positions in order.  No routine walks the mask once
per edge or per pair, so building, slicing and listing a graph stay linear
in the number of pairs up to the order cap.

Every blow-up takes one route too: `blowup` expands a looped 0/1 quotient
`Matrix01` into parts of given sizes, cliques at its loops.

Batches of graphs up to EXHAUSTIVE_CAP are int64 arrays of the same masks,
read as uint8 pair bits by one helper (`_mask_bits`).
One helper owns the graph6 order of masks: at a fixed order graph6
compares as the key that weighs pair b by 2^(m-1-b), the mask's m-bit string
reversed (`_graph6_key`); `smallest_graph6` ranks a list of masks by it, and
`smallest_labelling` turns its smallest key back into a mask.
Every relabelling takes one route: `_key_blocks` gives the keys of
masks over a colour layout's relabellings, block by block, by one product
with their graph6 weights (`_label_weights`, kept once per layout); each
caller takes only the reduction of each block it needs.
`canonical_masks` takes the smallest over the permutations within the
cells of the colour refinement, and `smallest_labelling` over all n!
relabellings, layout (n,), of a batch and of its complements.
`complement_pair_classes` keeps one class per complement pair: the smaller
canonical form of each one-vertex extension of the pairs of the order below
(`extensions`) and of its complement.  The (n,) tables take 0.09 MB at
n = 6, 0.85 MB at 7 and 9.0 MB at 8.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "NG_MAX_ORDER"

# largest order of exhaustive search and of the class build: order 9 took
# 28.1 s and 245 MB to classify (complement_pair_classes(9), 2 cores,
# OpenBLAS), and int64 pair masks overflow from order 12
EXHAUSTIVE_CAP = 8
# the package's memory budget: the most entries in the largest array of a
# batch, be it the matrices of `canonical_masks`, the keys of a `_key_blocks`
# block (13 masks x 8! for layout (8,)) or an eigvalsh stack of search, so
# that no batch grows with n^2 or n! (8192 matrices of order 8, 512 of order
# 32).  A batch holds one such array, plus the uint8 pair bits of its masks
# (`_mask_bits`): search overwrites each stack with its complements.  The
# weight tables of `_key_blocks` are kept per colour layout, not batched:
# P x m for P relabellings, 9.0 MB for the 8! of (8,)
SCORE_ENTRIES = 1 << 19


def max_order() -> int:
    """Hard cap on graph order.  NG_MAX_ORDER, read at each call, is its only
    override; `NG_MAX_ORDER=8 ngspectral ...` sets it for one run."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{MAX_ORDER_ENV} must be positive, got {cap}")
    return cap


def check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"graph order must be positive, got {n}")
    cap = max_order()
    if n > cap:
        raise ValueError(
            f"graph order {n} exceeds size cap {cap} (set {MAX_ORDER_ENV} to raise it)"
        )


def pair_bit(i: int, j: int) -> int:
    """Bit position of the unordered pair {i, j} of 1-based vertices."""
    if i > j:
        i, j = j, i
    return (j - 1) * (j - 2) // 2 + (i - 1)


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (i, j) arrays with i < j, entry b being the pair at bit b."""
    j, i = np.tril_indices(n, -1)
    return i, j


def _lower_triangle(n: int) -> np.ndarray:
    """Boolean mask of the strict lower triangle.  Its row-major order is the
    pair bit order, so it moves a bit array into a matrix without the index
    arrays of `pair_indices`."""
    return np.tri(n, n, -1, dtype=bool)


def _bits_to_matrices(bits: np.ndarray, n: int, dtype) -> np.ndarray:
    """Symmetric (..., n, n) matrices from the pair-order bit arrays `bits`
    (..., n(n-1)/2), zero on the diagonal."""
    a = np.zeros(bits.shape[:-1] + (n, n), dtype=dtype)
    # numpy's boolean fast path needs a mask over every axis of `a`: a mask
    # over the last two alone is 3-5 times slower at order 64-768, and
    # broadcasting costs a single small matrix about 10 us
    lower = _lower_triangle(n)
    if a.ndim > 2:
        lower = np.broadcast_to(lower, a.shape)
    vals = bits.ravel()
    a[lower] = vals
    a.swapaxes(-1, -2)[lower] = vals
    return a


def mask_to_bitarray(bits: int, m: int) -> np.ndarray:
    """Expand an m-bit mask into a uint8 0/1 array indexed by bit position."""
    buf = bits.to_bytes((m + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")[:m]


def bitarray_to_mask(arr: np.ndarray) -> int:
    """Inverse of mask_to_bitarray."""
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph of positive order with 1-based vertices."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        # numpy integers, as complement_pair_classes returns, become Python ints:
        # the mask needs int.to_bytes and int.bit_count
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "bits", operator.index(self.bits))
        check_order(self.n)
        if self.bits < 0 or self.bits >> self.pair_count:
            raise ValueError("adjacency mask has bits outside the upper triangle")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and bool(self.bits >> pair_bit(u, v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (i, j) with i < j, in ascending bit order."""
        i, j = pair_indices(self.n)
        on = np.flatnonzero(mask_to_bitarray(self.bits, self.pair_count))
        yield from zip((i[on] + 1).tolist(), (j[on] + 1).tolist())

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        return _bits_to_matrices(mask_to_bitarray(self.bits, self.pair_count), self.n, dtype)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_order(n)
        positions = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            positions.append(pair_bit(u, v))
        arr = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
        arr[positions] = 1
        return cls(n, bitarray_to_mask(arr))

    @classmethod
    def from_adjacency(cls, matrix) -> "Graph":
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        n = int(a.shape[0])
        check_order(n)
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any((a != 0) & (a != 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("adjacency diagonal must be zero (no loops)")
        return cls(n, bitarray_to_mask(a[_lower_triangle(n)] != 0))


@dataclass(frozen=True, eq=False)
class Matrix01:
    """Symmetric 0/1 matrix; unlike Graph, diagonal ones are permitted."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.entries)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError("entries must form a square matrix")
        if np.any((raw != 0) & (raw != 1)):  # before the cast, which would truncate 0.5 to 0
            raise ValueError("entries must be 0 or 1")
        a = raw.astype(np.int64)  # a copy, so the caller's array stays writeable
        if not np.array_equal(a, a.T):
            raise ValueError("entries must be symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix01):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices with edges exactly where g has none."""
    return Graph(g.n, g.bits ^ ((1 << g.pair_count) - 1))


def check_sizes(base: Matrix01, sizes: Sequence[int]) -> list[int]:
    """The part sizes of a blow-up of base, one positive integer per row."""
    sizes = [operator.index(t) for t in sizes]
    if len(sizes) != base.order:
        raise ValueError(f"expected {base.order} part sizes, got {len(sizes)}")
    if any(t < 1 for t in sizes):
        raise ValueError(f"part sizes must be at least 1, got {min(sizes)}")
    return sizes


def blowup(base: Matrix01, sizes: Sequence[int]) -> Graph:
    """Vertex i of the quotient base becomes sizes[i] consecutive vertices: a
    clique when base has a loop at i, an independent set otherwise.  Parts
    i != j are completely joined when base[i, j] = 1.  With equal sizes t the
    adjacency matrix is base (x) J_t with the diagonal zeroed."""
    sizes = check_sizes(base, sizes)
    n = sum(sizes)
    check_order(n)
    a = np.repeat(np.repeat(base.entries.astype(np.uint8), sizes, axis=0), sizes, axis=1)
    return Graph(n, bitarray_to_mask(a[_lower_triangle(n)]))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given nonempty vertex subset (sorted order)."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("vertex subset must be nonempty")
    for v in vs:
        g._check_vertex(v)
    rows = np.array(vs) - 1
    return Graph.from_adjacency(g.adjacency_matrix(dtype=np.uint8)[np.ix_(rows, rows)])


def complete(n: int) -> Graph:
    check_order(n)
    return Graph(n, (1 << (n * (n - 1) // 2)) - 1)


def empty(n: int) -> Graph:
    return Graph(n, 0)


def path(n: int) -> Graph:
    check_order(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs order >= 3, got {n}")
    check_order(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"complete_bipartite parts must be positive, got {a}, {b}")
    return blowup(Matrix01(np.array([[0, 1], [1, 0]])), (a, b))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with every pair drawn independently; fully seed-determined."""
    check_order(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    m = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    draws = rng.random(m)
    return Graph(n, bitarray_to_mask(draws < p))


# kind -> (builder, count of its leading parameters that are integers);
# erdos_renyi also takes its edge probability and the seed
GENERATORS = {
    "complete": (complete, 1),
    "empty": (empty, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "erdos_renyi": (erdos_renyi, 1),
}


def generate(kind: str, params: Sequence[float], seed: int | None = None) -> Graph:
    """Build a named graph; deterministic for fixed (kind, params, seed)."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; choose from {tuple(GENERATORS)}")
    if not all(math.isfinite(x) for x in params):
        raise ValueError(f"generator {kind} needs finite parameters, got {list(params)}")
    builder, ints = GENERATORS[kind]
    random = kind == "erdos_renyi"
    count = ints + random
    if len(params) != count:
        raise ValueError(f"generator {kind} takes {count} parameter(s), got {len(params)}")
    for x in params[:ints]:
        if float(x) != int(x):
            raise ValueError(f"generator {kind} needs integer parameters, got {x}")
    args = [int(x) for x in params[:ints]]
    if not random:
        return builder(*args)
    if seed is None:
        raise ValueError("erdos_renyi requires a seed")
    return builder(*args, float(params[-1]), seed)


def _mask_bits(masks: np.ndarray, m: int) -> np.ndarray:
    """uint8 pair bits (B, m) of the int64 masks (B,), bit b of mask k at
    [k, b]: the first m bits of each mask's little-endian bytes, unpacked,
    one byte per bit."""
    octets = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :m]


def masks_to_stack(masks: np.ndarray, n: int, dtype=np.float64) -> np.ndarray:
    """Adjacency matrices (B, n, n) of the order-n int64 masks (B,), a new
    array, through the same fill as `Graph.adjacency_matrix`, from the
    uint8 pair bits of `_mask_bits`."""
    return _bits_to_matrices(_mask_bits(masks, n * (n - 1) // 2), n, dtype)


def extensions(reps: np.ndarray, k: int) -> np.ndarray:
    """Every order-k mask whose first k-1 vertices induce one of `reps`.

    The pairs of vertex k are the top k-1 bits of the pair order, so a new
    vertex joined to a neighbour set is that set shifted above the old mask.
    """
    shift = (k - 1) * (k - 2) // 2
    sets = np.arange(1 << (k - 1), dtype=np.int64) << shift
    return (reps[:, None] | sets[None, :]).ravel()


def _permutations(m: int) -> np.ndarray:
    """Every permutation of range(m) as rows, in the lexicographic order of
    itertools.permutations: each first entry f of range(k), then the rows
    of range(k - 1) with their entries from f up raised by one."""
    table = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, m + 1):
        rows = np.empty((k, len(table), k), dtype=np.int64)
        rows[..., 0] = np.arange(k)[:, None]
        rows[..., 1:] = table + (table >= rows[..., :1])
        table = rows.reshape(-1, k)
    return table


def _cell_table(cells: tuple[int, ...]) -> np.ndarray:
    """Every permutation of positions that maps each run of `cells[c]`
    positions, in order, onto itself, as rows, ordered as itertools.product
    of each run's `_permutations`."""
    table = np.zeros((1, 0), dtype=np.int64)
    for lo, size in zip(np.cumsum((0, *cells)).tolist(), cells):
        perms = _permutations(size) + lo
        table = np.hstack([np.repeat(table, len(perms), axis=0), np.tile(perms, (len(table), 1))])
    return table


def _refined_colours(adj: np.ndarray) -> np.ndarray:
    """Stable colour refinement of each graph in `adj` (B, k, k).

    A vertex's key is its colour and its neighbour count per colour, read as
    digits base k + 1 (colour c counts at place[1 + c]); its next colour is
    the number of vertices with a smaller key.  So colours are canonical:
    relabelling a graph permutes its colours the same way.
    """
    k = adj.shape[-1]
    place = (k + 1) ** np.arange(k, -1, -1, dtype=np.int64)
    colour = np.zeros(adj.shape[:2], dtype=np.int64)
    for _ in range(k):
        key = colour * place[0] + np.einsum("bvu,bu->bv", adj, place[1:][colour])
        refined = (key[:, :, None] > key[:, None, :]).sum(axis=2)
        if np.array_equal(refined, colour):
            break
        colour = refined
    return colour


@functools.cache
def _label_weights(cells: tuple[int, ...]) -> np.ndarray:
    """(P, m) graph6 weights, 2^(m-1-b) at pair b, of each pair's image
    under each of the P rows of `_cell_table(cells)`, for an order
    n = sum(cells) with 1 <= n <= EXHAUSTIVE_CAP.  Built a pair at a time
    once per colour layout; read-only, 9.0 MB for the n! rows of (8,)."""
    n = sum(cells)
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"relabelling needs 1 <= n <= {EXHAUSTIVE_CAP}, got n={n}")
    i, j = pair_indices(n)
    weight = np.zeros((n, n))
    weight[i, j] = weight[j, i] = np.ldexp(1.0, np.arange(i.size - 1, -1, -1))
    perms = _cell_table(cells)
    table = np.empty((perms.shape[0], i.size))
    for b in range(i.size):
        table[:, b] = weight[perms[:, i[b]], perms[:, j[b]]]
    table.flags.writeable = False
    return table


def _key_blocks(bits: np.ndarray, weights: np.ndarray, reduce) -> list:
    """`reduce(keys)` of each block of graph6 keys of the rows of the 0/1
    pair bits `bits` (B, m) over the relabellings weighed by the rows of
    `weights` (P, m): keys (b, P) from one float64 product per block of at
    most SCORE_ENTRIES keys (at least one mask), blocks in row order, each
    freed before the next is built.  Exact: every key is below 2^m <= 2^28."""
    step = max(1, SCORE_ENTRIES // weights.shape[0])
    return [reduce(bits[g : g + step].astype(np.float64) @ weights.T)
            for g in range(0, bits.shape[0], step)]


def canonical_masks(masks: np.ndarray, k: int) -> np.ndarray:
    """Canonical form of each order-k mask: the mask of the smallest graph6
    string over the relabellings that list the refined colour cells in
    colour order.

    Each graph's pair bits are read in colour order once, so the graphs with
    one colour layout share its weight table (`_label_weights`), and
    `_key_blocks` gives their smallest keys, the reversed pair bits of the
    form.  Masks go SCORE_ENTRIES // k^2 at a time.  Two masks get the same
    canonical form exactly when their graphs are isomorphic, and the form is
    itself a labelling of the graph.
    """
    if k == 0:
        return np.zeros_like(masks)  # no vertex, so no pair and no cell
    i, j = pair_indices(k)
    place = np.arange(i.size)
    pair = np.zeros((k, k), dtype=np.int64)
    pair[i, j] = pair[j, i] = place  # the bit of each pair
    chunk = SCORE_ENTRIES // (k * k)
    canon = np.empty(masks.size, dtype=np.int64)
    for lo in range(0, masks.size, chunk):
        block = masks[lo : lo + chunk]
        colour = _refined_colours(masks_to_stack(block, k, dtype=np.int64))
        order = np.argsort(colour, axis=1, kind="stable")
        bits = np.take_along_axis(_mask_bits(block, i.size), pair[order[:, i], order[:, j]], axis=1)
        keys = np.empty(block.size, dtype=np.int64)
        layouts, group = np.unique(np.sort(colour, axis=1), axis=0, return_inverse=True)
        for g, layout in enumerate(layouts):
            members = np.flatnonzero(group == g)
            cells = tuple(np.unique(layout, return_counts=True)[1].tolist())
            smallest = _key_blocks(bits[members], _label_weights(cells), lambda keys: keys.min(axis=1))
            keys[members] = np.concatenate(smallest)
        canon[lo : lo + chunk] = ((keys[:, None] >> (i.size - 1 - place)) & 1) @ (1 << place)
    return canon


@functools.cache
def complement_pair_classes(n: int) -> np.ndarray:
    """Canonical masks of the graphs of order n, one per complement pair (the
    smaller of its classes' masks), ascending, for 0 <= n <= EXHAUSTIVE_CAP.
    Deleting the last vertex of a graph or of its complement leaves one of
    the pairs of order n - 1, so the extensions of those pairs meet every
    pair.  Each order is built once per process; the array is read-only."""
    if not 0 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"complement pair classes need 0 <= n <= {EXHAUSTIVE_CAP}, got n={n}")
    if n == 0:
        reps = np.zeros(1, dtype=np.int64)
    else:
        ext = extensions(complement_pair_classes(n - 1), n)
        full = (1 << n * (n - 1) // 2) - 1
        reps = np.unique(np.minimum(canonical_masks(ext, n), canonical_masks(ext ^ full, n)))
    reps.flags.writeable = False
    return reps


def _graph6_key(mask: int, m: int) -> int:
    """The graph6 key of an m-bit mask, its m-bit string reversed, in which
    pair b weighs 2^(m-1-b); the reversal also takes a key back to its mask."""
    return int(f"{mask:0{m}b}"[::-1], 2)


def smallest_labelling(masks: np.ndarray | Sequence[int], n: int) -> int:
    """The mask of the smallest graph6 string over every relabelling of the
    order-n `masks` and of their complements, with no canonical form.

    At a fixed order graph6 compares as the key that weighs pair b by
    2^(m-1-b), and it needs only the smallest and the largest key of all
    masks over the n! rows of `_label_weights((n,))`: one min and one max
    of each block of `_key_blocks`.  Complementing flips every bit, so the
    complements' smallest key is full ^ the largest key.  Raises
    ValueError on no mask or one outside [0, 2^m).
    """
    weights = _label_weights((n,))
    m = weights.shape[1]
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size == 0 or masks.min() < 0 or masks.max() >> m:
        raise ValueError(f"need order-{n} masks in [0, 2^{m}), got {masks.ravel()[:3].tolist()}")
    ranges = _key_blocks(_mask_bits(masks, m), weights, lambda keys: (keys.min(), keys.max()))
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    return _graph6_key(min(int(lo), ((1 << m) - 1) ^ int(hi)), m)


def smallest_graph6(n: int, masks: list[int]) -> int:
    """The mask of the smallest graph6 string over the order-n `masks` and
    their complements, ranked by their graph6 keys."""
    m = n * (n - 1) // 2
    full = (1 << m) - 1
    return min((cand for mask in masks for cand in (mask, mask ^ full)),
               key=lambda mask: _graph6_key(mask, m))
