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

Batches of graphs up to EXHAUSTIVE_CAP are int64 arrays of the same masks.
`isomorphism_classes` extends every class by a new vertex with every
neighbour set (`extensions`) and dedupes by a canonical form from colour
refinement and the permutations within its cells (`canonical_masks`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 4096
MAX_ORDER_ENV = "NG_MAX_ORDER"

# largest order of exhaustive search and of the class build: order 9 takes
# about 65 s to classify, and int64 pair masks overflow from order 12
EXHAUSTIVE_CAP = 8
# masks per batch: matrices per eigvalsh call in exhaustive search, per
# canonicalization in the class build, and per relabelling block
SCORE_CHUNK = 1 << 14


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
        # numpy integers, as isomorphism_classes returns, become Python ints:
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
    def full_mask(self) -> int:
        return (1 << self.pair_count) - 1

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        return bool(self.bits >> pair_bit(u, v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (i, j) with i < j, in ascending bit order."""
        i, j = pair_indices(self.n)
        on = np.flatnonzero(mask_to_bitarray(self.bits, self.pair_count))
        yield from zip((i[on] + 1).tolist(), (j[on] + 1).tolist())

    def degrees(self) -> list[int]:
        a = self.adjacency_matrix(dtype=np.int64)
        return [int(x) for x in a.sum(axis=0)]

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

    def row_sums(self) -> list[int]:
        return [int(x) for x in self.entries.sum(axis=1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix01):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices with edges exactly where g has none."""
    return Graph(g.n, g.bits ^ g.full_mask)


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
    check_order(n)
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


def masks_to_stack(masks: np.ndarray, n: int, dtype=np.float64) -> np.ndarray:
    """Adjacency matrices (B, n, n) of the order-n int64 masks (B,)."""
    m = n * (n - 1) // 2
    return _bits_to_matrices((masks[:, None] >> np.arange(m)) & 1, n, dtype)


def extensions(reps: np.ndarray, k: int) -> np.ndarray:
    """Every order-k mask whose first k-1 vertices induce one of `reps`.

    The pairs of vertex k are the top k-1 bits of the pair order, so a new
    vertex joined to a neighbour set is that set shifted above the old mask.
    """
    shift = (k - 1) * (k - 2) // 2
    sets = np.arange(1 << (k - 1), dtype=np.int64) << shift
    return (reps[:, None] | sets[None, :]).ravel()


def _relabel(adj: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Masks of the graphs `adj` (G, k, k) relabelled by each row of `perms`
    (P, k): vertex a of relabelling p is vertex perms[p, a], so entry [g, p]
    is the mask of adj[g][perms[p]][:, perms[p]]."""
    i, j = pair_indices(adj.shape[-1])
    bits = adj[:, perms[:, i], perms[:, j]]
    return bits @ (np.int64(1) << np.arange(i.size, dtype=np.int64))


def _cell_permutations(layout: np.ndarray) -> np.ndarray:
    """Every permutation of positions that maps each run of equal values in
    the sorted `layout` onto itself, as rows (`_cell_table`)."""
    cuts = [0, *(np.flatnonzero(np.diff(layout)) + 1).tolist(), layout.size]
    return _cell_table(tuple(hi - lo for lo, hi in zip(cuts, cuts[1:])))


@functools.cache
def _cell_table(cells: tuple[int, ...]) -> np.ndarray:
    """Every permutation of positions that maps each run of `cells[c]`
    positions, in order, onto itself, as rows.  Each layout is built once
    per process; the shared table is read-only."""
    bounds = np.cumsum((0, *cells)).tolist()
    runs = [itertools.permutations(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    table = np.array([sum(p, ()) for p in itertools.product(*runs)], dtype=np.int64)
    table.flags.writeable = False
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


def canonical_masks(masks: np.ndarray, k: int) -> np.ndarray:
    """Canonical form of each order-k mask: the smallest mask over the
    relabellings that list the refined colour cells in colour order.

    Each adjacency matrix is put in colour order once, so the graphs with one
    colour layout share that layout's table of permutations within cells,
    built once per process (`_cell_table`).
    Two masks get the same canonical form exactly when their graphs are
    isomorphic, and the form is itself a labelling of the graph.
    """
    adj = masks_to_stack(masks, k, dtype=np.int64)
    colour = _refined_colours(adj)
    order = np.argsort(colour, axis=1, kind="stable")
    adj = adj[np.arange(masks.size)[:, None, None], order[:, :, None], order[:, None, :]]
    layouts, group = np.unique(np.sort(colour, axis=1), axis=0, return_inverse=True)
    group = group.ravel()
    canon = np.empty(masks.size, dtype=np.int64)
    for g, layout in enumerate(layouts):
        members = np.flatnonzero(group == g)
        perms = _cell_permutations(layout)
        step = max(1, SCORE_CHUNK // perms.shape[0])
        for lo in range(0, members.size, step):
            idx = members[lo : lo + step]
            canon[idx] = _relabel(adj[idx], perms).min(axis=1)
    return canon


@functools.cache
def isomorphism_classes(n: int) -> np.ndarray:
    """Canonical masks of the graphs of order n, one per isomorphism class,
    ascending, for 0 <= n <= EXHAUSTIVE_CAP.  Built from the classes of
    order n - 1, canonicalizing SCORE_CHUNK extensions at a time.  Each
    order is built once per process; the shared array is read-only."""
    if not 0 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"isomorphism classes need 0 <= n <= {EXHAUSTIVE_CAP}, got n={n}")
    if n == 0:
        reps = np.zeros(1, dtype=np.int64)
    else:
        ext = extensions(isomorphism_classes(n - 1), n)
        reps = np.unique(np.concatenate([
            canonical_masks(ext[lo : lo + SCORE_CHUNK], n)
            for lo in range(0, ext.size, SCORE_CHUNK)
        ]))
    reps.flags.writeable = False
    return reps


@functools.cache
def complement_pair_classes(n: int) -> np.ndarray:
    """The classes of `isomorphism_classes(n)` whose canonical mask is at
    most that of their complement's class: one class per complement pair,
    the self-complementary ones included.  Each order is built once per
    process; the shared array is read-only."""
    classes = isomorphism_classes(n)
    full = (1 << n * (n - 1) // 2) - 1
    reps = classes[classes <= canonical_masks(classes ^ full, n)]
    reps.flags.writeable = False
    return reps


def labellings(classes: np.ndarray, n: int) -> np.ndarray:
    """Distinct masks of every labelling of the given order-n graphs."""
    perms = _cell_permutations(np.zeros(n, dtype=np.int64))  # one cell: all n!
    adj = masks_to_stack(classes, n, dtype=np.int64)
    blocks = [_relabel(adj[c : c + 1], perms).ravel() for c in range(classes.size)]
    return np.unique(np.concatenate(blocks))
