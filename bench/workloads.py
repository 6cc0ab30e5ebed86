"""Seeded op lists for the four workloads and the independent checks of
their outputs.

Everything here uses numpy alone and never imports ngspectral: inputs are
built from the documented formats (graph6, the G(n, p) draw order, the
Kronecker recursion), and every output is checked against a reference
computed here with ``np.linalg.eigvalsh`` or taken from ``references.json``.
An op is a JSON payload for the worker plus a check that returns None when
the captured output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("check_many", "check_large", "search_exact", "search_local")
SCALES = ("full", "smoke")
FORMATS = ("csv", "json")

REFERENCES = Path(__file__).with_name("references.json")

SPECTRUM_TOL = 1e-9  # times max(1, n), on every eigenvalue and on the Nosal sum
VALUE_TOL = 1e-9  # on search values and witness re-scores


@dataclass
class Op:
    """One closed-loop request: `payload` goes to the worker, `check` judges
    the captured output (exit code, stdout text) outside the timed region."""

    payload: dict
    check: Callable[[int, str], Optional[str]] = field(repr=False)


# ---------------------------------------------------------------- graphs


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, 0-based, in graph6 column-major pair order."""
    j, i = np.tril_indices(n, -1)
    return i, j


def adjacency_from_bits(n: int, bits: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n))
    i, j = _pairs(n)
    a[i, j] = bits
    a[j, i] = bits
    return a


def er_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    """The G(n, p) graph that `erdos_renyi:n,p` with `--seed seed` documents:
    one default_rng(seed).random() draw per pair, in graph6 pair order."""
    draws = np.random.default_rng(seed).random(n * (n - 1) // 2)
    return adjacency_from_bits(n, draws < p)


def path_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = 1.0
    return a


def cycle_adjacency(n: int) -> np.ndarray:
    a = path_adjacency(n)
    a[0, n - 1] = a[n - 1, 0] = 1.0
    return a


def complete_bipartite_adjacency(p: int, q: int) -> np.ndarray:
    a = np.zeros((p + q, p + q))
    a[:p, p:] = a[p:, :p] = 1.0
    return a


def blowup_clique_adjacency(a: np.ndarray, t: int) -> np.ndarray:
    """Every vertex becomes a t-clique; every edge a complete join of blocks."""
    n = a.shape[0]
    return np.kron(a, np.ones((t, t))) + np.kron(np.eye(n), np.ones((t, t)) - np.eye(t))


def extremal_adjacency(k: int, t: int) -> np.ndarray:
    """A_{k+1} (x) J_t with the diagonal zeroed, where A_1 = I_2 and
    A_{m+1} = ((2 A_m - J) (x) [[1, -1], [-1, -1]] + J) / 2."""
    a = np.eye(2, dtype=np.int64)
    seed_block = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    for _ in range(k):
        a = (np.kron(2 * a - 1, seed_block) + 1) // 2
    blown = np.kron(a, np.ones((t, t), dtype=np.int64)).astype(float)
    np.fill_diagonal(blown, 0.0)
    return blown


def complement_adjacency(a: np.ndarray) -> np.ndarray:
    c = 1.0 - a
    np.fill_diagonal(c, 0.0)
    return c


def encode_graph6(a: np.ndarray) -> str:
    n = a.shape[0]
    i, j = _pairs(n)
    bits = (a[i, j] != 0).astype(np.int64)
    bits = np.concatenate([bits, np.zeros((-bits.size) % 6, dtype=np.int64)])
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1]) + 63
    if n <= 62:
        prefix = chr(63 + n)
    else:
        prefix = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return prefix + "".join(map(chr, body))


def decode_graph6(text: str) -> np.ndarray:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n, body = data[0], data[1:]
    m = n * (n - 1) // 2
    bits = [(v >> s) & 1 for v in body for s in (5, 4, 3, 2, 1, 0)]
    if len(bits) < m:
        raise ValueError(f"graph6 string too short for order {n}")
    return adjacency_from_bits(n, np.array(bits[:m], dtype=float))


# ------------------------------------------------------------ references


def spectra_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linalg.eigvalsh(a)[::-1],
        np.linalg.eigvalsh(complement_adjacency(a))[::-1],
    )


def score(a: np.ndarray, s: int, family: str) -> float:
    """|mu_s| + |mu_s(complement)| (top) or the s-th smallest pair (bottom)."""
    wg, wc = spectra_desc(a)
    col = s - 1 if family == "top" else a.shape[0] - s
    return abs(float(wg[col])) + abs(float(wc[col]))


def battery_ids(n: int, s_max: int) -> list[tuple[str, Optional[int]]]:
    """(bound_id, parameter) of every report `check --s-max s_max` emits at
    order n, in output order."""
    ids: list[tuple[str, Optional[int]]] = [
        ("nosal_lower", None),
        ("nosal_upper", None),
        ("csikvari_terpai", None),
        ("subset_squares", n - 1),
    ]
    for s in range(2, s_max + 1):
        ids += [(b, s) for b in ("top_sum_squares", "top_abs_sum", "top_pair_squares", "fs_upper")]
    for s in range(1, s_max + 1):
        ids += [
            (b, s)
            for b in ("bottom_sum_squares", "bottom_abs_sum", "bottom_pair_squares", "fns_upper")
        ]
    ids += [("nonpositive_eigenvalue", s) for s in range(2, min(s_max, n) + 1)]
    k = 0
    while 4**k <= n:
        ids.append(("ramsey_sign", k))
        k += 1
    for k in range(2, n + 1):
        ids += [("weyl_upper", k), ("weyl_lower", k)]
    return sorted(ids, key=lambda r: (r[0], -1 if r[1] is None else r[1]))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- checks


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _flag(x) -> bool:
    return x is True or x == "true"


def _real(x) -> float:
    return float("nan") if x in (None, "nan") else float(x)


def check_spectrum(a: np.ndarray, fmt: str) -> Callable[[int, str], Optional[str]]:
    n = a.shape[0]

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if fmt == "json":
            doc = json.loads(out)
            got_n, got_e = doc["n"], doc["e"]
            sg = np.array(doc["spectrum"], dtype=float)
            sc = np.array(doc["complement_spectrum"], dtype=float)
        else:
            header, rows = _csv_rows(out)
            if header != ["n", "e", "i", "mu_g", "mu_complement"]:
                return f"unexpected csv header {header}"
            got_n, got_e = int(rows[0][0]), int(rows[0][1])
            sg = np.array([float(r[3]) for r in rows])
            sc = np.array([float(r[4]) for r in rows])
        if got_n != n or got_e != int(a.sum()) // 2:
            return f"order/edges {got_n}/{got_e}, expected {n}/{int(a.sum()) // 2}"
        wg, wc = spectra_desc(a)
        if sg.shape != (n,) or sc.shape != (n,):
            return "wrong number of eigenvalues"
        err = max(np.max(np.abs(sg - wg)), np.max(np.abs(sc - wc)))
        if not err <= SPECTRUM_TOL * max(1, n):
            return f"spectrum off by {err:.3g}"
        return None

    return check


def check_battery(a: np.ndarray, s_max: int, fmt: str) -> Callable[[int, str], Optional[str]]:
    n = a.shape[0]

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if fmt == "json":
            rows = [json.loads(line) for line in out.splitlines()]
        else:
            header, raw = _csv_rows(out)
            rows = [dict(zip(header, r)) for r in raw]
        ids = [
            (r["bound_id"], None if r["s_or_k"] in (None, "") else int(r["s_or_k"]))
            for r in rows
        ]
        if ids != battery_ids(n, s_max):
            return f"report ids differ from the battery for n={n}, s_max={s_max}"
        if any(int(r["n"]) != n for r in rows):
            return "report with wrong order"
        by_id = {r["bound_id"]: r for r in rows}
        wg, wc = spectra_desc(a)
        total = float(wg[0] + wc[0])
        for got in (_real(by_id["nosal_lower"]["rhs"]), _real(by_id["nosal_upper"]["lhs"])):
            if not abs(got - total) <= SPECTRUM_TOL * max(1, n):
                return f"nosal sum {got} != mu_1 + mu_1(complement) = {total}"
        if any(_flag(r["applicable"]) and not _flag(r["satisfied"]) for r in rows):
            return "a report is violated"
        return None

    return check


def _record(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    header, rows = _csv_rows(out)
    return dict(zip(header, rows[0]))


def check_exact(n: int, s: int, family: str, fmt: str, ref: dict) -> Callable[[int, str], Optional[str]]:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        rec = _record(out, fmt)
        value = _real(rec["value"])
        if rec["witness"] != ref["witness"]:
            return f"witness {rec['witness']} != reference {ref['witness']}"
        if not abs(value - ref["value"]) <= VALUE_TOL:
            return f"value {value} != reference {ref['value']}"
        rescored = score(decode_graph6(rec["witness"]), s, family)
        if not abs(rescored - value) <= VALUE_TOL:
            return f"witness re-scores to {rescored}, reported {value}"
        if int(rec["evaluations"]) != 1 << (n * (n - 1) // 2 - 1):
            return f"evaluations {rec['evaluations']}"
        return None

    return check


def check_local(n: int, s: int, family: str, fmt: str, floor: float) -> Callable[[int, str], Optional[str]]:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        rec = _record(out, fmt)
        value = _real(rec["value"])
        witness = decode_graph6(rec["witness"])
        if witness.shape[0] != n:
            return f"witness has order {witness.shape[0]}, expected {n}"
        rescored = score(witness, s, family)
        if not abs(rescored - value) <= VALUE_TOL:
            return f"witness re-scores to {rescored}, reported {value}"
        if not value >= floor - VALUE_TOL:
            return f"value {value} below the committed floor {floor}"
        return None

    return check


def check_graph(a: np.ndarray) -> Callable[[int, str], Optional[str]]:
    expected = encode_graph6(a)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        got = json.loads(out)["graph6"]
        return None if got == expected else "graph differs from the reference"

    return check


def check_ramsey(a: np.ndarray, k: int) -> Callable[[int, str], Optional[str]]:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        cert = json.loads(out)
        if cert is None:
            return f"no certificate at n={a.shape[0]} >= 4^{k}"
        vs = [v - 1 for v in cert["vertices"]]
        if len(set(vs)) != k + 1 or min(vs) < 0 or max(vs) >= a.shape[0]:
            return f"certificate vertices {cert['vertices']}"
        want = 1.0 if cert["kind"] == "clique" else 0.0
        block = a[np.ix_(vs, vs)]
        off = block[~np.eye(k + 1, dtype=bool)]
        if cert["kind"] not in ("clique", "independent_set") or np.any(off != want):
            return f"{cert['kind']} {cert['vertices']} is not one"
        return None

    return check


# ---------------------------------------------------------------- op lists


def _cli(argv: list[str], check) -> Op:
    return Op({"kind": "cli", "argv": argv}, check)


def _graph_op(command: str, source: list[str], a: np.ndarray, fmt: str) -> Op:
    if command == "check":
        return _cli(["check", *source, "--s-max", "5", "--format", fmt], check_battery(a, 5, fmt))
    return _cli(["spectrum", *source, "--format", fmt], check_spectrum(a, fmt))


def _graph_source(rng, kind: str, n: int, p: float, as_graph6: bool) -> tuple[list[str], np.ndarray]:
    """CLI graph flags and the reference adjacency for one input graph."""
    if kind == "erdos_renyi":
        seed = int(rng.integers(1 << 31))
        a = er_adjacency(n, p, seed)
        if as_graph6:
            return ["--graph6", encode_graph6(a)], a
        return ["--generate", f"erdos_renyi:{n},{p}", "--seed", str(seed)], a
    a = path_adjacency(n) if kind == "path" else cycle_adjacency(n)
    if as_graph6:
        return ["--graph6", encode_graph6(a)], a
    return ["--generate", f"{kind}:{n}"], a


def _spread(rng, values: list, count: int) -> list:
    """`count` items in fixed proportions over `values`, in seeded order, so
    that every seed gets the same mix."""
    items = [values[i * len(values) // count] for i in range(count)]
    return [items[i] for i in rng.permutation(count)]


def bipartite_ops(orders) -> list[Op]:
    """`check` on K_{n/2,n/2} and `spectrum` on K_{n/4,3n/4} for each n."""
    ops = []
    for n in orders:
        for command, p, fmt in (("check", n // 2, "csv"), ("spectrum", n // 4, "json")):
            source = ["--generate", f"complete_bipartite:{p},{n - p}"]
            ops.append(_graph_op(command, source, complete_bipartite_adjacency(p, n - p), fmt))
    return ops


def check_many_ops(rng, count: int, lo: int = 8, hi: int = 128) -> list[Op]:
    # One order per stratum of [lo, hi]: every seed gets the same spread of sizes.
    orders = rng.permutation(
        [lo + int((i + rng.random()) * (hi - lo + 1) / count) for i in range(count)]
    )
    commands = _spread(rng, ["check"] * 4 + ["spectrum"], count)
    kinds = _spread(rng, [("erdos_renyi", p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
                    + [("path", 0.0), ("cycle", 0.0)], count)
    as_graph6 = _spread(rng, [True, False], count)
    formats = _spread(rng, list(FORMATS), count)
    ops = []
    for n, command, (kind, p), g6, fmt in zip(orders, commands, kinds, as_graph6, formats):
        source, a = _graph_source(rng, kind, int(n), p, g6)
        ops.append(_graph_op(command, source, a, fmt))
    return ops


def check_large_ops(rng, scale: str) -> list[Op]:
    big, mid, small = (768, 512, 384) if scale == "full" else (96, 64, 48)
    ops = []
    for command, n, p, as_graph6 in [
        ("check", big, 0.5, False),
        ("check", mid, 0.3, True),
        ("check", small, 0.1, False),
        ("spectrum", small, 0.7, False),
    ]:
        source, a = _graph_source(rng, "erdos_renyi", n, p, as_graph6)
        ops.append(_graph_op(command, source, a, str(rng.choice(FORMATS))))
    # Kronecker blow-ups: extremal_graph(3, t) = A_4 (x) J_t, zero diagonal.
    for t in (mid // 16, small // 16):
        a = extremal_adjacency(3, t)
        ops.append(_graph_op("spectrum", ["--graph6", encode_graph6(a)], a, str(rng.choice(FORMATS))))
    # Library calls on the graph plumbing.
    half = big // 2
    ops.append(Op({"kind": "lib", "call": "complete_bipartite", "args": [half, half]},
                  check_graph(complete_bipartite_adjacency(half, half))))
    a = er_adjacency(big, 0.5, int(rng.integers(1 << 31)))
    g6 = encode_graph6(a)
    ops.append(Op({"kind": "lib", "call": "ramsey_certificate", "graph6": g6, "k": 4},
                  check_ramsey(a, 4)))
    vertices = sorted(int(v) + 1 for v in rng.choice(big, size=big // 2, replace=False))
    sub = a[np.ix_([v - 1 for v in vertices], [v - 1 for v in vertices])]
    ops.append(Op({"kind": "lib", "call": "induced_subgraph", "graph6": g6, "vertices": vertices},
                  check_graph(sub)))
    return [ops[i] for i in rng.permutation(len(ops))]


def search_exact_ops(rng, scale: str, refs: dict) -> list[Op]:
    n = 6 if scale == "full" else 5
    cases = [(n, s, "top") for s in range(2, n + 1)] + [(n, s, "bottom") for s in range(1, n + 1)]
    if scale == "full":
        cases.append((7, 2, "top"))
    ops = []
    for n_, s, family in cases:
        fmt = str(rng.choice(FORMATS))
        argv = ["search", "--exact", "--n", str(n_), "--s", str(s), "--family", family,
                "--workers", "1", "--format", fmt]
        ops.append(_cli(argv, check_exact(n_, s, family, fmt, refs["exact"][f"{n_},{s},{family}"])))
    return [ops[i] for i in rng.permutation(len(ops))]


def search_local_ops(rng, scale: str, refs: dict) -> list[Op]:
    """One fixed search seed for every (n, family).  How long a climb runs
    depends on its seed (the order-24 ops took 1.7-3.3 s across workload
    seeds), and with six ops that seed-to-seed spread alone would swamp
    `op_p50_ms`.  The workload seed orders the ops and picks their formats."""
    orders, iterations = ((16, 24, 32), 50) if scale == "full" else ((8, 12), 5)
    ops = []
    for n, family in itertools.product(orders, ("top", "bottom")):
        s = 2
        fmt = str(rng.choice(FORMATS))
        argv = ["search", "--local", "--n", str(n), "--s", str(s), "--family", family,
                "--iterations", str(iterations), "--restarts", "3", "--seed", "0",
                "--format", fmt]
        floor = refs["local_floor"].get(f"{n},{s},{family}", -math.inf)  # none at smoke size
        ops.append(_cli(argv, check_local(n, s, family, fmt, floor)))
    return [ops[i] for i in rng.permutation(len(ops))]


def build_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The op list of one workload, fixed by (workload, seed, scale)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "check_many":
        return check_many_ops(rng, 240 if scale == "full" else 12)
    if workload == "check_large":
        return check_large_ops(rng, scale)
    if workload == "search_exact":
        return search_exact_ops(rng, scale, load_references())
    return search_local_ops(rng, scale, load_references())


def probe_ops(workload: str, scale: str = "full") -> list[Op]:
    """Degenerate spectra, the same for every seed, run untimed after a traced
    run of a `check_*` workload.  The seed's Householder+QL solver raises
    ConvergenceError on many of them, so they cannot be ops of a workload on
    which no op may fail; run.py reports how many raise or exit non-zero as
    `eigensolver.convergence_errors`, and an output that fails its check as a
    wrong output, as for any op.  K_{384,384} is left out: one failing
    attempt takes 88 s there."""
    full = scale == "full"
    if workload == "check_many":
        return bipartite_ops((8, 40, 72, 104) if full else (8, 72))
    if workload == "check_large":
        n = 384 if full else 48
        a = blowup_clique_adjacency(er_adjacency(n // 8, 0.5, 0), 8)
        return [_graph_op("spectrum", ["--graph6", encode_graph6(a)], a, "csv"),
                *bipartite_ops([n // 2])[:1]]
    return []
