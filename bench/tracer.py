"""Spans around the public boundary of each ngspectral module, installed
from outside the program.

A wrapper records (name, layer, start, end, parent, op) for every call into a
boundary function and rebinds itself under every alias the ngspectral
modules hold, because ``from x import y`` copies the reference.  A layer's
self time is the duration of its spans minus the part their child spans
cover.  Boundary functions that no longer exist are reported as missing;
a layer with none left is unmeasured, and the run goes on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable

RENDERERS = [
    "report_csv_row", "report_json_line", "report_text_line",
    "record_csv_row", "record_json_line", "record_text",
    "ratio_csv_row", "ratio_json_line", "ratio_text",
    "spectrum_csv_lines", "spectrum_json", "spectrum_text_lines",
]

# layer -> (module, boundary functions); "Class.method" names a method.
BOUNDARY = {
    "cli": ("ngspectral.cli", ["main"]),
    "graph6": ("ngspectral.graph6", ["parse_graph6", "emit_graph6"]),
    "graphs": ("ngspectral.graphs", [
        "complete", "empty", "path", "cycle", "complete_bipartite", "erdos_renyi", "generate",
        "complement", "induced_subgraph", "blowup_independent", "blowup_clique",
        "Graph.from_edges", "Graph.from_adjacency", "Graph.adjacency_matrix", "Graph.edges",
    ]),
    "eigensolver": ("ngspectral.eigensolver", [
        "symmetric_eigenvalues", "batched_symmetric_eigenvalues",
    ]),
    "spectra": ("ngspectral.spectra", [
        "spectrum_pair", "adjacency_spectrum", "symmetric_spectrum",
    ]),
    "constructions": ("ngspectral.constructions", [
        "construct_a", "extremal_graph", "witness_check",
    ]),
    "bounds": ("ngspectral.bounds", ["run_battery", "ramsey_certificate"]),
    "search": ("ngspectral.search", [
        "exhaustive_f", "local_search_f", "ratio_table", "objective",
    ]),
    "reporting": ("ngspectral.reporting", RENDERERS),
    "linalg": ("numpy.linalg", ["eigvalsh"]),
}
LAYERS = tuple(BOUNDARY)

# Counters per layer, besides calls; each is a count per traced pass.
COUNTERS = {
    "eigensolver": ["flops_est"],
    "linalg": ["matrices"],
    "graph6": ["chars"],
    "reporting": ["bytes"],
    "bounds": ["reports", "violations", "certificates_found", "certificates_tried"],
    "search": ["evaluations"],
}


def _order(matrix) -> int:
    return int(getattr(matrix, "shape", (len(matrix),))[-1])


def _count_eigensolver(counts, name, args, result) -> None:
    shape = getattr(args[0], "shape", None)
    batch = 1
    if name == "batched_symmetric_eigenvalues" and shape is not None:
        for d in shape[:-2]:
            batch *= int(d)
    counts["eigensolver.flops_est"] += batch * 4.0 / 3.0 * _order(args[0]) ** 3


def _count_linalg(counts, name, args, result) -> None:
    batch = 1
    for d in getattr(args[0], "shape", (0, 0))[:-2]:
        batch *= int(d)
    counts["linalg.matrices"] += batch


def _count_graph6(counts, name, args, result) -> None:
    counts["graph6.chars"] += len(args[0] if name == "parse_graph6" else result)


def _count_bounds(counts, name, args, result) -> None:
    if name == "run_battery":
        counts["bounds.reports"] += len(result)
        counts["bounds.violations"] += sum(1 for r in result if r.violated)
    else:
        counts["bounds.certificates_tried"] += 1
        counts["bounds.certificates_found"] += result is not None


def _count_search(counts, name, args, result) -> None:
    if name in ("exhaustive_f", "local_search_f"):
        counts["search.evaluations"] += result.evaluations


COUNTER_HOOKS = {
    "eigensolver": _count_eigensolver,
    "linalg": _count_linalg,
    "graph6": _count_graph6,
    "bounds": _count_bounds,
    "search": _count_search,
}


class Tracer:
    """Records spans while `recording` is true; `install` puts the wrappers
    in place and `uninstall` restores every original binding."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _open(self, name: str, layer: str) -> tuple[int, list]:
        idx = len(self.spans)
        rec = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.spans.append(rec)
        self.stack.append(idx)
        return idx, rec

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = COUNTER_HOOKS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            _, rec = self._open(name, layer)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                self.stack.pop()
            if hook is not None:
                hook(self.counts, name, args, result)
            return result

        return wrapper

    def wrap_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """Time a generator over its whole iteration: the span's duration is
        the time spent inside it, summed over every step."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.recording:
                return it
            idx, rec = self._open(name, layer)
            self.stack.pop()
            rec[2] = rec[3] = clock()
            return self._steps(it, idx, rec, clock)

        return wrapper

    def _steps(self, it, idx, rec, clock):
        while True:
            self.stack.append(idx)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec[3] += clock() - t0
                self.stack.pop()
            yield item

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every boundary function that exists under all its aliases."""
        self.missing = []
        for layer, (module_name, names) in BOUNDARY.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            for name in names:
                if not self._install_one(layer, module, name):
                    self.missing.append(f"{module_name}.{name}")

    def _install_one(self, layer: str, module, name: str) -> bool:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, attr, raw.__func__))
            elif _is_generator(raw):
                wrapped = self.wrap_generator(layer, attr, raw)
            else:
                wrapped = self.wrap(layer, attr, raw)
            self._rebind(owner, attr, raw, wrapped)
            return True
        if not callable(raw):
            return False
        wrapped = (self.wrap_generator if _is_generator(raw) else self.wrap)(layer, attr, raw)
        self._rebind(owner, attr, raw, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "ngspectral" or mod_name.startswith("ngspectral.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is raw:
                    self._rebind(mod, alias, raw, wrapped)
        return True

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def unmeasured_layers(self) -> list[str]:
        return [
            layer
            for layer, (module_name, names) in BOUNDARY.items()
            if all(f"{module_name}.{n}" in self.missing for n in names)
        ]

    # ---------------------------------------------------------- summaries

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time and calls per layer, and the summed duration of root spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        root = 0.0
        for (name, layer, start, end, parent, op), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
            calls[layer] += 1
            if parent < 0:
                root += end - start
        return self_s, calls, root

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON: field names, then one row per span."""
        fields = ["name", "layer", "start", "end", "parent", "op"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "missing": self.missing}, fh)


def _is_generator(fn) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and bool(code.co_flags & 0x20)  # CO_GENERATOR


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    units = {"flops_est": "flop", "chars": "char", "bytes": "B"}
    higher = {"certificates_found"}
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
        for counter in COUNTERS.get(layer, []):
            out.append((f"{layer}.{counter}", units.get(counter, "count"),
                        "higher" if counter in higher else "lower"))
    out.append(("harness.self_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out
