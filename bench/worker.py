"""One workload in its own process: import ngspectral, warm up, report
ready, then run whole passes of the op list in a closed loop.

Started by run.py as ``worker.py --workload W --src DIR --seconds S --trace T``
(or ``--probe`` to stop once ready).  The op list and the probe ops arrive on
stdin as JSON after the ready time is taken; the probes run once, untimed,
after the last pass.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CAL_EVERY_S = 0.25  # the longest gap between two calibrations, op boundaries permitting

# Warm-up op run once before a worker reports ready; its cost is part of setup_s.
WARMUP = {
    "check_many": ["check", "--generate", "path:8", "--s-max", "2", "--format", "csv"],
    "check_large": ["check", "--generate", "path:8", "--s-max", "2", "--format", "csv"],
    "search_exact": ["search", "--exact", "--n", "4", "--s", "2", "--family", "top", "--format", "csv"],
    "search_local": [
        "search", "--local", "--n", "6", "--s", "2", "--family", "top",
        "--iterations", "2", "--restarts", "1", "--format", "csv",
    ],
}


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import ngspectral
    import ngspectral.cli

    where = Path(ngspectral.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"ngspectral imported from {where}, not from {src}")
    return ngspectral


class Calibration:
    """Fixed work that never touches ngspectral, timed between ops: a Python
    loop and eigvalsh over fixed stacks of order 7 and 24, in about equal
    shares.  Its time tracks how fast the host runs this process at that
    moment, which on a shared 2-vCPU VM swings by tens of percent.  Both
    parts swing alike (up to 1.4-1.5x); chains of small numpy ops swing more
    (up to 1.9x) and are left out, so that the calibration does not
    over-correct LAPACK."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stacks = []
        for count, n in ((512, 7), (24, 24)):
            a = rng.random((count, n, n))
            self._stacks.append(a + a.transpose(0, 2, 1))
        self._eigvalsh = np.linalg.eigvalsh  # taken before any tracer wraps it
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for stack in self._stacks:
            self._eigvalsh(stack)
        return time.perf_counter() - t0

    def measure(self) -> float:
        """The median of three back-to-back runs: the first run after a large
        op finds cold caches, and single runs now and then take 10-30% longer
        for no reason of the host's speed."""
        t0 = time.perf_counter()
        seconds = statistics.median(self._once() for _ in range(3))
        self.samples.append((t0, seconds))
        return seconds

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S


class Runner:
    """Executes ops through the public API with stdout and stderr captured."""

    def __init__(self, ngspectral, calibration: Calibration, tracer=None) -> None:
        self.ng = ngspectral
        self.calibration = calibration
        self.tracer = tracer
        self.outputs: dict[int, dict[str, dict]] = {}  # op -> digest -> outcome
        self.latencies: list[float] = []
        self.starts: list[float] = []

    def _call(self, payload: dict):
        """The timed part of one op: (exit code, result object or text)."""
        ng = self.ng
        if payload["kind"] == "cli":
            return ng.cli.main(payload["argv"]), None
        call = payload["call"]
        if call == "complete_bipartite":
            return 0, ng.complete_bipartite(*payload["args"])
        g = ng.parse_graph6(payload["graph6"])
        if call == "ramsey_certificate":
            return 0, ng.ramsey_certificate(g, payload["k"])
        if call == "induced_subgraph":
            return 0, ng.induced_subgraph(g, payload["vertices"])
        raise ValueError(f"unknown library call {call!r}")

    def _render(self, payload: dict, result) -> str:
        """Library results as JSON text, made outside the timed region."""
        if payload["call"] == "ramsey_certificate":
            if result is None:
                return "null"
            return json.dumps({"kind": result.kind, "vertices": list(result.vertices)})
        return json.dumps({"graph6": self.ng.emit_graph6(result)})

    def run_op(self, index: int, payload: dict, op_id: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc, result = self._call(payload)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc, result, error = -1, None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.starts.append(t0)
        recording = tracer is not None and tracer.recording
        if recording:  # rendering a library result is the harness's work, not a span
            tracer.counts["reporting.bytes"] += len(out.getvalue().encode())
            tracer.recording = False
        if payload["kind"] == "lib" and error is None:
            text = self._render(payload, result)
        else:
            text = out.getvalue()
        if recording:
            tracer.recording = True
        key = hashlib.sha1(f"{rc}\0{error}\0{text}".encode()).hexdigest()
        seen = self.outputs.setdefault(index, {})
        if key in seen:
            seen[key]["count"] += 1
        else:
            seen[key] = {"rc": rc, "error": error, "out": text,
                         "err": err.getvalue()[-2000:], "count": 1}

    def run_pass(self, ops: list[dict], pass_no: int) -> float:
        t0 = time.perf_counter()
        for i, payload in enumerate(ops):
            if self.calibration.due():
                self.calibration.measure()
            self.run_op(i, payload, pass_no * len(ops) + i)
        self.calibration.measure()
        return time.perf_counter() - t0


def _trace_summary(tracer, traced: list[float], plain: list[float], traced_op_s: float) -> dict:
    from tracer import COUNTERS, LAYERS

    self_s, calls, root = tracer.layer_totals()
    passes = len(traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / passes
        metrics[f"{layer}.calls"] = calls[layer] / passes
        for counter in COUNTERS.get(layer, []):
            metrics[f"{layer}.{counter}"] = tracer.counts[f"{layer}.{counter}"] / passes
    wall = sum(traced)
    metrics["harness.self_s"] = (wall - root) / passes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {
        "metrics": metrics,
        "traced_wall_s": wall / passes,
        "traced_op_s": traced_op_s / passes,
        "layer_self_sum_s": sum(self_s.values()) / passes,
        "passes": {"traced": traced, "untraced": plain},
        "unmeasured_layers": tracer.unmeasured_layers(),
        "missing_boundaries": tracer.missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--probe", action="store_true", help="stop once ready")
    args = parser.parse_args()

    ngspectral = _import_program(args.src)

    with contextlib.redirect_stdout(io.StringIO()):
        if ngspectral.cli.main(WARMUP[args.workload]) != 0:
            raise SystemExit("warm-up op failed")
    ready = time.monotonic()
    calibration = Calibration()
    setup_cal = calibration.measure()
    if args.probe:
        print(json.dumps({"ready": ready, "setup_cal": setup_cal}))
        return 0

    payloads = json.load(sys.stdin)
    ops = payloads["ops"]
    calibration.samples.clear()
    result: dict = {"ready": ready, "setup_cal": setup_cal}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        runner = Runner(ngspectral, calibration, tracer)
        traced: list[float] = []
        plain: list[float] = []
        traced_op_s = 0.0
        pass_no = 0
        # Untraced and traced passes alternate; the difference is the overhead.
        while not (traced and plain and sum(traced) + sum(plain) >= args.seconds):
            if pass_no % 2:
                first = len(runner.latencies)
                tracer.install()
                tracer.recording = True
                traced.append(runner.run_pass(ops, pass_no))
                tracer.recording = False
                tracer.uninstall()
                traced_op_s += sum(runner.latencies[first:])
            else:
                plain.append(runner.run_pass(ops, pass_no))
            pass_no += 1
        result["trace"] = _trace_summary(tracer, traced, plain, traced_op_s)
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        runner = Runner(ngspectral, calibration)
        walls: list[float] = []
        while not walls or sum(walls) < args.seconds:
            walls.append(runner.run_pass(ops, len(walls)))
        result["passes"] = walls
    probes = Runner(ngspectral, calibration)
    for i, payload in enumerate(payloads["probes"]):
        probes.run_op(i, payload, i)
    result["probe_outputs"] = {str(k): list(v.values()) for k, v in probes.outputs.items()}
    result["latencies"] = runner.latencies
    result["starts"] = runner.starts
    result["calibrations"] = calibration.samples
    result["outputs"] = {str(k): list(v.values()) for k, v in runner.outputs.items()}
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
