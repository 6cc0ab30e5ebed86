"""ngspectral benchmark: one closed-loop workload per run, in its own process.

    python3 bench/run.py --workload check_many --seed 1 --seconds 10 --trace 0

The seed fixes the op list; the worker process gets only the generated
inputs (graph6 strings, --generate specs, --seed values).  With --trace 0
the run reports the end-to-end metrics, with --trace 1 the per-layer
metrics of bench/tracer.py, and the count of degenerate-spectrum probe ops
the program fails to solve.  Every output is checked against an independent
reference after the timed loop.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: `attempted` counts the
ops of the list, `failed` those that raised, exited non-zero or gave a wrong
output, and `correct` is false if any op or probe gave a wrong output.  The
lines before it give the same metrics by name with their units, the run
metadata, and the first failures if any.  Full results and traced spans go to .bench_out/.
See bench/README.md for the workloads and how to re-check a claim on a
held-out seed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import layer_metric_names
from workloads import WORKLOADS, build_ops, probe_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SCALE = "full"  # "smoke" gives tiny op lists, for the benchmark's own tests
TIME_LIMIT_S = 170.0  # whole run, set-up probes and checks included
SETUP_PROBES = 6  # extra processes that only set up; the run's own set-up is one more sample
BLAS_THREADS = 1  # times the one search worker: within any nproc
SEARCH_WORKERS = 1
P90_WORKLOADS = ("check_many",)  # the only workload with >= 100 ops per pass
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")
# Counted over the probe ops of a traced run (workloads.probe_ops), not by
# the tracer: how many degenerate spectra the program fails to solve.
PROBE_METRIC = ("eigensolver.convergence_errors", "count", "lower")
# Set-up and op times are scaled, on every workload alike, to a host on
# which the worker's calibration (interpreted Python and batched eigvalsh in
# equal shares) takes this long, using the calibrations nearest each op.
# The raw times are printed beside them.  See bench/README.md.
REFERENCE_CAL_S = 0.005


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("NG_MAX_ORDER", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(workload: str, extra: list[str]) -> list[str]:
    return [sys.executable, "-s", str(BENCH / "worker.py"),
            "--workload", workload, "--src", str(SRC), *extra]


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _run_worker(cmd: list[str], stdin: str | None, deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (start time, its result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(stdin, timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return started, _last_json(out)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args: argparse.Namespace) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": SCALE,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "workers": SEARCH_WORKERS,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def judge(ops, outputs: dict) -> tuple[int, int, list[str]]:
    """(failed ops, wrong ops, a reason for each distinct failing outcome).

    An op is counted once however many passes ran it.  It fails if any run
    of it raised, exited non-zero or gave output that fails its check; it is
    wrong if an output that completed with exit code 0 fails its check."""
    failed, wrong, reasons = set(), set(), []
    for index, outcomes in outputs.items():
        op = ops[int(index)]
        for outcome in outcomes:
            if outcome["error"] is not None:
                reason = f"raised {outcome['error']}"
            elif outcome["rc"] != 0:
                reason = f"exit code {outcome['rc']}"
            else:
                try:
                    reason = op.check(outcome["rc"], outcome["out"])
                except Exception as exc:  # unparseable output fails its check
                    reason = f"output unreadable: {type(exc).__name__}: {exc}"
                if reason is not None:
                    wrong.add(index)
            if reason is not None:
                if outcome["err"].strip():
                    reason += f" (stderr: {outcome['err'].strip()[-200:]})"
                failed.add(index)
                reasons.append(f"op {index} {json.dumps(op.payload)[:160]}: {reason}")
    return len(failed), len(wrong), reasons


def host_factors(starts: list[float], calibrations: list[list[float]]) -> np.ndarray:
    """Per op, REFERENCE_CAL_S over the mean of the calibrations that bracket
    it: the last one before its start and the first one after."""
    when = [c[0] for c in calibrations]
    seconds = [c[1] for c in calibrations]
    factors = []
    for start in starts:
        i = bisect.bisect(when, start)
        factors.append(REFERENCE_CAL_S / statistics.fmean(seconds[max(0, i - 1): i + 1]))
    return np.array(factors)


def _latency_metrics(workload: str, lat: np.ndarray, suffix: str) -> dict:
    """Rate at the median pass and percentiles of each op's median, from a
    (passes, ops) array of op times."""
    per_op = np.median(lat, axis=0)
    metrics = {
        "ops_per_s" + suffix: (lat.shape[1] / float(np.median(lat.sum(axis=1))), "1/s"),
        "op_p50_ms" + suffix: (float(np.median(per_op)) * 1e3, "ms"),
    }
    if workload in P90_WORKLOADS:
        metrics["op_p90_ms" + suffix] = (statistics.quantiles(per_op, n=10)[-1] * 1e3, "ms")
    return metrics


def end_to_end(workload: str, setups: list[tuple[float, float]], result: dict,
               ops_per_pass: int) -> dict:
    """The gated metrics, then the same medians unscaled (`_raw`)."""
    raw = np.reshape(result["latencies"], (-1, ops_per_pass))
    timed = raw * host_factors(result["starts"], result["calibrations"]).reshape(raw.shape)
    metrics = {"setup_s": (statistics.median(s * REFERENCE_CAL_S / cal for s, cal in setups), "s")}
    metrics.update(_latency_metrics(workload, timed, ""))
    metrics["peak_rss_mb"] = (result["max_rss_kb"] / 1024.0, "MB")
    metrics["setup_s_raw"] = (statistics.median(s for s, _ in setups), "s")
    metrics.update(_latency_metrics(workload, raw, "_raw"))
    return metrics


def run(args: argparse.Namespace) -> dict:
    if not (SRC / "ngspectral" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'ngspectral'} is missing")
    deadline = time.monotonic() + TIME_LIMIT_S
    ops = build_ops(args.workload, args.seed, SCALE)
    probes = probe_ops(args.workload, SCALE) if args.trace else []
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    for _ in range(SETUP_PROBES):
        started, probe = _run_worker(_worker_cmd(args.workload, ["--probe"]), None, deadline)
        setups.append((probe["ready"] - started, probe["setup_cal"]))
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(OUT / f"spans-{tag}.json.gz")]
    payloads = {"ops": [op.payload for op in ops], "probes": [op.payload for op in probes]}
    started, result = _run_worker(_worker_cmd(args.workload, extra), json.dumps(payloads), deadline)
    setups.append((result["ready"] - started, result["setup_cal"]))

    failed, wrong, reasons = judge(ops, result["outputs"])
    probe_failed, probe_wrong, probe_reasons = judge(probes, result["probe_outputs"])
    report = {
        "meta": metadata(args),
        "ops_per_pass": len(ops),
        "executions": len(result["latencies"]),
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong + probe_wrong,
        "error_rate": failed / len(ops),
        "failures": reasons,
        "probe_failures": probe_reasons,
        "setup_samples_s": setups,
    }
    if args.trace:
        trace = result["trace"]
        units = {name: unit for name, unit, _ in layer_metric_names()}
        report["metrics"] = {k: (v, units[k]) for k, v in trace["metrics"].items()}
        report["metrics"][PROBE_METRIC[0]] = (probe_failed - probe_wrong, PROBE_METRIC[1])
        report["trace"] = {k: v for k, v in trace.items() if k != "metrics"}
    else:
        report["metrics"] = end_to_end(args.workload, setups, result, len(ops))
        report["passes_s"] = result["passes"]
        report["latencies_s"] = result["latencies"]
        report["starts_s"] = result["starts"]
        report["calibrations"] = result["calibrations"]
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict, gated: list[str]) -> None:
    meta = report["meta"]
    print(f"# ngspectral benchmark: workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']}")
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'error_rate':28s} {report['error_rate']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} ops failed, {report['wrong']} with "
          f"wrong output; {report['executions']} executions)")
    if "trace" in report:
        t = report["trace"]
        coverage = t["layer_self_sum_s"] / t["traced_op_s"] if t["traced_op_s"] else 0.0
        print(f"# traced wall {t['traced_wall_s']:.4f} s per pass; layer self times cover "
              f"{coverage:.4f} of traced op time; unmeasured layers: {t['unmeasured_layers']}")
    for reason in report["failures"][:10]:
        print(f"# FAILED {reason}")
    for reason in report["probe_failures"]:
        print(f"# PROBE FAILED {reason}")
    final = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name][0], "unit": report["metrics"][name][1]}
                    for name in gated},
    }
    print(json.dumps(final))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes of the op list until this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def gated_metrics(trace: int) -> list[str]:
    """The metrics the final line carries: those BENCHMARK.json lists."""
    if trace:
        return [name for name, _, _ in layer_metric_names()] + [PROBE_METRIC[0]]
    return list(END_TO_END)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = run(args)
        print_report(report, gated_metrics(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
