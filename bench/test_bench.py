"""The benchmark's own tests: ``python3 -m pytest -q bench``.

They run every workload at smoke size, check the metric names and units
against BENCHMARK.json, show that a corrupted output is counted as a failed
op, and check that the traced spans account for the op time the worker
measures on its own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads
from worker import Calibration, Runner

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ngspectral():
    sys.path.insert(0, str(run.SRC))
    import ngspectral
    import ngspectral.cli

    return ngspectral


def _smoke(capsys, monkeypatch, workload: str, trace: int) -> tuple[dict, dict]:
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "SCALE", "smoke")
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = json.loads((run.OUT / f"{workload}-seed7-trace{trace}.json").read_text())
    return final, report


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracer.layer_metric_names() + [run.PROBE_METRIC]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(capsys, monkeypatch, workload):
    final, _ = _smoke(capsys, monkeypatch, workload, 0)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == units
    assert all(v["value"] > 0 for v in final["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_cover_the_measured_op_time(capsys, monkeypatch, workload):
    final, report = _smoke(capsys, monkeypatch, workload, 1)
    assert final["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    self_times = [metrics[f"{layer}.self_s"] for layer in tracer.LAYERS]
    assert min(self_times) >= -1e-9
    assert metrics["harness.self_s"] >= 0
    # The op times come from the worker's own clock around each op, not from
    # the spans; the layers must account for at least 95% of them.
    trace = report["trace"]
    assert 0.95 <= sum(self_times) / trace["traced_op_s"] <= 1.0 + 1e-9
    assert metrics["cli.calls"] >= 1 and metrics["bounds.violations"] == 0
    # Probes that raise are counted, not failed ops; none may give a wrong output.
    assert final["failed"] == 0
    assert metrics["eigensolver.convergence_errors"] == len(report["probe_failures"])
    assert all("raised" in reason for reason in report["probe_failures"])
    assert report["trace"]["unmeasured_layers"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_is_a_failed_op(ngspectral, workload):
    ops = workloads.build_ops(workload, 3, "smoke")
    runner = Runner(ngspectral, Calibration())
    for i, op in enumerate(ops[:3]):
        runner.run_op(i, op.payload, i)
    outputs = {str(i): list(v.values()) for i, v in runner.outputs.items()}
    assert run.judge(ops, outputs) == (0, 0, [])
    for outcomes in outputs.values():
        text = outcomes[0]["out"]
        outcomes[0]["out"] = text[: len(text) // 2]
    failed, wrong, reasons = run.judge(ops, outputs)
    assert failed == wrong == 3 and len(reasons) == 3


def test_raising_op_fails_without_a_wrong_output(ngspectral):
    a = workloads.path_adjacency(6)
    op = workloads._graph_op("spectrum", ["--graph6", workloads.encode_graph6(a)], a, "csv")
    runner = Runner(ngspectral, Calibration())
    runner.run_op(0, {"kind": "lib", "call": "no_such_call", "graph6": "E???"}, 0)
    failed, wrong, reasons = run.judge([op], {"0": list(runner.outputs[0].values())})
    assert (failed, wrong) == (1, 0) and "raised ValueError" in reasons[0]


def test_one_wrong_eigenvalue_is_caught(ngspectral):
    a = workloads.er_adjacency(20, 0.4, 5)
    check = workloads.check_spectrum(a, "csv")
    runner = Runner(ngspectral, Calibration())
    runner.run_op(0, {"kind": "cli", "argv": ["spectrum", "--graph6", workloads.encode_graph6(a),
                                               "--format", "csv"]}, 0)
    out = next(iter(runner.outputs[0].values()))["out"]
    assert check(0, out) is None
    lines = out.splitlines()
    fields = lines[3].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[3] = ",".join(fields)
    assert "spectrum off" in check(0, "\n".join(lines) + "\n")


def test_reference_graphs_match_the_documented_formats(ngspectral):
    for n, p, seed in [(1, 0.5, 0), (7, 0.5, 1), (63, 0.3, 2), (100, 0.8, 3)]:
        a = workloads.er_adjacency(n, p, seed)
        g = ngspectral.erdos_renyi(n, p, seed)
        assert np.array_equal(g.adjacency_matrix(), a)
        assert workloads.encode_graph6(a) == ngspectral.emit_graph6(g)
        assert np.array_equal(workloads.decode_graph6(workloads.encode_graph6(a)), a)
    for k, t in [(1, 3), (3, 2)]:
        g = ngspectral.extremal_graph(k, t)
        assert np.array_equal(workloads.extremal_adjacency(k, t), g.adjacency_matrix())


def test_missing_boundary_leaves_layer_unmeasured(monkeypatch):
    monkeypatch.setitem(tracer.BOUNDARY, "eigensolver", ("ngspectral.eigensolver", ["gone"]))
    monkeypatch.setitem(tracer.BOUNDARY, "spectra", ("ngspectral.no_such_module", ["x"]))
    t = tracer.Tracer()
    t.install()
    try:
        assert set(t.unmeasured_layers()) == {"eigensolver", "spectra"}
        assert "ngspectral.eigensolver.gone" in t.missing
    finally:
        t.uninstall()


def test_tracer_restores_every_alias(ngspectral):
    import ngspectral.spectra

    before = (ngspectral.spectra.symmetric_eigenvalues, np.linalg.eigvalsh,
              ngspectral.Graph.__dict__["from_edges"], ngspectral.Graph.__dict__["edges"])
    t = tracer.Tracer()
    t.install()
    assert ngspectral.spectra.symmetric_eigenvalues is not before[0]
    assert np.linalg.eigvalsh is not before[1]
    t.recording = True
    edges = list(ngspectral.path(4).edges())
    t.recording = False
    t.uninstall()
    assert edges == [(1, 2), (2, 3), (3, 4)]
    assert (ngspectral.spectra.symmetric_eigenvalues, np.linalg.eigvalsh,
            ngspectral.Graph.__dict__["from_edges"], ngspectral.Graph.__dict__["edges"]) == before
    self_s, calls, root = t.layer_totals()
    assert calls["graphs"] >= 2 and root == pytest.approx(sum(self_s.values()))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check_many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_factors_use_the_bracketing_calibrations():
    calibrations = [[float(t), 0.02 if t < 10 else 0.01] for t in range(20)]
    factors = run.host_factors([0.5, 9.5, 19.5], calibrations)
    assert factors == pytest.approx([run.REFERENCE_CAL_S / 0.02, run.REFERENCE_CAL_S / 0.015,
                                     run.REFERENCE_CAL_S / 0.01])
