"""CLI subcommands, exit codes, deterministic machine output."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ngspectral.cli import build_parser, main
from ngspectral.graph6 import emit_graph6
from ngspectral.graphs import complete_bipartite, path
from ngspectral.reporting import record_text
from ngspectral.search import local_search_f


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_complete4(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--generate", "complete:4")
    assert code == 0
    assert "3, -1, -1, -1" in out
    assert "n=4 e=6" in out


def test_spectrum_golden_ratio_graph6(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--graph6", emit_graph6(path(4)))
    assert code == 0
    assert "1.61803398875" in out
    assert "-1.61803398875" in out


def test_spectrum_machine_formats_carry_order_and_edges(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--generate", "cycle:5", "--format", "json")
    assert code == 0
    assert out.startswith('{"n":5,"e":5,')
    code, out, _ = run_cli(capsys, "spectrum", "--generate", "cycle:5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,e,i,mu_g,mu_complement"
    assert out.splitlines()[1].startswith("5,5,1,2,")


# `spectrum` bytes for three small graphs; the near-zero pair of K_{2,2} is
# LAPACK rounding residue, which the determinism contract also pins
SPECTRUM_PINNED = {
    ("path:4", "text"): (
        "n=4 e=3\n"
        "G: 1.61803398875, 0.61803398875, -0.61803398875, -1.61803398875\n"
        "complement: 1.61803398875, 0.61803398875, -0.61803398875, -1.61803398875\n"
    ),
    ("path:4", "csv"): (
        "n,e,i,mu_g,mu_complement\n"
        "4,3,1,1.61803398875,1.61803398875\n"
        "4,3,2,0.61803398875,0.61803398875\n"
        "4,3,3,-0.61803398875,-0.61803398875\n"
        "4,3,4,-1.61803398875,-1.61803398875\n"
    ),
    ("path:4", "json"): (
        '{"n":4,"e":3,"spectrum":[1.61803398875,0.61803398875,-0.61803398875,-1.61803398875],'
        '"complement_spectrum":[1.61803398875,0.61803398875,-0.61803398875,-1.61803398875]}\n'
    ),
    ("cycle:5", "text"): (
        "n=5 e=5\n"
        "G: 2, 0.61803398875, 0.61803398875, -1.61803398875, -1.61803398875\n"
        "complement: 2, 0.61803398875, 0.61803398875, -1.61803398875, -1.61803398875\n"
    ),
    ("cycle:5", "csv"): (
        "n,e,i,mu_g,mu_complement\n"
        "5,5,1,2,2\n"
        "5,5,2,0.61803398875,0.61803398875\n"
        "5,5,3,0.61803398875,0.61803398875\n"
        "5,5,4,-1.61803398875,-1.61803398875\n"
        "5,5,5,-1.61803398875,-1.61803398875\n"
    ),
    ("cycle:5", "json"): (
        '{"n":5,"e":5,"spectrum":[2,0.61803398875,0.61803398875,-1.61803398875,-1.61803398875],'
        '"complement_spectrum":[2,0.61803398875,0.61803398875,-1.61803398875,-1.61803398875]}\n'
    ),
    ("complete_bipartite:2,2", "text"): (
        "n=4 e=4\n"
        "G: 2, 2.22044604925e-16, -2.15105711021e-16, -2\n"
        "complement: 1, 1, -1, -1\n"
    ),
    ("complete_bipartite:2,2", "csv"): (
        "n,e,i,mu_g,mu_complement\n"
        "4,4,1,2,1\n"
        "4,4,2,2.22044604925e-16,1\n"
        "4,4,3,-2.15105711021e-16,-1\n"
        "4,4,4,-2,-1\n"
    ),
    ("complete_bipartite:2,2", "json"): (
        '{"n":4,"e":4,"spectrum":[2,2.22044604925e-16,-2.15105711021e-16,-2],'
        '"complement_spectrum":[1,1,-1,-1]}\n'
    ),
}


@pytest.mark.parametrize("spec, fmt", sorted(SPECTRUM_PINNED))
def test_spectrum_output_pinned(capsys, spec, fmt):
    code, out, _ = run_cli(capsys, "spectrum", "--generate", spec, "--format", fmt)
    assert code == 0
    assert out == SPECTRUM_PINNED[spec, fmt]


def test_tol_leaves_spectrum_and_local_search_unchanged(capsys):
    for argv in (
        ["spectrum", "--generate", "erdos_renyi:12,0.5", "--seed", "4", "--format", "json"],
        ["search", "--local", "--n", "10", "--s", "2", "--family", "top", "--seed", "1"],
    ):
        code, default, _ = run_cli(capsys, *argv)
        assert code == 0
        code, loose, _ = run_cli(capsys, *argv, "--tol", "1e-3")
        assert code == 0
        assert loose == default


def test_spectrum_parse_error_exit1(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--graph6", "!!")
    assert code == 1
    assert "error" in err


def test_check_cycle5_clean_exit(capsys):
    code, out, _ = run_cli(capsys, "check", "--generate", "cycle:5", "--s-max", "2")
    assert code == 0
    assert "VIOLATION" not in out


def test_check_order1_mostly_inapplicable(capsys):
    code, out, _ = run_cli(capsys, "check", "--generate", "complete:1", "--s-max", "1")
    assert code == 0


def test_check_corrupt_graph6_exit1(capsys):
    code, _, err = run_cli(capsys, "check", "--graph6", "\x01\x02", "--s-max", "1")
    assert code == 1


def test_check_csv_golden_shape(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--generate", "complete:4", "--s-max", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound_id,n,s_or_k,applicable,strict,lhs,rhs,margin,satisfied,tol"
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def test_check_byte_identical(capsys):
    args = ("check", "--generate", "erdos_renyi:10,0.5", "--seed", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_a_matrix_grid(capsys):
    code, out, _ = run_cli(capsys, "construct", "--a-matrix", "2")
    assert code == 0
    assert out.splitlines() == ["1001", "0011", "0110", "1100"]


def test_construct_a_matrix_zero_usage_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--a-matrix", "0")
    assert code == 1
    assert "error" in err


def test_construct_extremal_path4(capsys):
    code, out, _ = run_cli(capsys, "construct", "--extremal", "--k", "1", "--t", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph6: CM"
    assert sum("witness" in line for line in lines[1:]) == 4
    assert "VIOLATION" not in out


@pytest.mark.parametrize(
    "k, t, g6",
    [
        ("2", "3", "Ww??ww[~~~~~FwFwb{^w?~?B{?FF?~F?zb_[??~w?F~_?^~"),
        (
            "3",
            "2",
            "__Kv~{{NF`}FrKrK_????NKK{o~_Ff_FbKKrrBKo@~~_F~~o{K{o{K{@w^wW]F}FKrNKorK{rN~~_?F~~_??",
        ),
    ],
    ids=["k2-t3", "k3-t2"],
)
def test_construct_extremal_graph6_pinned(capsys, k, t, g6):
    code, out, _ = run_cli(capsys, "construct", "--extremal", "--k", k, "--t", t, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == f"graph6,{g6}"


def test_construct_extremal_requires_k_t(capsys):
    code, _, err = run_cli(capsys, "construct", "--extremal")
    assert code == 1


def test_search_exact_record(capsys):
    args = ("search", "--exact", "--n", "4", "--s", "2", "--family", "top", "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert '"exact":true' in out
    assert '"witness":"CL"' in out
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_search_local_deterministic(capsys):
    args = (
        "search", "--local", "--n", "8", "--s", "2", "--family", "top",
        "--seed", "1", "--iterations", "5", "--restarts", "2", "--format", "csv",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "n,s,family,value,witness,method,exact,evaluations,seed"


def test_search_exact_cap_refusal(capsys):
    code, _, err = run_cli(capsys, "search", "--exact", "--n", "12", "--s", "2", "--family", "top")
    assert code == 1
    assert "cap" in err


def test_search_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--table", "--n-list", "4,5", "--s", "2", "--family", "top",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,ratio,target,gap,method"
    assert len(lines) == 3


def test_search_table_requires_orders(capsys):
    for extra in ([], ["--n-list", ","], ["--n-list", ""]):
        code, out, err = run_cli(
            capsys, "search", "--table", "--s", "2", "--family", "top", *extra
        )
        assert code == 1
        assert out == ""
        assert "--table requires --n-list" in err


def test_usage_errors_exit1(capsys):
    code, _, _ = run_cli(capsys, "spectrum")  # missing graph source
    assert code == 1
    code, _, _ = run_cli(capsys, "check", "--generate", "cycle:5", "--s-max", "0")
    assert code == 1
    code, _, _ = run_cli(capsys, "spectrum", "--generate", "heptagon:7")
    assert code == 1
    code, _, _ = run_cli(capsys, "spectrum", "--generate", "cycle:5", "--tol", "-1")
    assert code == 1


def test_check_s_max_above_the_order_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "4096")
    code, out, _ = run_cli(capsys, "check", "--generate", "complete:4", "--s-max", "4096")
    assert code == 0 and out
    code, out, err = run_cli(capsys, "check", "--generate", "complete:4", "--s-max", "4097")
    assert code == 1 and out == ""
    assert "--s-max 4097" in err and "4096" in err
    code, _, err = run_cli(
        capsys, "check", "--generate", "complete:4", "--s-max", "9", "--max-order", "8"
    )
    assert code == 1 and "cap 8" in err


def test_max_order_flag(capsys, monkeypatch):
    # pin the env var to a known value; the flag overrides it for one call
    monkeypatch.setenv("NG_MAX_ORDER", "4096")
    code, _, err = run_cli(
        capsys, "spectrum", "--generate", "complete:10", "--max-order", "8"
    )
    assert code == 1
    assert "cap" in err


def test_max_order_flag_leaves_environment_unchanged(capsys, monkeypatch):
    monkeypatch.delenv("NG_MAX_ORDER", raising=False)
    run_cli(capsys, "spectrum", "--generate", "complete:3", "--max-order", "8")
    assert "NG_MAX_ORDER" not in os.environ
    run_cli(capsys, "spectrum", "--generate", "complete:10", "--max-order", "8")
    assert "NG_MAX_ORDER" not in os.environ
    monkeypatch.setenv("NG_MAX_ORDER", "100")
    run_cli(capsys, "spectrum", "--generate", "complete:3", "--max-order", "8")
    assert os.environ["NG_MAX_ORDER"] == "100"


def test_max_order_env(capsys, monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "6")
    code, _, err = run_cli(capsys, "spectrum", "--generate", "complete:10")
    assert code == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--generate", "complete:3", "--format", "csv", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("n,e,i,")


def test_output_to_unwritable_path_exit1(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "check", "--generate", "cycle:5", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_non_finite_generator_parameters_exit1(capsys):
    for spec in ("complete:1e400", "erdos_renyi:inf,0.5"):
        code, out, err = run_cli(capsys, "check", "--generate", spec)
        assert code == 1
        assert out == ""
        assert "needs finite parameters" in err


def test_graph6_file_input(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text(emit_graph6(path(4)) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", "--graph6-file", str(src))
    assert code == 0
    assert "1.61803398875" in out


def test_check_degenerate_bipartite_at_order_768(capsys):
    # K_{384,384}: highly repeated eigenvalues at a large order
    code, out, _ = run_cli(
        capsys, "check", "--generate", "complete_bipartite:384,384", "--s-max", "3"
    )
    assert code == 0
    assert "VIOLATION" not in out


def test_check_bipartite_at_the_order_cap(tmp_path, capsys):
    # K_{2048,2048} meets subset_squares with equality at n=4096, where
    # eigvalsh rounding exceeds the absolute tolerance.  About 10 s on
    # 2 cores; the budget fails a per-edge or per-pair cliff in the graph
    # plumbing, which costs minutes at this order.
    start = time.perf_counter()
    src = tmp_path / "k2048.g6"
    src.write_text(emit_graph6(complete_bipartite(2048, 2048)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", "--graph6-file", str(src), "--s-max", "3")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "VIOLATION" not in out
    assert "subset_squares" in out
    assert elapsed < 60.0


def test_parser_is_reused_without_leaking_values(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(
        capsys,
        "search", "--exact", "--n", "4", "--s", "2", "--family", "top",
        "--seed", "5", "--workers", "2", "--format", "json",
    )
    assert code == 0 and '"exact":true' in out
    code, out, _ = run_cli(
        capsys, "search", "--local", "--n", "6", "--s", "3", "--family", "bottom",
        "--iterations", "3", "--restarts", "1",
    )
    assert code == 0
    # defaults, not the first call's values: seed 0 and text format
    assert out == record_text(local_search_f(6, 3, "bottom", 0, 3, 1)) + "\n"


def test_csv_byte_identical_per_blas_thread_count():
    # the contract covers repeat runs with the same BLAS thread count only
    argv = [
        sys.executable, "-m", "ngspectral", "check",
        "--generate", "erdos_renyi:400,0.5", "--seed", "1", "--format", "csv",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = [
            subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].startswith(b"bound_id,")


def test_exact_search_output_pinned(capsys):
    # the bytes the labelled enumeration printed for n=7, s=2, top
    code, out, _ = run_cli(
        capsys, "search", "--exact", "--n", "7", "--s", "2", "--family", "top", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "n,s,family,value,witness,method,exact,evaluations,seed\n"
        "7,2,top,3.12310562562,F@NMO,exhaustive,true,1048576,\n"
    )
    code, out, _ = run_cli(
        capsys, "search", "--exact", "--n", "7", "--s", "2", "--family", "top",
        "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert out == (
        '{"n":7,"s":2,"family":"top","value":3.12310562562,"witness":"F@NMO",'
        '"method":"exhaustive","exact":true,"evaluations":1048576,"seed":null}\n'
    )


def test_local_search_output_pinned(capsys):
    # the bytes the climb that rescored every flip printed
    argv = ["search", "--local", "--n", "16", "--s", "2", "--family", "top", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == (
        "n,s,family,value,witness,method,exact,evaluations,seed\n"
        "16,2,top,9.63014581273,O?~~~~o{F_]??N?N_Fw@~,local_search,false,12484,0\n"
    )
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (
        '{"n":16,"s":2,"family":"top","value":9.63014581273,"witness":"O?~~~~o{F_]??N?N_Fw@~",'
        '"method":"local_search","exact":false,"evaluations":12484,"seed":0}\n'
    )


def test_local_search_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "search", "--local", "--n", "1", "--s", "1", "--family", "bottom")
    assert code == 0
    assert "value=0 " in out and "witness=@" in out
