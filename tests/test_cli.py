"""CLI subcommands, exit codes, deterministic machine output."""

import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ngspectral.cli
import ngspectral.constructions
from ngspectral.cli import build_parser, main
from ngspectral.graph6 import emit_graph6
from ngspectral.graphs import GENERATORS, complete_bipartite, cycle, generate, path
from ngspectral.reporting import render
from ngspectral.search import ExtremalRecord, exhaustive_f, local_search_f


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


# `check`, `search --table` and `construct` bytes in the formats the tests
# above leave open; the order-1 graph has NaN sides, null in json
CLI_PINNED = {
    ("check --generate cycle:5", "json"): (
        '{"bound_id":"bottom_abs_sum","n":5,"s_or_k":1,"applicable":true,"strict":false,'
        '"lhs":3.2360679775,"rhs":4.94974746831,"margin":1.71367949081,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"bottom_abs_sum","n":5,"s_or_k":2,"applicable":true,"strict":false,'
        '"lhs":6.472135955,"rhs":9,"margin":2.527864045,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_abs_sum","n":5,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":7.7082039325,"rhs":13.4721935853,"margin":5.76398965281,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":5,"s_or_k":1,"applicable":true,"strict":false,'
        '"lhs":5.2360679775,"rhs":12.25,"margin":7.0139320225,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":5,"s_or_k":2,"applicable":false,'
        '"strict":false,"lhs":5.2360679775,"rhs":10.125,"margin":4.8889320225,'
        '"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":5,"s_or_k":3,"applicable":false,'
        '"strict":false,"lhs":0.7639320225,"rhs":10.0833333333,"margin":9.31940131083,'
        '"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":5,"s_or_k":1,"applicable":true,"strict":false,'
        '"lhs":5.2360679775,"rhs":12.25,"margin":7.0139320225,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":5,"s_or_k":2,"applicable":true,"strict":false,'
        '"lhs":10.472135955,"rhs":20.25,"margin":9.777864045,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":5,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":11.2360679775,"rhs":30.25,"margin":19.0139320225,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"csikvari_terpai","n":5,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":4,"rhs":5.66666666667,"margin":1.66666666667,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":5,"s_or_k":1,"applicable":true,"strict":false,'
        '"lhs":3.2360679775,"rhs":4.53553390593,"margin":1.29946592843,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":5,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":3.2360679775,"rhs":3.5,"margin":0.2639320225,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":5,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":1.2360679775,"rhs":3.04124145232,"margin":1.80517347482,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"fs_upper","n":5,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":1.2360679775,"rhs":2.53553390593,"margin":1.29946592843,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"fs_upper","n":5,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":1.2360679775,"rhs":1.5,"margin":0.2639320225,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"nonpositive_eigenvalue","n":5,"s_or_k":2,"applicable":false,'
        '"strict":false,"lhs":0.61803398875,"rhs":1.25,"margin":0.63196601125,'
        '"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"nonpositive_eigenvalue","n":5,"s_or_k":3,"applicable":false,'
        '"strict":false,"lhs":0.61803398875,"rhs":1.44337567297,"margin":0.825341684224,'
        '"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"nosal_lower","n":5,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":4,"rhs":4,"margin":-1.33226762955e-15,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"nosal_upper","n":5,"s_or_k":null,"applicable":true,"strict":true,'
        '"lhs":4,"rhs":5.65685424949,"margin":1.65685424949,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"ramsey_sign","n":5,"s_or_k":0,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"ramsey_sign","n":5,"s_or_k":1,"applicable":true,"strict":false,'
        '"lhs":-0.61803398875,"rhs":0,"margin":0.61803398875,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"subset_squares","n":5,"s_or_k":4,"applicable":true,"strict":false,'
        '"lhs":6,"rhs":6.25,"margin":0.25,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_abs_sum","n":5,"s_or_k":2,"applicable":true,"strict":true,'
        '"lhs":1.2360679775,"rhs":3.53553390593,"margin":2.29946592843,"satisfied":true,'
        '"tol":1e-08}\n'
        '{"bound_id":"top_abs_sum","n":5,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":2.472135955,"rhs":5,"margin":2.527864045,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_pair_squares","n":5,"s_or_k":2,"applicable":true,"strict":true,'
        '"lhs":0.7639320225,"rhs":6.25,"margin":5.4860679775,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_pair_squares","n":5,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":0.7639320225,"rhs":3.125,"margin":2.3610679775,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_sum_squares","n":5,"s_or_k":2,"applicable":true,"strict":true,'
        '"lhs":0.7639320225,"rhs":6.25,"margin":5.4860679775,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_sum_squares","n":5,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":1.527864045,"rhs":6.25,"margin":4.722135955,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_lower","n":5,"s_or_k":2,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":6.66133814775e-16,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_lower","n":5,"s_or_k":3,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":1.2360679775,"margin":2.2360679775,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_lower","n":5,"s_or_k":4,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":7.77156117238e-16,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_lower","n":5,"s_or_k":5,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":0.38196601125,"margin":1.38196601125,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_upper","n":5,"s_or_k":2,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":-2.22044604925e-16,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_upper","n":5,"s_or_k":3,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":0,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_upper","n":5,"s_or_k":4,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":-6.66133814775e-16,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"weyl_upper","n":5,"s_or_k":5,"applicable":true,"strict":false,"lhs":-1,'
        '"rhs":-1,"margin":-1.11022302463e-16,"satisfied":true,"tol":1e-08}\n'
    ),
    ("check --generate cycle:5", "text"): (
        "OK        bottom_abs_sum         n=5 param=1 3.2360679775 <= 4.94974746831 "
        "margin=1.71367949081\n"
        "OK        bottom_abs_sum         n=5 param=2 6.472135955 <= 9 margin=2.527864045\n"
        "SKIP      bottom_abs_sum         n=5 param=3 7.7082039325 <= 13.4721935853 "
        "margin=5.76398965281\n"
        "OK        bottom_pair_squares    n=5 param=1 5.2360679775 <= 12.25 "
        "margin=7.0139320225\n"
        "SKIP      bottom_pair_squares    n=5 param=2 5.2360679775 <= 10.125 "
        "margin=4.8889320225\n"
        "SKIP      bottom_pair_squares    n=5 param=3 0.7639320225 <= 10.0833333333 "
        "margin=9.31940131083\n"
        "OK        bottom_sum_squares     n=5 param=1 5.2360679775 <= 12.25 "
        "margin=7.0139320225\n"
        "OK        bottom_sum_squares     n=5 param=2 10.472135955 <= 20.25 "
        "margin=9.777864045\n"
        "SKIP      bottom_sum_squares     n=5 param=3 11.2360679775 <= 30.25 "
        "margin=19.0139320225\n"
        "OK        csikvari_terpai        n=5 param=- 4 <= 5.66666666667 "
        "margin=1.66666666667\n"
        "OK        fns_upper              n=5 param=1 3.2360679775 <= 4.53553390593 "
        "margin=1.29946592843\n"
        "SKIP      fns_upper              n=5 param=2 3.2360679775 <= 3.5 "
        "margin=0.2639320225\n"
        "SKIP      fns_upper              n=5 param=3 1.2360679775 <= 3.04124145232 "
        "margin=1.80517347482\n"
        "SKIP      fs_upper               n=5 param=2 1.2360679775 <= 2.53553390593 "
        "margin=1.29946592843\n"
        "SKIP      fs_upper               n=5 param=3 1.2360679775 <= 1.5 "
        "margin=0.2639320225\n"
        "SKIP      nonpositive_eigenvalue n=5 param=2 0.61803398875 <= 1.25 "
        "margin=0.63196601125\n"
        "SKIP      nonpositive_eigenvalue n=5 param=3 0.61803398875 <= 1.44337567297 "
        "margin=0.825341684224\n"
        "OK        nosal_lower            n=5 param=- 4 <= 4 margin=-1.33226762955e-15\n"
        "OK        nosal_upper            n=5 param=- 4 < 5.65685424949 margin=1.65685424949\n"
        "SKIP      ramsey_sign            n=5 param=0 nan <= 0 margin=nan\n"
        "OK        ramsey_sign            n=5 param=1 -0.61803398875 <= 0 "
        "margin=0.61803398875\n"
        "OK        subset_squares         n=5 param=4 6 <= 6.25 margin=0.25\n"
        "OK        top_abs_sum            n=5 param=2 1.2360679775 < 3.53553390593 "
        "margin=2.29946592843\n"
        "SKIP      top_abs_sum            n=5 param=3 2.472135955 < 5 margin=2.527864045\n"
        "OK        top_pair_squares       n=5 param=2 0.7639320225 < 6.25 "
        "margin=5.4860679775\n"
        "SKIP      top_pair_squares       n=5 param=3 0.7639320225 < 3.125 "
        "margin=2.3610679775\n"
        "OK        top_sum_squares        n=5 param=2 0.7639320225 < 6.25 "
        "margin=5.4860679775\n"
        "SKIP      top_sum_squares        n=5 param=3 1.527864045 < 6.25 margin=4.722135955\n"
        "OK        weyl_lower             n=5 param=2 -1 <= -1 margin=6.66133814775e-16\n"
        "OK        weyl_lower             n=5 param=3 -1 <= 1.2360679775 margin=2.2360679775\n"
        "OK        weyl_lower             n=5 param=4 -1 <= -1 margin=7.77156117238e-16\n"
        "OK        weyl_lower             n=5 param=5 -1 <= 0.38196601125 "
        "margin=1.38196601125\n"
        "OK        weyl_upper             n=5 param=2 -1 <= -1 margin=-2.22044604925e-16\n"
        "OK        weyl_upper             n=5 param=3 -1 <= -1 margin=0\n"
        "OK        weyl_upper             n=5 param=4 -1 <= -1 margin=-6.66133814775e-16\n"
        "OK        weyl_upper             n=5 param=5 -1 <= -1 margin=-1.11022302463e-16\n"
    ),
    ("check --graph6 @", "json"): (
        '{"bound_id":"bottom_abs_sum","n":1,"s_or_k":1,"applicable":false,"strict":false,'
        '"lhs":0,"rhs":2.12132034356,"margin":2.12132034356,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_abs_sum","n":1,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":5,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"bottom_abs_sum","n":1,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":8.57321409974,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":1,"s_or_k":1,"applicable":false,'
        '"strict":false,"lhs":0,"rhs":2.25,"margin":2.25,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":1,"s_or_k":2,"applicable":false,'
        '"strict":false,"lhs":null,"rhs":3.125,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"bottom_pair_squares","n":1,"s_or_k":3,"applicable":false,'
        '"strict":false,"lhs":null,"rhs":4.08333333333,"margin":null,"satisfied":false,'
        '"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":1,"s_or_k":1,"applicable":false,"strict":false,'
        '"lhs":0,"rhs":2.25,"margin":2.25,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":1,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":6.25,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"bottom_sum_squares","n":1,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":12.25,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"csikvari_terpai","n":1,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":0,"rhs":0.333333333333,"margin":0.333333333333,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":1,"s_or_k":1,"applicable":false,"strict":false,"lhs":0,'
        '"rhs":1.70710678119,"margin":1.70710678119,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":1,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":1.5,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"fns_upper","n":1,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":1.40824829046,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"fs_upper","n":1,"s_or_k":2,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":-0.292893218813,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"fs_upper","n":1,"s_or_k":3,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":-0.5,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"nosal_lower","n":1,"s_or_k":null,"applicable":true,"strict":false,'
        '"lhs":0,"rhs":0,"margin":0,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"nosal_upper","n":1,"s_or_k":null,"applicable":true,"strict":true,'
        '"lhs":0,"rhs":0,"margin":0,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"ramsey_sign","n":1,"s_or_k":0,"applicable":false,"strict":false,'
        '"lhs":null,"rhs":0,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"subset_squares","n":1,"s_or_k":0,"applicable":true,"strict":false,'
        '"lhs":0,"rhs":0.25,"margin":0.25,"satisfied":true,"tol":1e-08}\n'
        '{"bound_id":"top_abs_sum","n":1,"s_or_k":2,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0.707106781187,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"top_abs_sum","n":1,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":1,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"top_pair_squares","n":1,"s_or_k":2,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0.25,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"top_pair_squares","n":1,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0.125,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"top_sum_squares","n":1,"s_or_k":2,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0.25,"margin":null,"satisfied":false,"tol":1e-08}\n'
        '{"bound_id":"top_sum_squares","n":1,"s_or_k":3,"applicable":false,"strict":true,'
        '"lhs":null,"rhs":0.25,"margin":null,"satisfied":false,"tol":1e-08}\n'
    ),
    ("check --graph6 @", "text"): (
        "SKIP      bottom_abs_sum         n=1 param=1 0 <= 2.12132034356 "
        "margin=2.12132034356\n"
        "SKIP      bottom_abs_sum         n=1 param=2 nan <= 5 margin=nan\n"
        "SKIP      bottom_abs_sum         n=1 param=3 nan <= 8.57321409974 margin=nan\n"
        "SKIP      bottom_pair_squares    n=1 param=1 0 <= 2.25 margin=2.25\n"
        "SKIP      bottom_pair_squares    n=1 param=2 nan <= 3.125 margin=nan\n"
        "SKIP      bottom_pair_squares    n=1 param=3 nan <= 4.08333333333 margin=nan\n"
        "SKIP      bottom_sum_squares     n=1 param=1 0 <= 2.25 margin=2.25\n"
        "SKIP      bottom_sum_squares     n=1 param=2 nan <= 6.25 margin=nan\n"
        "SKIP      bottom_sum_squares     n=1 param=3 nan <= 12.25 margin=nan\n"
        "OK        csikvari_terpai        n=1 param=- 0 <= 0.333333333333 "
        "margin=0.333333333333\n"
        "SKIP      fns_upper              n=1 param=1 0 <= 1.70710678119 "
        "margin=1.70710678119\n"
        "SKIP      fns_upper              n=1 param=2 nan <= 1.5 margin=nan\n"
        "SKIP      fns_upper              n=1 param=3 nan <= 1.40824829046 margin=nan\n"
        "SKIP      fs_upper               n=1 param=2 nan <= -0.292893218813 margin=nan\n"
        "SKIP      fs_upper               n=1 param=3 nan <= -0.5 margin=nan\n"
        "OK        nosal_lower            n=1 param=- 0 <= 0 margin=0\n"
        "OK        nosal_upper            n=1 param=- 0 < 0 margin=0\n"
        "SKIP      ramsey_sign            n=1 param=0 nan <= 0 margin=nan\n"
        "OK        subset_squares         n=1 param=0 0 <= 0.25 margin=0.25\n"
        "SKIP      top_abs_sum            n=1 param=2 nan < 0.707106781187 margin=nan\n"
        "SKIP      top_abs_sum            n=1 param=3 nan < 1 margin=nan\n"
        "SKIP      top_pair_squares       n=1 param=2 nan < 0.25 margin=nan\n"
        "SKIP      top_pair_squares       n=1 param=3 nan < 0.125 margin=nan\n"
        "SKIP      top_sum_squares        n=1 param=2 nan < 0.25 margin=nan\n"
        "SKIP      top_sum_squares        n=1 param=3 nan < 0.25 margin=nan\n"
    ),
    ("search --table --n-list 4,5 --s 2 --family top", "csv"): (
        "n,value,ratio,target,gap,method\n"
        "4,1.2360679775,0.309016994375,0.707106781187,0.398089786812,exhaustive\n"
        "5,1.68889218253,0.337778436507,0.707106781187,0.36932834468,exhaustive\n"
    ),
    ("search --table --n-list 4,5 --s 2 --family top", "json"): (
        '{"n":4,"value":1.2360679775,"ratio":0.309016994375,"target":0.707106781187,'
        '"gap":0.398089786812,"method":"exhaustive"}\n'
        '{"n":5,"value":1.68889218253,"ratio":0.337778436507,"target":0.707106781187,'
        '"gap":0.36932834468,"method":"exhaustive"}\n'
    ),
    # n = 8 is exhaustive: the bytes the opt-in n = 8 table printed
    ("search --table --n-list 7,8 --s 2 --family top", "csv"): (
        "n,value,ratio,target,gap,method\n"
        "7,3.12310562562,0.446157946517,0.707106781187,0.26094883467,exhaustive\n"
        "8,4,0.5,0.707106781187,0.207106781187,exhaustive\n"
    ),
    ("search --table --n-list 4,5 --s 2 --family top", "text"): (
        "n=4: value=1.2360679775 value/n=0.309016994375 target=0.707106781187 "
        "gap=0.398089786812 [exhaustive]\n"
        "n=5: value=1.68889218253 value/n=0.337778436507 target=0.707106781187 "
        "gap=0.36932834468 [exhaustive]\n"
    ),
    ("construct --a-matrix 2", "csv"): (
        "1,0,0,1\n"
        "0,0,1,1\n"
        "0,1,1,0\n"
        "1,1,0,0\n"
    ),
    ("construct --a-matrix 2", "json"): (
        '{"order":4,"rows":["1001","0011","0110","1100"]}\n'
    ),
    ("construct --extremal --k 1 --t 1", "json"): (
        '{"graph6":"CM","k":1,"t":1}\n'
        '{"bound_id":"witness_top","n":4,"s_or_k":2,"applicable":true,"strict":false,'
        '"lhs":0.414213562373,"rhs":0.61803398875,"margin":0.203820426377,"satisfied":true,'
        '"tol":1e-09}\n'
        '{"bound_id":"witness_top_complement","n":4,"s_or_k":2,"applicable":true,'
        '"strict":false,"lhs":0.414213562373,"rhs":0.61803398875,"margin":0.203820426377,'
        '"satisfied":true,"tol":1e-09}\n'
        '{"bound_id":"witness_bottom","n":4,"s_or_k":2,"applicable":true,"strict":false,'
        '"lhs":-1.61803398875,"rhs":-1.41421356237,"margin":0.203820426377,"satisfied":true,'
        '"tol":1e-09}\n'
        '{"bound_id":"witness_bottom_complement","n":4,"s_or_k":2,"applicable":true,'
        '"strict":false,"lhs":-1.61803398875,"rhs":-1.41421356237,"margin":0.203820426377,'
        '"satisfied":true,"tol":1e-09}\n'
    ),
    ("construct --extremal --k 1 --t 1", "text"): (
        "graph6: CM\n"
        "OK        witness_top            n=4 param=2 0.414213562373 <= 0.61803398875 "
        "margin=0.203820426377\n"
        "OK        witness_top_complement n=4 param=2 0.414213562373 <= 0.61803398875 "
        "margin=0.203820426377\n"
        "OK        witness_bottom         n=4 param=2 -1.61803398875 <= -1.41421356237 "
        "margin=0.203820426377\n"
        "OK        witness_bottom_complement n=4 param=2 -1.61803398875 <= -1.41421356237 "
        "margin=0.203820426377\n"
    ),
}


@pytest.mark.parametrize("command, fmt", sorted(CLI_PINNED))
def test_cli_output_pinned(capsys, command, fmt):
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert out == CLI_PINNED[command, fmt]


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


def test_construct_extremal_builds_the_graph_once(capsys, monkeypatch):
    calls = []
    original = ngspectral.constructions.extremal_graph

    def counting(k, t):
        calls.append((k, t))
        return original(k, t)

    monkeypatch.setattr(ngspectral.cli, "extremal_graph", counting)
    monkeypatch.setattr(ngspectral.constructions, "extremal_graph", counting)
    code, _, _ = run_cli(capsys, "construct", "--extremal", "--k", "3", "--t", "2")
    assert code == 0
    assert calls == [(3, 2)]


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


def test_search_exact_at_order_8(capsys):
    # n = 8 needs no opt-in; the record is the library's
    code, out, _ = run_cli(
        capsys, "search", "--exact", "--n", "8", "--s", "2", "--family", "top", "--format", "json"
    )
    assert code == 0
    assert out.splitlines() == render([exhaustive_f(8, 2, "top")], "json", ExtremalRecord)


def test_allow_n8_flag(capsys):
    # the one exhaustive cap is not raised from the command line
    code, out, err = run_cli(
        capsys, "search", "--exact", "--n", "8", "--s", "2", "--family", "top", "--allow-n8"
    )
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


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
    commands = [
        ["check", "--generate", "cycle:5"],
        ["search", "--exact", "--n", "5", "--s", "2", "--family", "top"],
        ["construct", "--extremal", "--k", "1", "--t", "1"],
    ]
    for argv in commands:
        for tol in ("nan", "inf"):
            code, out, err = run_cli(capsys, *argv, "--tol", tol)
            assert code == 1 and out == ""
            assert f"argument --tol: tolerance must be positive and finite, got {tol}" in err
    code, out, _ = run_cli(capsys, "construct", "--a-matrix", "2", "--tol", "0")
    assert code == 1 and out == ""


def test_check_s_max_above_the_order_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NG_MAX_ORDER", "4096")
    code, out, _ = run_cli(capsys, "check", "--generate", "complete:4", "--s-max", "4096")
    assert code == 0 and out
    code, out, err = run_cli(capsys, "check", "--generate", "complete:4", "--s-max", "4097")
    assert code == 1 and out == ""
    assert "--s-max 4097" in err and "4096" in err
    monkeypatch.setenv("NG_MAX_ORDER", "8")
    code, _, err = run_cli(capsys, "check", "--generate", "complete:4", "--s-max", "9")
    assert code == 1 and "cap 8" in err


def test_max_order_flag(capsys):
    # NG_MAX_ORDER is the only override of the order cap
    code, out, err = run_cli(capsys, "spectrum", "--generate", "complete:3", "--max-order", "8")
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


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


def test_negative_seed_exit1(capsys):
    for argv, seed in (
        (["spectrum", "--generate", "erdos_renyi:10,0.5", "--seed", "-1"], -1),
        (["search", "--local", "--n", "10", "--s", "2", "--family", "top", "--seed", "-3"], -3),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: seed must be non-negative, got {seed}\n"


def test_graph6_file_input(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text(emit_graph6(path(4)) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", "--graph6-file", str(src))
    assert code == 0
    assert "1.61803398875" in out


def test_graph6_file_with_two_graphs_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "two.g6"
    src.write_text(emit_graph6(path(4)) + "\n" + emit_graph6(cycle(5)) + "\n", encoding="utf-8")
    for command in ("spectrum", "check"):
        code, out, err = run_cli(capsys, command, "--graph6-file", str(src))
        assert code == 1 and out == ""
        assert err == f"error: {src} holds more than one graph6 string; give one graph per file\n"
    # one line, a trailing newline and the header stay accepted
    one = emit_graph6(path(4))
    expected = run_cli(capsys, "spectrum", "--graph6", one)[1]
    for text in (one, one + "\n", ">>graph6<<" + one + "\n"):
        src.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "spectrum", "--graph6-file", str(src)) == (0, expected, "")


def test_graph6_file_whitespace_around_the_graph(tmp_path, capsys):
    # a blank first line, a trailing space or tab and CRLF line ends are
    # layout: the file reads as the one graph6 string it holds
    src = tmp_path / "g.g6"
    expected = run_cli(capsys, "spectrum", "--graph6", "CF")[1]
    for text in ("\nCF\n", "CF \n", "\t CF\t\r\n\n"):
        src.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "spectrum", "--graph6-file", str(src)) == (0, expected, ""), text
    # a bad string, or none at all, is an error that names the file
    for text, message in (
        ("C F\n", "graph6 characters must be in the byte range 63..126"),
        (" \n\n", "empty graph6 string"),
    ):
        src.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--graph6-file", str(src))
        assert (code, out, err) == (1, "", f"error: {src}: {message}\n")


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
    record = local_search_f(6, 3, "bottom", 0, 3, 1)
    assert out.splitlines() == render([record], "text", ExtremalRecord)


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
    # the bytes the climb that rescores each step's first-order top flips
    # printed; the climb that rescored every flip printed the same record
    # with 12484 evaluations
    argv = ["search", "--local", "--n", "16", "--s", "2", "--family", "top", "--seed", "0"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == (
        "n,s,family,value,witness,method,exact,evaluations,seed\n"
        "16,2,top,9.63014581273,O?~~~~o{F_]??N?N_Fw@~,local_search,false,12004,0\n"
    )
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (
        '{"n":16,"s":2,"family":"top","value":9.63014581273,"witness":"O?~~~~o{F_]??N?N_Fw@~",'
        '"method":"local_search","exact":false,"evaluations":12004,"seed":0}\n'
    )


def test_local_search_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "search", "--local", "--n", "1", "--s", "1", "--family", "bottom")
    assert code == 0
    assert "value=0 " in out and "witness=@" in out


def _readme_commands() -> list[list[str]]:
    """The argument lists of the `ngspectral ...` lines in README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ngspectral ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my.g6").write_text(emit_graph6(path(5)) + "\n", encoding="utf-8")
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"spectrum", "check", "construct", "search"}
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def _subcommands() -> dict:
    """Subcommand name -> its parser."""
    return next(
        action for action in build_parser()._actions if action.choices and action.dest == "command"
    ).choices


def test_readme_flags_exist():
    # every --flag README names, in prose too, is one some subcommand accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    accepted = {flag for sub in _subcommands().values() for flag in sub._option_string_actions}
    assert named and named <= accepted, sorted(named - accepted)


def test_generator_docs_match_the_table():
    # README lists every kind of GENERATORS, and every kind:params example in
    # README and in the --generate help builds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"generators of `GENERATORS` \(([^)]*)\)", readme).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(GENERATORS)
    help_text = _subcommands()["spectrum"]._option_string_actions["--generate"].help
    examples = re.findall(r"\b([a-z_]+):(\d(?:[\d.,]*\d)?)", readme + "\n" + help_text)
    assert examples
    for kind, params in examples:
        generate(kind, [float(x) for x in params.split(",")], seed=0)
