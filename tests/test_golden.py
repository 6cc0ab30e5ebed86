"""Byte-for-byte CLI output against golden files in tests/data/golden/.

Each case is one `cli.main` run; its file holds the exit code on the first
line and the exact stdout after it.  The files were written by the renderer
that formatted every cell in Python, so any change to how a table is turned
into text (csv, json or text) must keep these bytes.  Regenerate a file only
when the output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ngspectral.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_ER64 = ["--generate", "erdos_renyi:64,0.5", "--seed", "3", "--s-max", "5"]
_EXTREMAL = ["construct", "--extremal", "--k", "2", "--t", "3"]

CASES = {
    # a G(64, 1/2) battery in every format
    **{f"check-er64.{fmt}": ["check", *_ER64, "--format", fmt] for fmt in ("csv", "json", "text")},
    # s past the spectrum: NaN sides print as nan (csv, text) and null (json)
    **{f"check-path3.{fmt}": ["check", "--generate", "path:3", "--s-max", "5", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    # a degenerate spectrum, whose rounding residue gives -0.0 and tiny cells
    **{f"check-k44.{fmt}": ["check", "--generate", "complete_bipartite:4,4", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    **{f"check-path1.{fmt}": ["check", "--generate", "path:1", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    # a tolerance cell in exponent form
    **{f"check-tol.{fmt}": ["check", "--generate", "cycle:9", "--tol", "1e-12", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    # the largest order of the check_many bench: hundreds of rows of constant n and tol
    **{f"check-er128.{fmt}": ["check", "--generate", "erdos_renyi:128,0.9", "--seed", "5",
                              "--s-max", "5", "--format", fmt] for fmt in ("csv", "json")},
    **{f"spectrum-c9.{fmt}": ["spectrum", "--generate", "cycle:9", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    **{f"extremal.{fmt}": [*_EXTREMAL, "--format", fmt] for fmt in ("csv", "json", "text")},
    # the recursion matrix's 0/1 grid, which no check or search prints
    **{f"a-matrix3.{fmt}": ["construct", "--a-matrix", "3", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    **{f"exact.{fmt}": ["search", "--exact", "--n", "5", "--s", "2", "--family", "top",
                        "--format", fmt] for fmt in ("csv", "json", "text")},
    # a local record: three seeded climbs and the construction, a lower bound
    **{f"local12.{fmt}": ["search", "--local", "--n", "12", "--s", "2", "--family", "top",
                          "--seed", "0", "--iterations", "10", "--restarts", "3", "--format", fmt]
       for fmt in ("csv", "json", "text")},
    # the six climbs of the search_local bench, at its default iterations and restarts
    **{f"local{n}-{family}.json": ["search", "--local", "--n", str(n), "--s", "2",
                                   "--family", family, "--seed", "0", "--format", "json"]
       for n in (16, 24, 32) for family in ("top", "bottom")},
    **{f"table.{fmt}":["search", "--table", "--n-list", "4,5", "--s", "1", "--family", "bottom",
                        "--format", fmt] for fmt in ("csv", "json", "text")},
}


def run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name):
    assert run(CASES[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        (GOLDEN / name).write_bytes(run(CASES[name]))
