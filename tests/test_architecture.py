"""Module boundaries of the package, read from its source with `ast`.

One module calls LAPACK and one module owns the pair order: `np.linalg`
and `_complement`, the complement of a matrix stack, appear only in
`eigensolver.py`, and `pair_indices` and `tril_indices` only in
`graphs.py`.  No module imports a private name of another.  One module
judges inequalities: `BoundReport(...)` is called only in `bounds.py`, so
every report gets its verdict from the table walk.  One module names the
output formats: the machine formats "json" and "csv" are string constants
only in `reporting.py`, which lists them in `FORMATS`.  One function
writes the CLI's output: the subcommand handlers return their text, and
`main` is the only caller of `cli._emit`.  The package imports only numpy,
the standard library and itself: CI installs numpy and pytest alone, so
any other import would pass only where it happens to be installed.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ngspectral").glob("*.py"))

# name -> the one module that may use it
OWNERS = {
    "linalg": "eigensolver.py", "_complement": "eigensolver.py",
    "pair_indices": "graphs.py", "tril_indices": "graphs.py",
}
# callee -> the one module that may call it
CALLERS = {"BoundReport": "bounds.py"}
# string constant -> the one module that may spell it
SPELLERS = {"json": "reporting.py", "csv": "reporting.py"}
# top-level packages the package may import besides the standard library
DEPENDENCIES = {"numpy", "ngspectral"}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the module uses or defines, as names, attributes,
    imported names and import paths."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"eigensolver.py", "graphs.py", "search.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_owned_names_stay_in_their_module(path):
    names = _names(ast.parse(path.read_text(), filename=str(path)))
    strays = sorted(name for name, owner in OWNERS.items() if name in names and path.name != owner)
    assert not strays, f"{path.name} uses {strays}"


def _callees(tree: ast.AST) -> set[str]:
    """Every name or attribute that the module calls."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_owned_calls_stay_in_their_module(path):
    callees = _callees(ast.parse(path.read_text(), filename=str(path)))
    strays = sorted(name for name, owner in CALLERS.items() if name in callees and path.name != owner)
    assert not strays, f"{path.name} calls {strays}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_format_names_stay_in_reporting(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    strays = sorted(
        text for text, owner in SPELLERS.items() if text in constants and path.name != owner
    )
    assert not strays, f"{path.name} spells {strays}"


def test_only_main_writes_the_output():
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    writers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and "_emit" in _callees(node)}
    assert writers == {"main"}


def _imports(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    imports = _imports(ast.parse(path.read_text(), filename=str(path)))
    strays = sorted(imports - DEPENDENCIES - set(sys.stdlib_module_names))
    assert not strays, f"{path.name} imports {strays}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    strays = sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name.startswith("_"))
    assert not strays, f"{path.name} imports {strays}"
