"""Every name a module under src/ or tests/ imports is referenced in it, no
package module imports another one's private names or a test-only dependency
(scipy, mpmath), every top-level function or class of the package is public
or used by the package, and no public callable or CLI flag takes a tolerance.

Package ``__init__`` modules are exempt from the first check, since their
imports are the re-exports, and so is ``from __future__``.  The second and
third checks exempt dunders.  The cross-check routes that reach into the
engine live in tests/, outside these package checks.
"""

import argparse
import ast
import collections
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = ROOT / "src" / "gaussfid"
PACKAGE_MODULES = sorted(PACKAGE.rglob("*.py"))
#: Used by the tests' cross-check routes, never by the package.
TEST_ONLY_DEPENDENCIES = ("scipy", "mpmath")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") \
        == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list:
    """(line, name) of every single-underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "gaussfid"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_scan_finds_a_private_import():
    source = ("from .core import _a, b, __version__\nfrom numpy import _c\n"
              "from gaussfid.fidelity import _d\nfrom . import _e\n")
    assert private_imports(source) == [(1, "_a"), (3, "_d"), (4, "_e")]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def dependency_imports(source: str) -> list:
    """(line, module) of every import, at any depth, of a test-only dependency."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [(line, name) for line, name in found
            if name.split(".")[0] in TEST_ONLY_DEPENDENCIES]


def test_scan_finds_a_dependency_import():
    source = ("import numpy, scipy.linalg\nfrom mpmath import mp\nfrom . import scipy\n"
              "def f():\n    import scipy\n")
    assert dependency_imports(source) == [(1, "scipy.linalg"), (2, "mpmath"), (5, "scipy")]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_test_only_dependency_imports(path):
    assert dependency_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: dict, public) -> list:
    """(module, name) of every top-level function or class in ``sources``
    (module name -> source) that is not in ``public``, not a dunder, and not
    named anywhere in the sources outside its own definition."""
    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = collections.Counter(name for tree in trees.values() for name in names(tree))
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in public and not node.name.startswith("__")
            and counts[node.name] == names(node).count(node.name)]


def test_scan_finds_an_unreferenced_definition():
    sources = {"a": "def used():\n    pass\ndef unused():\n    return unused\n"
                    "class Public:\n    pass\ndef __getattr__(name):\n    pass\n",
               "b": "from .a import used, unused\nused()\n"}
    assert unreferenced_definitions(sources, {"Public"}) == [("a", "unused")]


def test_no_unreferenced_definitions():
    # a function only the tests call belongs with the tests' cross-check routes
    import gaussfid
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in PACKAGE_MODULES}
    public = set(gaussfid.__all__) | gaussfid._FOCK_NAMES
    assert unreferenced_definitions(sources, public) == []


def tolerance_parameters(fn) -> list:
    """Names of ``fn``'s parameters that set a tolerance or a budget."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # a callable without a readable signature
        return []
    return [name for name in params if "tol" in name.lower() or "budget" in name.lower()]


def option_strings(parser: argparse.ArgumentParser) -> list:
    """Every option string of ``parser`` and of the subcommand parsers under it."""
    found = []
    for action in parser._actions:
        found += action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found += option_strings(sub)
    return found


def test_scans_find_a_tolerance_knob():
    assert tolerance_parameters(lambda x, phys_tol=1e-9, TOL=0: x) == ["phys_tol", "TOL"]
    assert tolerance_parameters(lambda x, deficit_budget=1e-8, Budget=0: x) == [
        "deficit_budget", "Budget"]
    parser = argparse.ArgumentParser()
    parser.add_subparsers().add_parser("cmd").add_argument("--tol-x")
    assert option_strings(parser) == ["-h", "--help", "-h", "--help", "--tol-x"]


def test_no_tolerance_knobs():
    # the thresholds are the package's constants, so each has one value that
    # the tests and the benchmark cover
    import gaussfid
    from gaussfid import cli, core
    callables = [getattr(gaussfid, name) for name in gaussfid.__all__]
    callables += [core.require_physical, cli.parse_state_file]
    knobs = {fn.__qualname__: tolerance_parameters(fn) for fn in callables if callable(fn)}
    assert {name: params for name, params in knobs.items() if params} == {}
    flags = option_strings(cli.build_parser())
    assert "--json" in flags and "--h" in flags
    assert [flag for flag in flags if "tol" in flag] == []
