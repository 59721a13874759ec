"""Static guards on the package source and its import graph.

Each `src/seqinv/*.py` is compiled to its symbol tables. A name that a
function (or the module body) reads as an implicit global must be bound at
module level (assignment, import, def or class) or be a builtin; anything
else would raise NameError when that line runs.

The package needs only scipy.special at import time: no module imports
scipy.stats, scipy.optimize is loaded by the two functions that call
brentq, when they run, and mpmath (a test-only reference) is never loaded.

Every public name is used: something besides its own definition and the
package's `__init__.py` refers to it.
"""
import ast
import builtins
import json
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import seqinv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqinv"
MODULE_DUNDERS = {"__name__", "__doc__", "__file__", "__spec__", "__loader__",
                  "__package__", "__path__", "__builtins__", "__dict__"}


def undefined_globals(source: str, filename: str) -> list[str]:
    top = symtable.symtable(source, filename, "exec")
    defined = {s.get_name() for s in top.get_symbols()
               if s.is_assigned() or s.is_imported() or s.is_namespace()}
    known = defined | set(dir(builtins)) | MODULE_DUNDERS
    missing = []

    def visit(table, is_module):
        for sym in table.get_symbols():
            if not sym.is_referenced():
                continue
            implicit = sym.is_global() and not sym.is_declared_global()
            if (is_module or implicit) and sym.get_name() not in known:
                missing.append(f"{table.get_name()}:{table.get_lineno()}: "
                               f"{sym.get_name()}")
        for child in table.get_children():
            visit(child, False)

    visit(top, True)
    return missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_undefined_global_names(path):
    assert undefined_globals(path.read_text(), str(path)) == []


def test_guard_catches_missing_import():
    source = (
        "from .util import RegimeError\n"
        "def check(a, b):\n"
        "    if a != b:\n"
        "        raise DimensionMismatchError('lengths differ')\n"
        "    raise RegimeError('x')\n")
    assert undefined_globals(source, "snippet.py") == [
        "check:2: DimensionMismatchError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_stats_import(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        assert not any(n == "scipy.stats" or n.startswith("scipy.stats.")
                       for n in names), f"line {node.lineno}"


def test_fresh_import_loads_neither_stats_nor_optimize(tmp_path):
    script = (
        "import json, sys\n"
        "import seqinv\n"
        "seen = {m: m in sys.modules\n"
        "        for m in ('scipy.stats', 'scipy.optimize', 'mpmath')}\n"
        "assert seqinv.cli_main(['bvm', '--out', sys.argv[1]]) == 0\n"
        "seen['optimize_after_bvm'] = 'scipy.optimize' in sys.modules\n"
        "assert seqinv.cli_main(['lemma-order', '--out', sys.argv[1]]) == 0\n"
        "seen['mpmath_after_lemma'] = 'mpmath' in sys.modules\n"
        "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"scipy.stats": False, "scipy.optimize": False,
                    "mpmath": False, "optimize_after_bvm": False,
                    "mpmath_after_lemma": False}


def names_used_in_package() -> set[str]:
    """Names read (as a name or an attribute) in src/seqinv, each outside
    the top-level definition that binds it; __init__.py is left out."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        spans = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                spans[node.name] = (node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            lo, hi = spans.get(name, (0, -1))
            if name is not None and not lo <= node.lineno <= hi:
                used.add(name)
    return used


def test_every_public_name_is_used():
    # A public name must serve the package, the README or an acceptance
    # criterion; one that only its own unit tests call is dead surface.
    text = (ROOT / "README.md").read_text() \
        + (ROOT / "tests" / "test_acceptance.py").read_text()
    used = names_used_in_package()
    dead = [name for name in seqinv.__all__ if name not in used
            and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert dead == []
