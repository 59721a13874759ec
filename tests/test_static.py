"""Static guards on the package source and its import graph.

Each `src/seqinv/*.py` is compiled to its symbol tables. A name that a
function (or the module body) reads as an implicit global must be bound at
module level (assignment, import, def or class) or be a builtin; anything
else would raise NameError when that line runs.

The package needs only scipy.special at import time: no module imports
scipy.stats, and scipy.optimize is loaded by the two functions that call
brentq, when they run.
"""
import ast
import builtins
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqinv"
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
        "        for m in ('scipy.stats', 'scipy.optimize')}\n"
        "assert seqinv.cli_main(['bvm', '--out', sys.argv[1]]) == 0\n"
        "seen['optimize_after_bvm'] = 'scipy.optimize' in sys.modules\n"
        "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"scipy.stats": False, "scipy.optimize": False,
                    "optimize_after_bvm": False}
