"""Static guards on the package source and its import graph.

Each `src/seqinv/*.py` is compiled to its symbol tables. A name that a
function (or the module body) reads as an implicit global must be bound at
module level (assignment, import, def or class) or be a builtin; anything
else would raise NameError when that line runs.

The package runs on numpy alone: no module imports scipy, no default run
of any kind loads it, and every kind runs with scipy refused by an import
hook (scipy and mpmath are test-only references).

Every public name, public function and public method is used: something
besides its own definition and the package's `__init__.py` refers to it
(see dead_surface).

The parameters that perfbench/tracing.py binds by name keep their names.
"""
import ast
import builtins
import inspect
import json
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import seqinv
from seqinv import credible, util

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
    # No scipy module at all, scipy.stats included, at any level.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        assert not any(n == "scipy" or n.startswith("scipy.")
                       for n in names), f"line {node.lineno}"


def test_fresh_import_loads_neither_stats_nor_optimize(tmp_path):
    script = (
        "import json, sys\n"
        "import seqinv\n"
        "seen = {m: m in sys.modules for m in\n"
        "        ('scipy', 'scipy.special', 'scipy.stats', 'scipy.optimize',\n"
        "         'mpmath', 'concurrent.futures')}\n"
        "assert seqinv.cli_main(['contraction', '--out', sys.argv[1]]) == 0\n"
        "seen['special_after_contraction'] = 'scipy.special' in sys.modules\n"
        "assert seqinv.cli_main(['coverage-ball', '--out',\n"
        "                        sys.argv[1]]) == 0\n"
        "seen['optimize_after_ball'] = 'scipy.optimize' in sys.modules\n"
        "seen['special_after_ball'] = 'scipy.special' in sys.modules\n"
        "assert seqinv.cli_main(['bvm', '--out', sys.argv[1]]) == 0\n"
        "seen['optimize_after_bvm'] = 'scipy.optimize' in sys.modules\n"
        "seen['special_after_bvm'] = 'scipy.special' in sys.modules\n"
        "assert seqinv.cli_main(['lemma-order', '--out', sys.argv[1]]) == 0\n"
        "seen['mpmath_after_lemma'] = 'mpmath' in sys.modules\n"
        "print(json.dumps(seen))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"scipy": False, "scipy.special": False,
                    "scipy.stats": False, "scipy.optimize": False,
                    "mpmath": False, "concurrent.futures": False,
                    "special_after_contraction": False,
                    "optimize_after_ball": False, "special_after_ball": False,
                    "optimize_after_bvm": False, "special_after_bvm": False,
                    "mpmath_after_lemma": False}


def test_every_kind_runs_with_scipy_refused(tmp_path):
    # An import hook refuses scipy in a fresh interpreter; every default
    # run, the tau balance (a root search; beta + q = 1 + 2 alpha + 2 p puts
    # a harmonic number in it) and a quantile whose start is the gamma
    # quantile still succeed, and scipy is never imported.
    script = (
        "import sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('scipy is refused: ' + name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "import numpy as np\n"
        "import seqinv\n"
        "from seqinv import credible, rates\n"
        "for kind in seqinv.harness.KINDS:\n"
        "    out = sys.argv[1] + '/' + kind\n"
        "    assert seqinv.cli_main([kind, '--out', out]) == 0, kind\n"
        "rp = rates.RegimeParams(alpha=1.0, beta=5.0, p=1.0, q=0.0)\n"
        "assert rates.functional_tau_balance_factor(rp, 1e4) > 0.0\n"
        "w = np.concatenate(([1.0], np.linspace(1e-5, 1e-3, 50)))\n"
        "assert credible._WeightedChiSquare(w).quantile(0.001)[0] > 0.0\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.')\n"
        "               for m in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in SRC.glob("*.py")}


def names_used_in_package(sources: dict[str, str]) -> set[str]:
    """Names read (as a name or an attribute) in the package sources, each
    outside the top-level definition that binds it; __init__.py is left out."""
    used = set()
    for filename, source in sources.items():
        if filename == "__init__.py":
            continue
        tree = ast.parse(source)
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


def public_members(sources: dict[str, str]):
    """(module.name, name) of each public module-level function and
    (module.Class.name, name) of each public method of a public class."""
    for filename, source in sources.items():
        module = filename.removesuffix(".py")
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


# Kept though only the unit tests call it: the reference lambda_i that the
# spectral blocks are checked against.
UNUSED_BY_DESIGN = {"model.PriorSpec.eigenvalues"}

# Where a name may be used outside the package.
USE_TEXT = "".join((ROOT / name).read_text() for name in (
    "README.md", "tests/test_acceptance.py", "pyproject.toml"))


def dead_surface(sources: dict[str, str], exported) -> list[str]:
    """The public surface that nothing uses.

    A name in seqinv.__all__ is used when the package refers to it or README,
    the acceptance tests or pyproject.toml mention it. Any other public
    function, and every public method of a public class, is used when the
    package refers to it or those files call it as `name(`: one that only its
    own unit tests call is dead surface.
    """
    used = names_used_in_package(sources)
    dead = [name for name in exported if name not in used
            and not re.search(rf"\b{re.escape(name)}\b", USE_TEXT)]
    return dead + [qual for qual, name in public_members(sources)
                   if name not in exported and name not in used
                   and qual not in UNUSED_BY_DESIGN
                   and not re.search(rf"\b{re.escape(name)}\(", USE_TEXT)]


def test_every_public_name_is_used():
    assert dead_surface(package_sources(), seqinv.__all__) == []


def test_guard_catches_unused_member():
    sources = package_sources()
    sources["snippet.py"] = (
        "class Probe:\n"
        "    def planted_read(self):\n"
        "        return 1\n"
        "    def planted_method(self):\n"
        "        return 2\n"
        "    def _private(self):\n"
        "        return 3\n"
        "def planted_function():\n"
        "    return Probe().planted_read()\n")
    assert dead_surface(sources, seqinv.__all__) == [
        "snippet.Probe.planted_method", "snippet.planted_function"]


def test_traced_parameter_names_are_kept():
    # perfbench/tracing.py counts work from these arguments, bound by name
    # (perfbench/run.py --trace 1); renaming one breaks the traced run.
    for func, names in ((credible.ball_radius, {"w", "method", "mc_samples"}),
                        (credible.ball_coverage, {"w", "mc_samples"}),
                        (util.stable_sum, {"values"}),
                        (util.write_csv, {"path", "rows"})):
        assert names <= set(inspect.signature(func).parameters), func
    assert isinstance(credible.EigenWeights.trunc, property)
