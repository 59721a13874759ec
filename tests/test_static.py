"""Static guard: every global name a module reads is defined somewhere.

Each `src/seqinv/*.py` is compiled to its symbol tables. A name that a
function (or the module body) reads as an implicit global must be bound at
module level (assignment, import, def or class) or be a builtin; anything
else would raise NameError when that line runs.
"""
import builtins
import symtable
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
