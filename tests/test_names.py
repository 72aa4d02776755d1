"""Static check: every name a package module reads is bound somewhere.

Python reports a global that is read but never bound or imported only when
the line runs, so a rarely taken error path can hide a ``NameError``.  This
walks each module's symbol tables and fails on such names up front.
"""

import builtins
import pathlib
import symtable

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "statgames"
MODULES = sorted(PACKAGE.glob("*.py"))


def unbound_reads(path: pathlib.Path) -> set:
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | {"__file__"}
    missing, tables = set(), [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            if sym.is_referenced() and (sym.is_global() or table is top):
                missing.add(sym.get_name())
    return missing - known


def test_package_modules_found():
    assert {"loss.py", "harness.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_read_name_is_bound(path):
    assert unbound_reads(path) == set()


def test_checker_sees_nested_and_class_scopes(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os\n"
        "class C:\n"
        "    y = MissingA\n"
        "def f():\n"
        "    return [MissingB for _ in os.sep]\n"
    )
    assert unbound_reads(src) == {"MissingA", "MissingB"}
