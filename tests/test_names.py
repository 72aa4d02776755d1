"""Static checks on names.

Every name a package module reads is bound somewhere: Python reports a
global that is read but never bound or imported only when the line runs, so
a rarely taken error path can hide a ``NameError``.  This walks each
module's symbol tables and fails on such names up front.

Every name the benchmark's tracer wraps exists where it looks for it: the
tracer patches functions and class methods by name, so a refactor that
renames or moves one breaks traced benchmark runs and nothing else.
"""

import ast
import builtins
import importlib
import pathlib
import symtable

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "statgames"
MODULES = sorted(PACKAGE.glob("*.py"))
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


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


def tracer_table(name: str) -> dict:
    """The literal dict assigned to ``name`` at the top level of the
    benchmark's tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER.name} assigns no {name}")


@pytest.mark.parametrize("module, name", sorted(tracer_table("FUNCTIONS")))
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, cls, method", sorted(tracer_table("METHODS")))
def test_traced_method_is_in_its_class_dict(module, cls, method):
    # the tracer replaces ``cls.__dict__[method]``; an inherited method
    # would be patched on the base class instead
    assert method in vars(getattr(importlib.import_module(module), cls))
