"""Static checks on names.

Every name a package module reads is bound somewhere: Python reports a
global that is read but never bound or imported only when the line runs, so
a rarely taken error path can hide a ``NameError``.  This walks each
module's symbol tables and fails on such names up front.

Every name the benchmark's tracer wraps exists where it looks for it: the
tracer patches functions and class methods by name, so a refactor that
renames or moves one breaks traced benchmark runs and nothing else.  The
tracer also swaps a loss's ``fn`` field with ``dataclasses.replace``, so the
scalar call of every loss must go through that field.

A loss is its form: every public loss builder gives a loss with a form on
each instance where its model is defined, no package module sets ``fn``
itself, and no package module but ``gaussian.py`` refers to Gauss-Hermite
quadrature, which the tests keep as an oracle.

The instance (discrete or Gaussian) is picked in one place: no module
compares against an instance name or tests for an instance type outside the
backend selector, the suite registry and the command line's ``--instance``
choices.
"""

import ast
import builtins
import dataclasses
import importlib
import pathlib
import symtable

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.lens import exact_lens
from statgames.loss import (
    LossFn,
    LossModel,
    QuadForm,
    VecForm,
    fe_joint_form,
    fe_loss,
    kl_loss,
    laxator_loss,
    lfe_loss,
    loss_compose,
    loss_for,
    mle_loss,
    zero_loss,
)

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


# -- one dispatch point -------------------------------------------------------

INSTANCE_NAMES = {"discrete", "gaussian"}
INSTANCE_TYPES = {"CoparKernel", "FiniteKernel", "Dist", "GaussChannel", "GaussState", "FiniteSpace"}
#: (module, top-level definition) where instances may be named or tested
DISPATCH_POINTS = {
    ("backend.py", "backend_of"),
    ("backend.py", "_select"),
    ("backend.py", "_TYPES"),
    ("harness.py", "SUITE_DEFAULTS"),
    ("harness.py", "SuiteConfig"),
    ("cli.py", "build_parser"),
}


def _names(node) -> list:
    """The constants and names in an expression or a literal collection."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    out = []
    for item in items:
        if isinstance(item, ast.Constant):
            out.append(item.value)
        elif isinstance(item, ast.Name):
            out.append(item.id)
        elif isinstance(item, ast.Attribute):
            out.append(item.attr)
    return out


def dispatch_sites(path: pathlib.Path) -> list:
    """``(top-level definition, line)`` of every comparison against an
    instance name and every ``isinstance`` on an instance type."""
    sites = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            scope = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            scope = ",".join(t.id for t in targets if isinstance(t, ast.Name))
        else:
            scope = "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(v in INSTANCE_NAMES for o in operands for v in _names(o)):
                    sites.append((scope, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and INSTANCE_TYPES & set(_names(node.args[1]))
            ):
                sites.append((scope, node.lineno))
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_instances_are_picked_in_one_place(path):
    stray = [site for site in dispatch_sites(path) if (path.name, site[0]) not in DISPATCH_POINTS]
    assert stray == []


def test_dispatch_checker_sees_nested_and_class_scopes(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "X = 1 if kind == 'gaussian' else 2\n"
        "def f(ch):\n"
        "    def g():\n"
        "        return isinstance(ch, (int, ds.CoparKernel))\n"
        "    return ch.tag in ('discrete', 'other')\n"
        "class C:\n"
        "    def m(self, s):\n"
        "        return isinstance(s, GaussState) or s != 'x'\n"
        "def fine(ch):\n"
        "    return isinstance(ch, dict) and ch.get('discrete') == 1\n"
    )
    assert dispatch_sites(src) == [("X", 1), ("f", 5), ("f", 4), ("C", 8)]


# -- the loss contract the tracer relies on -------------------------------------


def test_loss_scalar_call_goes_through_the_fn_field():
    assert "fn" in {f.name for f in dataclasses.fields(LossFn)}
    X, M, Y = (ds.space([f"{p}{i}" for i in range(2)]) for p in "xmy")
    rows = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
    c = exact_lens(ds.CoparKernel(X, M, Y, rows))
    d = exact_lens(ds.CoparKernel(Y, M, X, rows))
    g = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
    cases = [
        (kl_loss(c), ds.uniform(X), 1),
        (loss_compose(mle_loss(d), kl_loss(c), d, c), ds.uniform(X), 0),
        (loss_compose(mle_loss(g), kl_loss(g), g, g), gs.GaussState([0.0], [[1.0]]), [0.5]),
    ]
    for loss, pi, obs in cases:
        calls = []

        def counted(prior, y, inner=loss.fn):
            calls.append(y)
            return inner(prior, y)

        swapped = dataclasses.replace(loss, fn=counted)
        assert swapped(pi, obs) == loss(pi, obs)
        assert calls == [obs]


# -- a loss is its form ----------------------------------------------------------

SEVERAL = (LossModel.KL, LossModel.MLE, LossModel.FE)
BOTH = ("discrete", "gaussian")
#: each public loss builder, as a function of one lens, and the instances
#: where its model is defined
LOSS_BUILDERS = {
    "kl_loss": (kl_loss, BOTH),
    "mle_loss": (mle_loss, BOTH),
    "fe_loss": (fe_loss, BOTH),
    "lfe_loss": (lfe_loss, ("gaussian",)),
    "fe_joint_form": (fe_joint_form, BOTH),
    "zero_loss": (zero_loss, BOTH),
    "laxator_loss": (lambda l: laxator_loss(LossModel.FE, l, l), BOTH),
    "laxator_loss-lfe": (lambda l: laxator_loss(LossModel.LFE, l, l), ("gaussian",)),
    "laxator_loss-several": (lambda l: laxator_loss(SEVERAL, l, l), ("discrete",)),
    "loss_for-several": (lambda l: loss_for(SEVERAL, l), ("discrete",)),
}


def instance_case(instance):
    """A lens of the instance, and maps from a loss's prior space to a
    prior and from its observation space to an observation."""
    if instance == "discrete":
        X, M, Y = (ds.space([f"{p}{i}" for i in range(2)]) for p in "xmy")
        rows = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
        return exact_lens(ds.CoparKernel(X, M, Y, rows)), ds.uniform, lambda space: 1
    lens = exact_lens(gs.GaussChannel([[1.0], [0.5]], [0.0, 0.0], np.eye(2), copar_dim=1))
    return lens, lambda n: gs.GaussState(np.zeros(n), np.eye(n)), lambda n: np.full(n, 0.5)


@pytest.mark.parametrize("name", sorted(LOSS_BUILDERS))
def test_every_loss_builder_gives_a_form_on_each_instance(name):
    build, instances = LOSS_BUILDERS[name]
    for instance in instances:
        lens, prior_on, obs_on = instance_case(instance)
        loss = build(lens)
        prior, obs = prior_on(loss.prior_dom), obs_on(loss.obs_dom)
        form = loss.form(prior)
        assert isinstance(form, VecForm if instance == "discrete" else QuadForm)
        if instance == "discrete":
            assert form.defined[..., obs].all()
            value = form.values[..., obs]
            assert loss(prior, obs) == (tuple(value.tolist()) if value.ndim else value)
        else:
            assert loss(prior, obs) == form.at(obs)


def test_a_loss_cannot_be_built_without_a_form():
    form = {f.name: f for f in dataclasses.fields(LossFn)}["form"]
    assert form.default is dataclasses.MISSING is form.default_factory
    with pytest.raises(TypeError):
        LossFn(ds.space(["x0"]), ds.space(["y0"]))


def test_no_package_module_sets_the_fn_field():
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _names(node.func)[-1:] == ["LossFn"]:
                assert len(node.args) <= 3, f"{path.name}:{node.lineno}"
                assert "fn" not in {k.arg for k in node.keywords}, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gaussian.py"], ids=lambda p: p.name)
def test_only_the_gaussian_module_refers_to_quadrature(path):
    assert "gauss_hermite_expect" not in path.read_text()
