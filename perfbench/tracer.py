"""Span tracer that wraps statgames' public functions from outside the library.

``Tracer.install()`` replaces each traced function in every ``statgames``
module namespace that binds it (plus the validating ``__post_init__`` of the
value classes, the report serialisers and the suite registry), and
``Tracer.restore()`` puts every original object back, so untraced runs carry
no wrapper at all.  Loss closures returned by the loss-model builders and by
``loss_compose`` are wrapped as they are created, so the per-observation
``fn`` calls that do the work are counted too.

Spans are kept in flat in-memory arrays (name id, start, end, parent, op id)
and written out with ``save()`` when the run ends.  A span's self time is its
duration minus the time its direct child spans cover; since the benchmark is
single-threaded, children nest inside their parent and never overlap.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import inspect
import json
import sys
import time

import numpy as np

#: (module, function) -> span name; wrapped wherever statgames binds them
FUNCTIONS = {
    ("statgames.discrete", "bayes_invert"): "discrete.bayes_invert",
    ("statgames.discrete", "copy_compose"): "discrete.copy_compose",
    ("statgames.discrete", "copy_compose_copar"): "discrete.copy_compose",
    ("statgames.discrete", "push"): "discrete.push",
    ("statgames.discrete", "tensor"): "discrete.tensor",
    ("statgames.discrete", "tensor_copar"): "discrete.tensor",
    ("statgames.discrete", "tensor_dist"): "discrete.tensor",
    ("statgames.discrete", "marginal_dist"): "discrete.tensor",
    ("statgames.gaussian", "g_invert"): "gaussian.g_invert",
    ("statgames.gaussian", "g_logpdf"): "gaussian.density",
    ("statgames.gaussian", "g_kl"): "gaussian.density",
    ("statgames.gaussian", "g_entropy"): "gaussian.density",
    ("statgames.gaussian", "gauss_hermite_expect"): "gaussian.hermite",
    ("statgames.lens", "exact_inversion"): "lens.exact_inversion",
    ("statgames.lens", "lens_compose"): "lens.lens_compose",
    ("statgames.lens", "lens_tensor"): "lens.lens_tensor",
    ("statgames.lens", "prior_marginals"): "lens.prior_marginals",
    ("statgames.loss", "laxator"): "loss.laxator",
    ("statgames.games", "laxness_witness"): "games.laxness_witness",
    ("statgames.modelio", "load_json"): "modelio.parse",
    ("statgames.modelio", "parse_channel"): "modelio.parse",
    ("statgames.modelio", "parse_lens"): "modelio.parse",
    ("statgames.modelio", "parse_state"): "modelio.parse",
}

#: (module, class, method) -> span name; patched on the class itself so
#: ``isinstance`` checks keep working
METHODS = {
    ("statgames.discrete", "FiniteKernel", "__post_init__"): "discrete.validate",
    ("statgames.discrete", "CoparKernel", "__post_init__"): "discrete.validate",
    ("statgames.discrete", "Dist", "__post_init__"): "discrete.validate",
    ("statgames.discrete", "Effect", "__post_init__"): "discrete.validate",
    ("statgames.gaussian", "GaussState", "__post_init__"): "gaussian.validate",
    ("statgames.gaussian", "GaussChannel", "__post_init__"): "gaussian.validate",
    ("statgames.harness", "SuiteReport", "to_json"): "harness.report",
    ("statgames.harness", "SuiteReport", "to_csv"): "harness.report",
}

#: loss-model builders whose returned ``LossFn.fn`` closures are wrapped
LOSS_BUILDERS = {
    "kl_loss": "loss.eval.kl",
    "mle_loss": "loss.eval.mle",
    "fe_loss": "loss.eval.fe",
    "lfe_loss": "loss.eval.lfe",
}
COMPOSE_SPAN = "loss.loss_compose"


def _hermite_points(fn, args, kwargs, result) -> int:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments["order"] ** call.arguments["s"].dim


def _report_bytes(fn, args, kwargs, result) -> int:
    """Bytes of a serialised report, less the digits of the wall time that
    the JSON form embeds, so that the count repeats from run to run."""
    timing = json.dumps(args[0].wall_time_s)
    return len(result.encode()) - (len(timing) if f'"wall_time_s": {timing}' in result else 0)


#: span name -> (counter, amount it adds per call, computed from the traced
#: function, its arguments and its result)
COUNTED = {
    "gaussian.hermite": ("gaussian.hermite_points", _hermite_points),
    "discrete.copy_compose": ("discrete.copy_compose_bytes", lambda fn, a, k, r: r.rows.nbytes),
    "harness.report": ("harness.report_bytes", _report_bytes),
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Records spans and counters around statgames' public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.op_id = 0
        self.counters: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._loss_stack: list[bool] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call, and its ``COUNTED`` counter."""
        nid = self._id(name)
        counted = COUNTED.get(name)
        counters = self.counters
        stack, perf = self._stack, time.perf_counter
        name_id, start, end, parent, op = (
            self.name_id, self.start, self.end, self.parent, self.op
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if counted is not None:
                counters[counted[0]] += counted[1](fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_loss_closure(self, name: str, fn, is_compose: bool):
        """Wrap a ``LossFn.fn``; a call made directly inside a composed
        loss's closure counts as one inner evaluation."""
        span = self.wrap(name, fn)
        loss_stack, counters = self._loss_stack, self.counters

        def closure(*args, **kwargs):
            if loss_stack and loss_stack[-1]:
                counters["loss.inner_evals"] += 1
            loss_stack.append(is_compose)
            try:
                return span(*args, **kwargs)
            finally:
                loss_stack.pop()

        return closure

    # -- installation -----------------------------------------------------

    def _bindings(self, obj):
        """(namespace, attribute) pairs in statgames modules bound to ``obj``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "statgames" or modname.startswith("statgames.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    yield mod, attr

    def _patch(self, owner, attr: str, new) -> None:
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new) -> None:
        for mod, attr in list(self._bindings(orig)):
            self._patch(mod, attr, new)

    def install(self) -> None:
        """Wrap every traced function, method, builder and suite."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import statgames.cli  # noqa: F401  (binds every module we patch)
        from statgames import harness, loss

        for (modname, fname), span in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], fname)
            self._patch_everywhere(orig, self.wrap(span, orig))

        for (modname, cname, meth), span in METHODS.items():
            cls = getattr(sys.modules[modname], cname)
            orig = cls.__dict__[meth]
            self._patch(cls, meth, self.wrap(span, orig))

        for fname, span in LOSS_BUILDERS.items():
            orig = getattr(loss, fname)
            self._patch_everywhere(orig, self._loss_builder(orig, span, False))
        self._patch_everywhere(loss.loss_compose, self._loss_builder(loss.loss_compose, COMPOSE_SPAN, True))

        for suite, fn in list(harness.SUITES.items()):
            self._patch(harness.SUITES, suite, self.wrap(f"harness.suite.{suite}", fn))

    def _loss_builder(self, builder, span: str, is_compose: bool):
        def build(*args, **kwargs):
            lossfn = builder(*args, **kwargs)
            return dataclasses.replace(
                lossfn, fn=self._wrap_loss_closure(span, lossfn.fn, is_compose)
            )

        build.__wrapped__ = builder
        return build

    def restore(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def summary(self) -> tuple[dict, dict]:
        """(self seconds by span name, calls by span name)."""
        a = self.arrays()
        own = self_times(a["parent"], a["start"], a["end"])
        n = len(self.names)
        secs = np.bincount(a["name_id"], weights=own, minlength=n)
        calls = np.bincount(a["name_id"], minlength=n)
        return (
            {name: float(secs[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- per-layer metrics --------------------------------------------------------

#: the registered verification suites, one ``harness.suite_s`` metric each
SUITES = (
    "bilinear", "buco", "chain-rule", "fe-joint", "fe-sum", "kl-strict",
    "laplace", "lax-naturality", "laxators", "mle-lax", "stochasticity", "thermo",
)

#: metric -> span name whose summed self time it reports
SELF_SECONDS = {
    "discrete.validate_s": "discrete.validate",
    "discrete.bayes_invert_s": "discrete.bayes_invert",
    "discrete.copy_compose_s": "discrete.copy_compose",
    "discrete.push_s": "discrete.push",
    "discrete.tensor_s": "discrete.tensor",
    "gaussian.validate_s": "gaussian.validate",
    "gaussian.g_invert_s": "gaussian.g_invert",
    "gaussian.density_s": "gaussian.density",
    "gaussian.hermite_s": "gaussian.hermite",
    "lens.lens_compose_s": "lens.lens_compose",
    "lens.lens_tensor_s": "lens.lens_tensor",
    "lens.prior_marginals_s": "lens.prior_marginals",
    **{f"loss.eval_s.{m}": f"loss.eval.{m}" for m in ("kl", "mle", "fe", "lfe")},
    "loss.loss_compose_s": COMPOSE_SPAN,
    "loss.laxator_s": "loss.laxator",
    "games.laxness_witness_s": "games.laxness_witness",
    **{f"harness.suite_s.{s}": f"harness.suite.{s}" for s in SUITES},
    "harness.report_s": "harness.report",
    "modelio.parse_s": "modelio.parse",
}

#: metric -> span name whose calls it counts
CALLS = {
    "discrete.validate_calls": "discrete.validate",
    "discrete.bayes_invert_calls": "discrete.bayes_invert",
    "gaussian.validate_calls": "gaussian.validate",
    "gaussian.g_invert_calls": "gaussian.g_invert",
    "gaussian.hermite_calls": "gaussian.hermite",
    "lens.exact_inversion_calls": "lens.exact_inversion",
    "loss.loss_compose_calls": COMPOSE_SPAN,
    "loss.laxator_calls": "loss.laxator",
    "games.laxness_witness_calls": "games.laxness_witness",
}

#: counters kept by the call hooks, with their units
COUNTERS = {
    "discrete.copy_compose_bytes": "bytes",
    "gaussian.hermite_points": "count",
    "loss.inner_evals": "count",
    "harness.report_bytes": "bytes",
}


def per_layer_metrics(
    tracer: Tracer, ops: int, traced_s: float, untraced_s: float, import_s: float
) -> dict:
    """Every per-layer metric as ``name -> (value, unit)`` from one traced
    round of ``ops`` operations that took ``traced_s``; ``untraced_s`` is the
    median untraced round of the same run."""
    secs, calls = tracer.summary()
    out = {name: (secs.get(span, 0.0), "s") for name, span in SELF_SECONDS.items()}
    out.update({name: (calls.get(span, 0), "count") for name, span in CALLS.items()})
    out.update({name: (tracer.counters[name], unit) for name, unit in COUNTERS.items()})
    evals = sum(calls.get(f"loss.eval.{m}", 0) for m in ("kl", "mle", "fe", "lfe"))
    composes = calls.get(COMPOSE_SPAN, 0)
    out["loss.eval_calls"] = (evals, "count")
    out["loss.inner_evals_per_compose"] = (
        tracer.counters["loss.inner_evals"] / composes if composes else 0.0,
        "count/call",
    )
    out["lens.inversions_per_op"] = (calls.get("lens.exact_inversion", 0) / ops, "count/op")
    out["cli.import_s"] = (import_s, "s")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return dict(sorted(out.items()))
