"""Every error path raises its documented exception type.

One case per ``raise`` statement that no other test reaches: each builds a
small invalid input, and the test checks the exception's type and a
fragment of its message.
"""

import json

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.backend import DISCRETE, GAUSSIAN, backend_of
from statgames.cli import build_parser, cmd_eval_loss
from statgames.errors import ModelParseError, ShapeError, SingularityError
from statgames.games import section_check
from statgames.lens import BayesLens, exact_lens
from statgames.loss import LossModel, QuadForm, kl_loss
from statgames.modelio import parse_channel

X2 = ds.space(["x0", "x1"])
Y2 = ds.space(["y0", "y1"])
Z3 = ds.space(["z0", "z1", "z2"])
UNIT = ds.unit_space()
HALF = [[0.5, 0.5], [0.5, 0.5]]


def kernel(dom=X2, cod=Y2):
    return ds.FiniteKernel(dom, cod, np.full((dom.size, cod.size), 1.0 / cod.size))


def backward(dom=Y2, cod=X2):
    """A channel carrying its (one-point) coparameter trailing."""
    return ds.CoparKernel(dom, UNIT, cod, np.full((dom.size, cod.size), 1.0 / cod.size), "right")


def gauss(dom=1, cod=1, side="left"):
    return gs.GaussChannel(np.ones((cod, dom)), np.zeros(cod), np.eye(cod), copar_side=side)


def state(dim=1):
    return gs.GaussState(np.zeros(dim), np.eye(dim))


def overflowing_inversion():
    # the output block's covariance overflows to inf, and solving with it
    # gives a gain that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        gs.g_invert(gs.GaussChannel([[1e200], [1e200]], [0.0, 0.0], np.eye(2)), state())


def mismatched_gaussian_kl():
    wide = gs.GaussChannel([[1.0], [1.0]], [0.0, 0.0], np.eye(2), copar_side="right")
    kl_loss(BayesLens(gauss(), lambda pi: wide))(state(), [0.0])


def mixed_probes():
    other = ds.space(["w0", "w1"])
    kl_loss(exact_lens(kernel())).at_probes([(ds.uniform(X2), 0), (ds.uniform(other), 0)])


def eval_loss_across_instances(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"fwd": {"dom": ["x0"], "cod": ["y0"], "rows": [[1.0]]}}))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"mean": [0.0], "cov": [[1.0]]}))
    args = build_parser().parse_args(
        ["eval-loss", "--model", str(model), "--loss", "kl", "--prior", str(prior), "--obs", "0"]
    )
    cmd_eval_loss(args)


CASES = {
    # backend
    "backend_of-unknown": (lambda: backend_of("x0"), ShapeError, "not a channel, state or space: str"),
    "backend_of-mixed": (lambda: backend_of(kernel(), gauss()), ShapeError, "mixed instances"),
    "deviation-shapes": (
        lambda: DISCRETE.deviation(backward(), backward(cod=Z3), kernel(), ds.uniform(X2)),
        ShapeError,
        "backward channels have different shapes",
    ),
    "gaussian-prior_marginals": (
        lambda: GAUSSIAN.prior_marginals(state(3), gauss(), gauss()),
        ShapeError,
        "joint prior is not on the tensored domain",
    ),
    "gaussian-parse_obs": (
        lambda: GAUSSIAN.parse_obs(gauss(), "[1, 2]"),
        ModelParseError,
        "observation has dimension 2, expected 1",
    ),
    # discrete
    "FiniteSpace-empty-factor": (lambda: ds.FiniteSpace(((),)), ShapeError, "at least one outcome"),
    "FiniteSpace-index": (lambda: X2.product(Y2).index(("x0",)), ShapeError, "expected a 2-tuple"),
    "FiniteSpace-index-string": (
        lambda: X2.product(Y2).index("x0"),
        ShapeError,
        "expected a 2-tuple, got 'x0'",
    ),
    "FiniteSpace-index-part": (
        lambda: X2.product(Y2).index(("x0", "zz")),
        ShapeError,
        "no outcome ('x0', 'zz') in FiniteSpace(2x2)",
    ),
    "FiniteSpace-index-atomic": (lambda: X2.index("zz"), ShapeError, "no outcome 'zz' in FiniteSpace(2)"),
    "point_mass": (lambda: ds.point_mass(X2, "zz"), ShapeError, "no outcome 'zz'"),
    "CoparKernel-side": (
        lambda: ds.CoparKernel(X2, UNIT, Y2, HALF, "middle"),
        ShapeError,
        "bad copar_side 'middle'",
    ),
    "CoparKernel-shape": (
        lambda: ds.CoparKernel(X2, UNIT, Z3, HALF),
        ShapeError,
        "rows have shape (2, 2), expected (2, 3)",
    ),
    "Effect-length": (lambda: ds.Effect(X2, [1.0]), ShapeError, "effect length does not match"),
    "Effect-negative": (lambda: ds.Effect(X2, [1.0, -1.0]), ShapeError, "must be in [0, +inf]"),
    "compose": (
        lambda: ds.compose(kernel(), kernel(Z3, Z3)),
        ShapeError,
        "codomain of first does not match domain of second",
    ),
    "copy_compose_copar-sides": (
        lambda: ds.copy_compose_copar(kernel(), backward(X2, X2)),
        ShapeError,
        "mixed coparameter side",
    ),
    "copy_compose_copar-ends": (
        lambda: ds.copy_compose_copar(kernel(), kernel(Z3, Z3)),
        ShapeError,
        "output of first does not match domain of second",
    ),
    "tensor_copar-sides": (
        lambda: ds.tensor_copar(kernel(), backward()),
        ShapeError,
        "cannot tensor channels of mixed coparameter side",
    ),
    "bayes_invert-side": (
        lambda: ds.bayes_invert(backward(X2, Y2), ds.uniform(X2)),
        ShapeError,
        "can only invert a forward",
    ),
    "effect_add": (
        lambda: ds.effect_add(ds.Effect(X2, [0.0, 1.0]), ds.Effect(Y2, [0.0, 1.0])),
        ShapeError,
        "effects live on different spaces",
    ),
    "effect_precompose": (
        lambda: ds.effect_precompose(ds.Effect(X2, [0.0, 1.0]), kernel()),
        ShapeError,
        "effect space does not match kernel codomain",
    ),
    "relative_entropy_effect": (
        lambda: ds.relative_entropy_effect(kernel(), kernel(X2, Z3)),
        ShapeError,
        "channels are not parallel",
    ),
    "almost_sure_eq-domains": (
        lambda: ds.almost_sure_eq(kernel(), kernel(Y2, Y2), ds.uniform(X2)),
        ShapeError,
        "kernels have different domains",
    ),
    "almost_sure_eq-codomains": (
        lambda: ds.almost_sure_eq(kernel(), kernel(X2, Z3), ds.uniform(X2)),
        ShapeError,
        "kernels have different codomain sizes",
    ),
    "almost_sure_eq-reference": (
        lambda: ds.almost_sure_eq(kernel(), kernel(), ds.uniform(Y2)),
        ShapeError,
        "reference state is not on the common domain",
    ),
    # gaussian
    "GaussState-dims": (
        lambda: gs.GaussState([0.0, 0.0], [[1.0]]),
        ShapeError,
        "mean and covariance dimensions differ",
    ),
    "GaussChannel-dims": (
        lambda: gs.GaussChannel([[1.0]], [0.0, 0.0], [[1.0]]),
        ShapeError,
        "A, b, noise dimensions are inconsistent",
    ),
    "GaussChannel-side": (lambda: gauss(side="middle"), ShapeError, "bad copar_side 'middle'"),
    "GaussChannel-copar_dim": (
        lambda: gs.GaussChannel([[1.0]], [0.0], [[1.0]], copar_dim=2),
        ShapeError,
        "copar_dim exceeds codomain dimension",
    ),
    "g_compose": (
        lambda: gs.g_compose(gauss(2, 1), gauss(1, 1)),
        ShapeError,
        "output of first does not match domain of second",
    ),
    "g_copy_compose-sides": (
        lambda: gs.g_copy_compose(gauss(), gauss(side="right")),
        ShapeError,
        "mixed coparameter side",
    ),
    "g_copy_compose-ends": (
        lambda: gs.g_copy_compose(gauss(2, 1), gauss(1, 1)),
        ShapeError,
        "output of first does not match domain of second",
    ),
    "g_tensor_channel-sides": (
        lambda: gs.g_tensor_channel(gauss(), gauss(side="right")),
        ShapeError,
        "cannot tensor channels of mixed coparameter side",
    ),
    "g_invert-side": (
        lambda: gs.g_invert(gauss(side="right"), state()),
        ShapeError,
        "can only invert a forward",
    ),
    "g_invert-overflow": (overflowing_inversion, SingularityError, "output covariance block is singular"),
    "g_kl": (lambda: gs.g_kl(state(1), state(2)), ShapeError, "states have different dimensions"),
    "g_logpdf": (lambda: gs.g_logpdf(state(1), [0.0, 0.0]), ShapeError, "point dimension does not match"),
    # lenses, losses and games
    "exact_lens-side": (lambda: exact_lens(backward(X2, Y2)), ShapeError, "coparameter leading"),
    "QuadForm.at": (
        lambda: QuadForm(np.eye(1), np.zeros(1), 0.0).at([1.0, 2.0]),
        ShapeError,
        "observation has dimension 2, expected 1",
    ),
    "at_probes-spaces": (mixed_probes, ShapeError, "the probes' priors live on different spaces"),
    "gaussian-kl-dims": (
        mismatched_gaussian_kl,
        ShapeError,
        "the backward channel's dimensions differ from the exact inversion's",
    ),
    "section_check-lengths": (
        lambda: section_check(LossModel.KL, [(exact_lens(kernel(Y2, Z3)), exact_lens(kernel()))], []),
        ShapeError,
        "need one probe list per pair",
    ),
    # model files and the command line
    "parse_channel-not-an-object": (
        lambda: parse_channel([1.0]),
        ModelParseError,
        "a channel must be a JSON object",
    ),
    "eval-loss-instances": (
        eval_loss_across_instances,
        ModelParseError,
        "prior and model are from different instances",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_error_path_raises_its_documented_type(name, tmp_path):
    build, error, fragment = CASES[name]
    args = (tmp_path,) if build is eval_loss_across_instances else ()
    with pytest.raises(error) as raised:
        build(*args)
    assert type(raised.value) is error and fragment in str(raised.value)


class OwnKernel(ds.CoparKernel):
    """A channel type the backend selector does not name."""


@pytest.mark.parametrize(
    "obj, backend",
    [
        (3, GAUSSIAN),
        (True, GAUSSIAN),
        (np.int64(2), GAUSSIAN),
        (kernel(), DISCRETE),
        (OwnKernel(X2, UNIT, Y2, HALF), DISCRETE),
        (X2, DISCRETE),
        (ds.uniform(X2), DISCRETE),
        (gauss(), GAUSSIAN),
        (state(), GAUSSIAN),
    ],
    ids=["int", "bool", "int64", "kernel", "subclass", "space", "dist", "channel", "state"],
)
def test_the_backend_of_a_type_is_the_scans(obj, backend):
    # the selector answers known types from a table: its answer is the
    # answer of an isinstance scan, for a subclass and any integer too
    assert backend_of(obj) is backend and backend_of(obj, obj) is backend


def test_an_unknown_type_is_refused_every_time():
    for _ in range(3):
        for obj in ("x0", 1.5, None, np.float64(1.0)):
            with pytest.raises(ShapeError, match=f"not a channel, state or space: {type(obj).__name__}$"):
                backend_of(obj)
