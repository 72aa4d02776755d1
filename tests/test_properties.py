"""Property-based differential tests: each batched path of the discrete
losses against the path it batches, compared bitwise on drawn shapes.

Hypothesis draws the structure of a case: factor sizes from 1 (a
one-outcome factor) to 3, whether each kernel has support gaps (zero
entries and an unreachable observation), whether each lens is exact,
whether the priors have zero-mass outcomes, and a stack of 1 to 4 priors.
numpy draws the numbers from a drawn seed.  Runs are deterministic: the
examples are derived from the test, not random, and no database is kept.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statgames import discrete as ds
from statgames import loss as loss_module
from statgames.errors import SupportError
from statgames.lens import BayesLens, exact_inversion, exact_lens
from statgames.loss import (
    ALL,
    LossFn,
    LossModel,
    VecForm,
    fe_joint_form,
    laxator_loss,
    loss_compose,
    loss_for,
    zero_loss,
)

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=25, deadline=None)
MODELS = (LossModel.KL, LossModel.MLE, LossModel.FE)


# -- drawn cases -------------------------------------------------------------


def random_kernel(rng, dom, copar, out, gaps):
    """A random channel; with ``gaps``, about 40 % of its entries are zero
    and, when there are two observations or more, the last is unreachable."""
    r = rng.gamma(1.0, size=(dom.size, copar.size, out.size)) + (0.0 if gaps else 0.05)
    if gaps:
        r[rng.random(size=r.shape) < 0.4] = 0.0
        live = max(out.size - 1, 1)
        r[:, :, live:] = 0.0
        r[np.arange(dom.size), 0, rng.integers(0, live, size=dom.size)] += 1.0
    r = r.reshape(dom.size, -1)
    return ds.CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


def perturbed_lens(rng, fwd, eps=0.3):
    """A lens whose backward mixes the exact inversion with a fixed random
    kernel: not exact, but a function of the prior (stacks included)."""
    noise = random_kernel(rng, fwd.out, ds.unit_space(), fwd.dom.product(fwd.copar), False).rows

    def bwd(pi):
        rows = (1 - eps) * exact_inversion(fwd, pi).rows + eps * noise
        return ds.CoparKernel(fwd.out, fwd.copar, fwd.dom, rows, "right")

    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


@st.composite
def cases(draw, n_lenses=1, chained=True):
    """``(lenses, priors)``: lenses run one after the other when
    ``chained``, side by side (to be tensored) otherwise, and 1 to 4 priors
    on the first lens's domain or on the product of the domains."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = iter(range(100))

    def space():
        n, k = draw(st.integers(1, 3)), next(spaces)
        return ds.space([f"s{k}_{i}" for i in range(n)])

    lenses, dom = [], space()
    for _ in range(n_lenses):
        fwd = random_kernel(rng, dom, space(), space(), draw(st.booleans()))
        lenses.append(exact_lens(fwd) if draw(st.booleans()) else perturbed_lens(rng, fwd))
        dom = fwd.out if chained else space()
    prior_dom = lenses[0].fwd.dom
    if not chained:
        for l in lenses[1:]:
            prior_dom = prior_dom.product(l.fwd.dom)
    gaps = draw(st.booleans())
    masses = rng.gamma(1.0, size=(draw(st.integers(1, 4)), prior_dom.size)) + (0.0 if gaps else 0.05)
    if gaps:
        masses[rng.random(size=masses.shape) < 0.4] = 0.0
        masses[np.arange(len(masses)), rng.integers(0, prior_dom.size, size=len(masses))] += 1.0
    priors = [ds.Dist(prior_dom, m / m.sum()) for m in masses]
    return lenses, priors


def stack(priors):
    return ds.Dist(priors[0].space, np.stack([pi.mass for pi in priors]))


# -- oracles -----------------------------------------------------------------


def tabulated(fn, prior_dom, obs_dom) -> LossFn:
    """The discrete loss whose form tabulates the scalar callable ``fn``,
    called at one prior of a stack and one observation at a time; where
    ``fn`` raises ``SupportError`` the entry is undefined."""

    def form(pi, sel=ALL, known=None):
        obs = loss_module._pick(np.arange(obs_dom.size), sel)
        obs = np.broadcast_to(obs, pi.mass.shape[:-1] + obs.shape[-1:])
        values, defined = np.zeros(obs.shape), np.ones(obs.shape, dtype=bool)
        for at in np.ndindex(obs.shape):
            prior = ds.Dist(pi.space, pi.mass[at[:-1]]) if pi.mass.ndim > 1 else pi
            try:
                values[at] = fn(prior, int(obs[at]))
            except SupportError:
                defined[at] = False
        return VecForm(values, defined)

    return LossFn(prior_dom, obs_dom, form)


def fe_joint_scalar(l, pi, y) -> float:
    """The joint free energy at one observation, one posterior row at a
    time: ``E_rho[log rho + energy]`` over the entries where ``rho > 0``."""
    fr = l.fwd.rows.reshape(l.fwd.dom.size, l.fwd.copar.size, l.fwd.out.size)
    with np.errstate(divide="ignore"):
        energy = -np.log(fr[:, :, y] * pi.mass[:, None]).reshape(-1)
    rho = l.bwd(pi).rows[y]
    pos = rho > 0
    if np.any(np.isinf(energy[pos])):
        return math.inf
    return float(np.dot(rho[pos], np.log(rho[pos]) + energy[pos]))


# -- bitwise comparisons -----------------------------------------------------


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_form(got, want):
    """Two vector forms agree bitwise: the mask, and the values where it holds."""
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.defined, want.defined)
    assert got.values[got.defined].tobytes() == want.values[want.defined].tobytes()


def assert_probes_are_scalar_calls(loss, priors):
    """``at_probes`` at every prior and observation gives what the scalar
    call gives there: the same bits, or the same ``SupportError``."""
    probes = [(pi, y) for pi in priors for y in range(loss.obs_dom.size)]
    for (pi, y), got in zip(probes, loss.at_probes(probes), strict=True):
        try:
            want = loss(pi, y)
        except SupportError as e:
            assert isinstance(got, SupportError) and str(got) == str(e)
        else:
            assert not isinstance(got, Exception) and same_bits(got, want)


def rows(form):
    """The forms of each model in a form with a model axis."""
    return [VecForm(v, ok) for v, ok in zip(form.values, form.defined)]


# -- the properties ----------------------------------------------------------


@DETERMINISTIC
@given(cases())
def test_at_probes_is_the_scalar_calls_of_a_lens(case):
    (l,), priors = case
    for loss in [*(loss_for(m, l) for m in MODELS), fe_joint_form(l), zero_loss(l)]:
        assert_probes_are_scalar_calls(loss, priors)


@DETERMINISTIC
@given(cases(n_lenses=2))
def test_at_probes_is_the_scalar_calls_of_a_composite(case):
    (c, d), priors = case
    for m in MODELS:
        assert_probes_are_scalar_calls(loss_compose(loss_for(m, d), loss_for(m, c), d, c), priors)


@DETERMINISTIC
@given(cases(n_lenses=2, chained=False))
def test_at_probes_is_the_scalar_calls_of_a_laxator(case):
    (c, d), omegas = case
    for m in MODELS:
        assert_probes_are_scalar_calls(laxator_loss(m, c, d), omegas)


@DETERMINISTIC
@given(cases(), st.booleans())
def test_model_axis_rows_are_the_single_model_losses(case, composed):
    (l,), priors = case
    several, singles = loss_for(MODELS, l), [loss_for(m, l) for m in MODELS]
    if composed:  # the same after a first stage from the lens's domain to itself
        first = exact_lens(random_kernel(np.random.default_rng(0), l.fwd.dom, ds.unit_space(), l.fwd.dom, False))
        several = loss_compose(several, loss_for(MODELS, first), l, first)
        singles = [loss_compose(s, loss_for(m, first), l, first) for s, m in zip(singles, MODELS)]
    for pi in [*priors, stack(priors)]:
        for row, single in zip(rows(several.form(pi)), singles, strict=True):
            assert_same_form(row, single.form(pi))
    probes = [(pi, y) for pi in priors for y in range(l.fwd.out.size)]
    for got, single in zip(several.at_probes(probes), singles, strict=True):
        want = single.at_probes(probes)
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w) and (isinstance(w, Exception) or same_bits(g, w))


@DETERMINISTIC
@given(cases(n_lenses=2, chained=False))
def test_model_axis_rows_are_the_single_model_laxators(case):
    (c, d), omegas = case
    several, singles = laxator_loss(MODELS, c, d), [laxator_loss(m, c, d) for m in MODELS]
    for omega in [*omegas, stack(omegas)]:
        for row, single in zip(rows(several.form(omega)), singles, strict=True):
            assert_same_form(row, single.form(omega))


@DETERMINISTIC
@given(cases())
def test_a_form_given_known_is_a_fresh_form(case):
    (l,), priors = case
    losses = [*(loss_for(m, l) for m in MODELS), fe_joint_form(l)]
    for pi in [*priors, stack(priors)]:
        known = (l.bwd, pi, l.bwd(pi))
        for loss in losses:
            assert_same_form(loss.form(pi, ALL, known), loss.form(pi))
        for row, fresh in zip(rows(loss_for(MODELS, l).form(pi, ALL, known)), losses):
            assert_same_form(row, fresh.form(pi))


@DETERMINISTIC
@given(cases())
def test_fe_joint_form_is_the_per_observation_scalar(case):
    (l,), priors = case
    joint = fe_joint_form(l)
    oracle = tabulated(lambda pi, y: fe_joint_scalar(l, pi, y), l.fwd.dom, l.fwd.out)
    for pi in [*priors, stack(priors)]:
        assert_same_form(joint.form(pi), oracle.form(pi))
    for pi in priors:
        for y in range(l.fwd.out.size):
            assert same_bits(joint(pi, y), fe_joint_scalar(l, pi, y))


def test_at_probes_is_the_scalar_call_where_a_backward_row_is_strided():
    # the exact inversion of a lens with a one-point coparameter has rows
    # that are a strided view; a composite averages over them one row at a
    # time in the scalar call and as stacked rows in ``at_probes``
    rng = np.random.default_rng(3)
    X, Y, Z = (ds.space([f"{p}{i}" for i in range(n)]) for p, n in (("x", 3), ("y", 6), ("z", 2)))
    unit = ds.unit_space()
    for _ in range(20):
        c = exact_lens(random_kernel(rng, X, unit, Y, False))
        d = exact_lens(random_kernel(rng, Y, unit, Z, False))
        priors = [ds.Dist(X, m / m.sum()) for m in rng.gamma(1.0, size=(3, X.size)) + 0.05]
        for m in MODELS:
            assert_probes_are_scalar_calls(loss_compose(loss_for(m, d), loss_for(m, c), d, c), priors)
