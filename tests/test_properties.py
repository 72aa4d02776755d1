"""Property-based differential tests: each batched path of the discrete
losses against the path it batches, compared bitwise on drawn shapes; every
memo site (each family's remembered backward channel, a tensored lens's
remembered split, a channel's remembered discard, pushforward and exact
inversion, the last shared by every lens on the channel, and a pair of
channels' remembered copy-composite) and a state's remembered Cholesky
factor against fresh ones; the Gaussian
inversion against its block assembly; model objects through JSON and back;
and malformed model files against the command line.

Hypothesis draws the structure of a case: factor sizes from 2 to 3 (from
1, a one-outcome factor, to 3 for one factor in six), whether each kernel
has support gaps (zero entries and an unreachable observation), whether
each lens is exact, whether the priors have zero-mass outcomes, and a stack
of 1 to 4 priors.
numpy draws the numbers from a drawn seed.  Runs are deterministic: the
examples are derived from the test, not random, and no database is kept.
"""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import os
import pickle
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames import loss as loss_module
from statgames import modelio
from statgames.backend import GAUSSIAN, backend_of
from statgames.cli import main
from statgames.errors import ShapeError, SingularityError, SupportError
from statgames.lens import (
    BayesLens,
    discarded,
    exact_inversion,
    exact_lens,
    lens_compose,
    lens_tensor,
    prior_marginals,
    prior_pushforward,
)
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
from test_games import mixed_pairs, rng_for

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

    return BayesLens(fwd=fwd, bwd=bwd)


@st.composite
def cases(draw, n_lenses=1, chained=True, least=1):
    """``(lenses, priors)``: lenses run one after the other when
    ``chained``, side by side (to be tensored) otherwise, and 1 to 4 priors
    on the first lens's domain or on the product of the domains; each
    factor has 2 to 3 outcomes, or for one factor in six ``least`` to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = iter(range(100))

    def space():
        # one factor in six may have one outcome, which makes most defects zero
        low = least if draw(st.integers(0, 5)) == 5 else max(least, 2)
        n, k = draw(st.integers(low, 3)), next(spaces)
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

    def form(pi, sel=ALL):
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
    time: ``E_rho[log rho + energy]`` over the entries where ``rho > 0``;
    undefined, as the free energy is, where the observation has zero
    evidence."""
    fr = l.fwd.rows.reshape(l.fwd.dom.size, l.fwd.copar.size, l.fwd.out.size)
    if not pi.mass @ fr[:, :, y].sum(axis=1) > 0:
        raise SupportError(f"observation {y} has zero evidence")
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


# 50 examples: the first 25 draw no composite whose rows, in a strided
# layout, would sum differently on the two paths
@settings(DETERMINISTIC, max_examples=50)
@given(cases(n_lenses=2))
def test_at_probes_is_the_scalar_calls_of_a_composite_lens(case):
    (c, d), priors = case
    for m in MODELS:
        assert_probes_are_scalar_calls(loss_for(m, lens_compose(d, c)), priors)


@DETERMINISTIC
@given(cases(n_lenses=2, chained=False))
def test_at_probes_is_the_scalar_calls_of_a_tensored_lens(case):
    (c, d), omegas = case
    for m in MODELS:
        assert_probes_are_scalar_calls(loss_for(m, lens_tensor(c, d)), omegas)


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


def spread(first, second):
    """Two forms over ``Y`` and ``Y2`` as forms over ``Y x Y2`` (the joint
    observation ``y * |Y2| + y2``): each form's values, and where both are
    finite."""

    def joint(a, b):
        return np.broadcast_arrays(a[..., :, None], b[..., None, :])

    finite = [f.defined & np.isfinite(f.values) for f in (first, second)]
    a, b = joint(first.values, second.values)
    ok = np.logical_and(*joint(*finite))
    lead = first.values.shape[:-1]
    return a.reshape(lead + (-1,)), b.reshape(lead + (-1,)), ok.reshape(lead + (-1,))


@DETERMINISTIC
@given(cases(n_lenses=2, chained=False, least=2))
def test_laxator_rows_are_the_tensored_loss_less_the_factors_losses(case):
    # the laxators suite certifies this law to 1e-8; the closed form and the
    # three losses add the same logarithms in other orders, so they differ by
    # rounding only, and the suite's bound holds on every drawn case.
    # One-outcome factors make most defects zero, so each factor here has
    # two outcomes or more
    (c, d), omegas = case
    tensored = lens_tensor(c, d)
    several = laxator_loss(MODELS, c, d, tensored=tensored)
    for omega in [*omegas, stack(omegas)]:
        w1, w2 = prior_marginals(omega, c.fwd, d.fwd)
        for m, row in zip(MODELS, rows(several.form(omega)), strict=True):
            whole = loss_for(m, tensored).form(omega)
            first, second, finite = spread(loss_for(m, c).form(w1), loss_for(m, d).form(w2))
            finite &= whole.defined & np.isfinite(whole.values)
            assert row.defined[finite].all()
            want = whole.values[finite] - first[finite] - second[finite]
            np.testing.assert_allclose(row.values[finite], want, rtol=0, atol=1e-8)


@DETERMINISTIC
@given(cases())
def test_a_form_at_a_remembered_prior_is_a_fresh_form(case):
    # every form reads the lens's remembered backward channel; read at the
    # prior the lens last saw, it is bitwise the form of a lens that has
    # seen no prior
    (l,), priors = case

    def unseen():
        return exact_lens(l.fwd) if l.exact else BayesLens(l.fwd, l.bwd.fn)

    remembering = unseen()
    for pi in [*priors, stack(priors)]:
        fresh = unseen()
        remembering.bwd(pi)
        for build in (*(lambda l, m=m: loss_for(m, l) for m in MODELS), fe_joint_form):
            assert_same_form(build(remembering).form(pi), build(fresh).form(pi))
        for row, single in zip(rows(loss_for(MODELS, remembering).form(pi)), MODELS):
            assert_same_form(row, loss_for(single, fresh).form(pi))


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
            try:
                want = fe_joint_scalar(l, pi, y)
            except SupportError:
                with pytest.raises(SupportError):
                    joint(pi, y)
            else:
                assert same_bits(joint(pi, y), want)


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


def test_at_probes_is_the_scalar_call_on_a_copy_composite():
    # a copy-composite's rows once kept its factors' strided layout, and the
    # scalar call summed a one-row view of them in another order than
    # ``at_probes`` summed a stacked copy: 6 of these 10 probes differed
    d, c, probes = next(mixed_pairs(rng_for(21), 12, 10))
    loss = loss_for(LossModel.KL, lens_compose(d, c))
    for (pi, y), got in zip(probes, loss.at_probes(probes), strict=True):
        assert same_bits(got, loss(pi, y))


def freed_at_del(build, pi, y) -> bool:
    """Whether the loss ``build()`` gives, read once at ``(pi, y)``, is
    freed when its last name is deleted."""
    loss = build()
    loss(pi, y)
    ref = weakref.ref(loss)
    del loss
    return ref() is None


def test_a_loss_is_freed_without_the_cyclic_collector():
    # a default reader that refers back to its loss (a bound method) makes
    # each loss a reference cycle, which keeps its exact lens's remembered
    # inversion alive until the cyclic collector runs
    rng = np.random.default_rng(5)
    X, M, Y = (ds.space([f"{p}{i}" for i in range(3)]) for p in "xmy")
    lens = exact_lens(random_kernel(rng, X, M, Y, False))
    gauss = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
    losses = [
        (lambda: loss_for(LossModel.KL, lens), ds.uniform(X), 0),
        (lambda: loss_for(MODELS, lens), ds.uniform(X), 1),
        (lambda: loss_for(LossModel.FE, gauss), GAUSSIAN.random_state(rng, 2), np.zeros(2)),
    ]
    gc.disable()
    try:
        for build, pi, y in losses:
            assert freed_at_del(build, pi, y)
    finally:
        gc.enable()


# -- the exact lens remembers its last prior ---------------------------------


@st.composite
def gauss_cases(draw):
    """A Gaussian forward channel (its coparameter possibly empty) and a
    prior on its domain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dx, dm, dy = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    return GAUSSIAN.random_channel(rng, dx, dm, dy), GAUSSIAN.random_state(rng, dx)


def same_channel(a, b) -> bool:
    """Two channels of one instance agree bitwise, spaces and sides included."""
    fields = ("rows",) if hasattr(a, "rows") else ("A", "b", "noise")
    return (
        type(a) is type(b)
        and backend_of(a).ends(a) == backend_of(b).ends(b)
        and a.copar_side == b.copar_side
        and all(getattr(a, f).shape == getattr(b, f).shape for f in fields)
        and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in fields)
    )


def copied(state):
    """A state equal in content to ``state`` but sharing no object with it."""
    if hasattr(state, "mass"):
        return ds.Dist(ds.FiniteSpace(tuple(map(tuple, state.space.factor_labels))), state.mass.copy())
    return gs.GaussState(state.mean.copy(), state.cov.copy())


def nudged(state):
    """``state`` with its first mass or mean entry moved by one ulp."""
    moved = (state.mass if hasattr(state, "mass") else state.mean).copy()
    moved[..., 0] = np.nextafter(moved[..., 0], 2.0)
    if hasattr(state, "mass"):
        return ds.Dist(state.space, moved)
    return gs.GaussState(moved, state.cov)


def test_a_failed_inversion_is_not_remembered():
    ch = gs.GaussChannel([[1.0]], [0.0], [[0.0]])  # noiseless
    l = exact_lens(ch)
    good = l.bwd(gs.GaussState([0.0], [[1.0]]))
    singular = gs.GaussState([0.0], [[0.0]])
    for _ in range(3):
        with pytest.raises(SingularityError):
            l.bwd(singular)
    assert l.bwd(gs.GaussState([0.0], [[1.0]])) is good


# -- a channel remembers its discard and its last pushforward ----------------


@contextlib.contextmanager
def counted(module, name):
    """The calls made to ``module.<name>`` while the block runs; the backends
    and ``gaussian`` reach it through the module at call time."""
    calls, orig = [], getattr(module, name)
    setattr(module, name, lambda *args: calls.append(args) or orig(*args))
    try:
        yield calls
    finally:
        setattr(module, name, orig)


def same_state(a, b) -> bool:
    """Two states of one instance agree bitwise, spaces included."""
    fields = ("mass",) if hasattr(a, "mass") else ("mean", "cov")
    return (
        type(a) is type(b)
        and getattr(a, "space", None) == getattr(b, "space", None)
        and all(getattr(a, f).shape == getattr(b, f).shape for f in fields)
        and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in fields)
    )


def raised(fn, *args) -> tuple:
    """The type and message of the error ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def assert_pushes_once(ch, prior, refused):
    """Two maps ``prior_pushforward(ch)`` share one push, over one
    remembered discard: a prior is pushed once until another prior comes,
    by either map, and bitwise as a fresh ``push(discard(ch), prior)``; each
    prior in ``refused`` raises the fresh push's error every time and is not
    remembered."""
    backend, module = backend_of(ch), gs if hasattr(ch, "A") else ds
    onto, also = prior_pushforward(ch), prior_pushforward(ch)
    assert discarded(ch) is discarded(ch)
    assert same_channel(discarded(ch), backend.discard(ch))

    def fresh(pi):
        return backend.push(backend.discard(ch), pi)

    moved = nudged(prior)
    want, want_moved, errors = fresh(prior), fresh(moved), [raised(fresh, pi) for pi in refused]
    with counted(module, "g_push" if module is gs else "push") as pushes:
        first = onto(prior)
        assert same_state(first, want)
        assert onto(copied(prior)) is first and also(copied(prior)) is first and len(pushes) == 1
        for pi, error in zip(refused, errors, strict=True):
            assert raised(onto, pi) == raised(also, pi) == error
        assert len(pushes) == 1 + 2 * len(refused)
        assert also(prior) is first
        again = also(moved)
        assert again is not first and same_state(again, want_moved)
        back = onto(prior)  # the one slot now holds the moved prior's pushforward
        assert back is not first and same_state(back, want)
        assert len(pushes) == 3 + 2 * len(refused)


@DETERMINISTIC
@given(cases())
def test_a_channel_remembers_its_discrete_pushforward(case):
    (l,), priors = case
    other = ds.space([f"other{i}" for i in range(l.fwd.dom.size)])
    assert_pushes_once(l.fwd, priors[0], [ds.Dist(other, priors[0].mass)])
    # a stack is its own key: a stack of one prior is not that prior
    onto, whole = prior_pushforward(l.fwd), stack(priors)
    single, one = onto(priors[0]), onto(stack(priors[:1]))
    assert one.mass.shape == (1,) + single.mass.shape
    assert one.mass[0].tobytes() == single.mass.tobytes()
    assert onto(priors[0]) is not single
    pushed = onto(whole)
    assert onto(stack(priors)) is pushed
    assert same_state(pushed, ds.push(ds.discard_coparam(l.fwd), whole))


@DETERMINISTIC
@given(gauss_cases())
def test_a_channel_remembers_its_gaussian_pushforward(case):
    ch, prior = case
    d = prior.dim
    refused = [
        gs.GaussState(np.stack([prior.mean] * 2), np.stack([prior.cov] * 2)),
        gs.GaussState(np.zeros(d + 1), np.eye(d + 1)),
    ]
    assert_pushes_once(ch, prior, refused)


@DETERMINISTIC
@given(gauss_cases())
def test_a_state_remembers_its_cholesky_factor(case):
    _, prior = case
    nll = loss_module._models(prior).nll
    p = gs.GaussState(prior.mean + 1.0, 2.0 * prior.cov)
    reads = [
        gs.g_entropy,
        lambda s: gs.g_logpdf(s, p.mean),
        lambda s: gs.g_kl(p, s),
        lambda s: np.concatenate([nll(s).H.ravel(), nll(s).g, [nll(s).c]]),
    ]
    want = [np.float64(read(copied(prior))).tobytes() for read in reads]
    with counted(gs, "_chol") as factors:
        assert [np.float64(read(prior)).tobytes() for read in reads] == want
        assert [np.float64(read(prior)).tobytes() for read in reads] == want
        assert len(factors) == 1
    singular = gs.GaussState(np.zeros(2), [[1.0, 0.0], [0.0, 0.0]])
    q = gs.GaussState(np.zeros(2), np.eye(2))
    with counted(gs, "_chol") as factors:
        for _ in range(2):
            assert raised(gs.g_kl, q, singular) == (SingularityError, "second covariance is singular")
            assert raised(gs.g_entropy, singular) == (SingularityError, "covariance is singular")
        assert len(factors) == 4


# -- every memo site: one slot keyed on content ------------------------------


def discrete_stages(rng, n):
    """``n`` exact discrete lenses run one after the other, on 3-state
    spaces with 2-point coparameters (deep-chain's shape)."""
    states = [ds.space([f"s{i}_{k}" for k in range(3)]) for i in range(n + 1)]
    return [
        exact_lens(random_kernel(rng, dom, ds.space([f"m{i}_0", f"m{i}_1"]), out, False))
        for i, (dom, out) in enumerate(zip(states, states[1:]))
    ]


def a_prior(rng, dom):
    mass = rng.gamma(1.0, size=dom.size) + 0.05
    return ds.Dist(dom, mass / mass.sum())


def elsewhere(pi):
    """The mass of ``pi`` on a space of other labels: no prior of its lens."""
    return ds.Dist(ds.space([f"other{i}" for i in range(pi.space.size)]), pi.mass)


def exact_site(rng):
    (l,) = discrete_stages(rng, 1)
    pi = a_prior(rng, l.fwd.dom)
    return l, l.bwd, pi, nudged(pi), elsewhere(pi)


def gaussian_exact_site(rng):
    l = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
    pi = GAUSSIAN.random_state(rng, 2)
    return l, l.bwd, pi, nudged(pi), gs.GaussState(np.zeros(3), np.eye(3))


def composite_site(rng):
    c, d = discrete_stages(rng, 2)
    l = lens_compose(d, c)
    pi = a_prior(rng, l.fwd.dom)
    return l, l.bwd, pi, nudged(pi), elsewhere(pi)


def tensored_lens(rng):
    c, d = discrete_stages(rng, 2)
    l = lens_tensor(c, d)
    return l, a_prior(rng, l.fwd.dom)


def tensored_site(rng):
    l, omega = tensored_lens(rng)
    return l, l.bwd, omega, nudged(omega), elsewhere(omega)


def split_site(rng):
    l, omega = tensored_lens(rng)
    return l, l.marginals, omega, nudged(omega), elsewhere(omega)


def perturbed_site(rng):
    (l,) = discrete_stages(rng, 1)
    l = perturbed_lens(rng, l.fwd)
    pi = a_prior(rng, l.fwd.dom)
    return l, l.bwd, pi, nudged(pi), elsewhere(pi)


def model_file_site(rng):
    # a table matches a prior within a tolerance, so the other prior is
    # another tabulated one, and the refused prior one the table lacks
    (l,) = discrete_stages(rng, 1)
    pi, other, missing = (a_prior(rng, l.fwd.dom) for _ in range(3))
    table = [
        {"prior": modelio.state_to_obj(p), "channel": modelio.channel_to_obj(exact_inversion(l.fwd, p))}
        for p in (pi, other)
    ]
    l = modelio.parse_lens(through_json({"fwd": modelio.channel_to_obj(l.fwd), "bwd": table}))
    return l, l.bwd, pi, other, missing


def pushforward_site(rng):
    (l,) = discrete_stages(rng, 1)
    pi = a_prior(rng, l.fwd.dom)
    return l.fwd, prior_pushforward(l.fwd), pi, nudged(pi), elsewhere(pi)


def gaussian_pushforward_site(rng):
    # a stack has no key: it goes to the push, which refuses it
    ch, pi = GAUSSIAN.random_channel(rng, 2, 1, 2), GAUSSIAN.random_state(rng, 2)
    refused = gs.GaussState(np.stack([pi.mean] * 2), np.stack([pi.cov] * 2))
    return ch, prior_pushforward(ch), pi, nudged(pi), refused


def composite_forward_site(rng):
    # a second composite of one pair has the first one's forward, and with
    # it that forward's inversion slot
    c, d = discrete_stages(rng, 2)
    first = lens_compose(d, c)
    l = lens_compose(d, c)
    assert l.fwd is first.fwd
    pi = a_prior(rng, l.fwd.dom)
    return c, l.inverse, pi, nudged(pi), elsewhere(pi)


#: each memo site: ``rng -> (owner, memo, prior, other prior, refused
#: prior)``, where dropping ``owner`` drops the memo
MEMO_SITES = {
    "exact": exact_site,
    "gaussian-exact": gaussian_exact_site,
    "composite": composite_site,
    "composite-forward": composite_forward_site,
    "tensored": tensored_site,
    "tensored-split": split_site,
    "perturbed": perturbed_site,
    "model-file": model_file_site,
    "pushforward": pushforward_site,
    "gaussian-pushforward": gaussian_pushforward_site,
}


def same_value(a, b) -> bool:
    """Two channels, states or tuples of states agree bitwise."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_value, a, b))
    return same_channel(a, b) if hasattr(a, "copar_side") else same_state(a, b)


def held(value) -> list:
    """``value``, or the states of a tuple of them (a tuple has no weak
    references)."""
    return list(value) if isinstance(value, tuple) else [value]


def memo_and_reads(site, seed) -> list:
    """Weak references to a site's owner, its memo and what the memo holds
    once read."""
    owner, memo, pi, _, _ = site(np.random.default_rng(seed))
    return [weakref.ref(obj) for obj in (owner, memo, *held(memo(pi)))]


@pytest.mark.parametrize("name", sorted(MEMO_SITES))
def test_every_memo_site_remembers_one_prior_by_content(name):
    site = MEMO_SITES[name]
    for seed in range(5):
        _, memo, pi, other, refused = site(np.random.default_rng(seed))
        calls, fn = [], memo.fn
        memo.fn = lambda state: calls.append(state) or fn(state)

        def fresh(state):
            return site(np.random.default_rng(seed))[1](state)

        # a bitwise equal prior returns the same object, bitwise a fresh read
        first = memo(pi)
        assert memo(copied(pi)) is first and len(calls) == 1
        assert same_value(first, fresh(pi))
        # a refused prior raises a fresh read's error each time and is not kept
        assert raised(memo, refused) == raised(memo, refused) == raised(fresh, refused)
        assert memo(pi) is first and len(calls) == 3
        # another prior takes the one slot
        assert same_value(memo(other), fresh(other))
        assert len(calls) == 4
        back = memo(pi)
        assert same_value(back, first) and len(calls) == 5
        if hasattr(pi, "mass"):  # a stack is its own key: a stack of one prior is not that prior
            one = stack([pi])
            assert same_value(memo(one), fresh(one))
            assert len(calls) == 6
    # a dropped owner is freed at once, with what its memo holds
    gc.disable()
    try:
        refs = memo_and_reads(site, 0)
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def lenses_on_one_forward(rng):
    """An exact lens, a lens on its forward whose family mixes the exact
    lens's channel with a fixed random kernel, and a prior."""
    (exact,) = discrete_stages(rng, 1)
    fwd = exact.fwd
    noise = random_kernel(rng, fwd.out, ds.unit_space(), fwd.dom.product(fwd.copar), False).rows

    def bwd(pi):
        rows = 0.7 * exact.bwd(pi).rows + 0.3 * noise
        return ds.CoparKernel(fwd.out, fwd.copar, fwd.dom, rows, "right")

    return exact, BayesLens(fwd, bwd), a_prior(rng, fwd.dom)


def test_lenses_on_one_forward_share_one_inversion():
    # the exact inversion is a slot of the forward, not of a lens: an exact
    # lens, a perturbed lens and a replace of either invert one prior once
    # between them, and the KL and FE losses of both read it
    exact, perturbed, pi = lenses_on_one_forward(np.random.default_rng(17))
    with counted(ds, "bayes_invert") as calls:
        back = perturbed.inverse(pi)
        assert exact.bwd(pi) is back and dataclasses.replace(exact).bwd(pi) is back
        assert dataclasses.replace(perturbed).inverse(pi) is back
        assert not perturbed.exact and dataclasses.replace(exact).exact
        for model in (LossModel.KL, LossModel.FE):
            for lens in (exact, perturbed):
                loss_for(model, lens)(pi, 0)
    assert len(calls) == 1
    # the forward's slot goes with the forward, and pickles with it
    clone = pickle.loads(pickle.dumps(exact))
    assert clone.exact and same_channel(clone.bwd(pi), back)
    assert same_channel(exact_inversion(clone.fwd, pi), back)
    gc.disable()
    try:
        exact, perturbed, pi = lenses_on_one_forward(np.random.default_rng(17))
        kept = [exact, perturbed, exact.fwd, exact.bwd(pi), perturbed.bwd(pi)]
        refs = [weakref.ref(obj) for obj in kept]
        del exact, perturbed, kept
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_composite_builds_its_backward_channel_once_per_prior():
    # a depth-7 chain read as the deep-chain benchmark reads it: the direct
    # KL and FE losses read the composite backward at one prior for every
    # observation, so 6 forward and 6 backward copy-compositions, where a
    # composite that remembers nothing made 6 + 36
    rng = np.random.default_rng(7)
    stages = discrete_stages(rng, 7)
    pi = a_prior(rng, stages[0].fwd.dom)
    with counted(ds, "copy_compose_copar") as calls:
        composites = [stages[0]]
        for stage in stages[1:]:
            composites.append(lens_compose(stage, composites[-1]))
        for model in MODELS:
            folded = loss_for(model, stages[0])
            for stage, before in zip(stages[1:], composites):
                folded = loss_compose(loss_for(model, stage), folded, stage, before)
            direct = loss_for(model, composites[-1])
            for z in range(3):
                folded(pi, z) - direct(pi, z)
    assert len(calls) == 12


def test_a_composite_inverts_its_forward_once_per_prior():
    # the direct KL and FE losses of a depth-7 chain, read at one prior for
    # every observation, compare the composite backward with the remembered
    # inversion of the composite forward; a form that inverted at every call
    # made 6
    rng = np.random.default_rng(7)
    stages = discrete_stages(rng, 7)
    pi = a_prior(rng, stages[0].fwd.dom)
    composite = stages[0]
    for stage in stages[1:]:
        composite = lens_compose(stage, composite)
    direct = [loss_for(model, composite) for model in (LossModel.KL, LossModel.FE)]
    with counted(ds, "bayes_invert") as calls:
        for loss in direct:
            for z in range(3):
                loss(pi, z)
    assert [args[0] is composite.fwd for args in calls].count(True) == 1


def endomorphisms(rng, n):
    """``n`` exact discrete lenses on one 3-state space, with 2-point
    coparameters."""
    X, M = ds.space(["x0", "x1", "x2"]), ds.space(["m0", "m1"])
    return [exact_lens(random_kernel(rng, X, M, X, False)) for _ in range(n)]


def test_a_copy_composite_is_remembered_by_the_identity_of_its_pair():
    # the key is which two channels compose, not their content: a content
    # equal but distinct channel misses and takes the one slot, a refused
    # composition is not kept, and two endomorphisms keep one composite
    # in each order
    rng = np.random.default_rng(19)
    c, d = discrete_stages(rng, 2)
    pi = a_prior(rng, c.fwd.dom)
    with counted(ds, "copy_compose_copar") as calls:
        l = lens_compose(d, c)
        back = l.bwd(pi)
        again = lens_compose(d, c)
        assert again.fwd is l.fwd and again.bwd(copied(pi)) is back and len(calls) == 2
        twin = lens_compose(BayesLens(dataclasses.replace(d.fwd)), c)
        assert twin.fwd is not l.fwd and same_channel(twin.fwd, l.fwd) and len(calls) == 3
        moved = lens_compose(d, c).fwd
        assert moved is not l.fwd and same_channel(moved, l.fwd) and len(calls) == 4
        assert raised(lens_compose, c, c) == raised(lens_compose, c, c)
        assert lens_compose(d, c).fwd is moved and len(calls) == 6
        a, b = endomorphisms(rng, 2)
        ab, ba = lens_compose(a, b).fwd, lens_compose(b, a).fwd
        assert lens_compose(a, b).fwd is ab and lens_compose(b, a).fwd is ba and len(calls) == 8
    assert same_channel(ab, ds.copy_compose_copar(a.fwd, b.fwd))
    assert same_channel(ba, ds.copy_compose_copar(b.fwd, a.fwd))


def composed_and_read(rng) -> list:
    """Weak references to exact lenses, among them two endomorphisms, to
    their composites in both orders and to what those remember once read."""
    lenses = [*discrete_stages(rng, 2), *endomorphisms(rng, 2)]
    c, d, a, b = lenses
    kept = list(lenses)
    for second, first in ((d, c), (a, b), (b, a), (a, a)):
        for l in (lens_compose(second, first), lens_compose(second, first)):
            pi = a_prior(rng, l.fwd.dom)
            kept += [l, l.fwd, l.bwd(pi), l.inverse(pi), discarded(l.fwd)]
    return [weakref.ref(obj) for obj in kept]


def test_composites_and_their_pairs_are_freed_without_the_cyclic_collector():
    # each channel of a pair keeps the composite, which refers to neither
    gc.disable()
    try:
        refs = composed_and_read(np.random.default_rng(29))
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_copy_composed_channel_still_pickles():
    # a clone's slots hold a clone of the composite, with the originals'
    # ids: a clone misses, alone or pickled with its partner, and composes
    # bitwise equal
    rng = np.random.default_rng(31)
    gaussian = [exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2)) for _ in range(2)]
    for c, d in (discrete_stages(rng, 2), gaussian):
        pi = a_prior(rng, c.fwd.dom) if hasattr(c.fwd, "rows") else GAUSSIAN.random_state(rng, 2)
        l = lens_compose(d, c)
        back = l.bwd(pi)
        one = pickle.loads(pickle.dumps(c.fwd))
        both = pickle.loads(pickle.dumps((c.fwd, d.fwd)))
        for first, second in ((one, d.fwd), both):
            pickled = first.__dict__["_then"][1]
            clone = lens_compose(BayesLens(second), BayesLens(first))
            assert pickled is not l.fwd and clone.fwd is not pickled
            assert same_channel(clone.fwd, l.fwd) and same_channel(clone.bwd(pi), back)


@pytest.mark.parametrize("model", [LossModel.KL, LossModel.FE, MODELS], ids=["kl", "fe", "models"])
def test_a_non_exact_second_stage_inverts_once_per_prior(model):
    # a composed loss reads the second stage's backward channel and its form
    # reads it again: one evaluation of a non-exact family per prior, and one
    # remembered inversion for its KL term; 6 calls when the KL term
    # inverted at every form call, 8 when the family remembered nothing and
    # the channel was handed to the form
    rng = np.random.default_rng(11)
    X, M, Y, N, Z = (ds.space([f"{p}{i}" for i in range(3)]) for p in "xmynz")
    c = exact_lens(random_kernel(rng, X, M, Y, False))
    d = perturbed_lens(rng, random_kernel(rng, Y, N, Z, False))
    pi = a_prior(rng, X)
    loss = loss_compose(loss_for(model, d), loss_for(model, c), d, c)
    with counted(ds, "bayes_invert") as calls:
        for z in range(3):
            loss(pi, z)
        loss.at_probes([(pi, z) for z in range(3)])
    assert len(calls) == 4


@pytest.mark.parametrize("family", ["exact", "composite", "tensored"])
def test_a_gaussian_stack_is_refused_by_every_family(family):
    rng = np.random.default_rng(13)
    c, d = (exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2)) for _ in range(2))
    l = {"exact": c, "composite": lens_compose(d, c), "tensored": lens_tensor(c, d)}[family]
    dim = l.fwd.dom_dim
    pi = GAUSSIAN.random_state(rng, dim)
    for _ in range(2):
        with pytest.raises(ShapeError):
            l.bwd(gs.GaussState(np.stack([pi.mean] * 2), np.stack([pi.cov] * 2)))
    assert same_channel(l.bwd(pi), BayesLens(l.fwd, l.bwd.fn).bwd(pi))


def remembered(ch, pi) -> list:
    """Weak references to ``ch``, to its exact lens's inversion at ``pi``,
    and to all they remember once read."""
    back = exact_lens(ch).bwd(pi)
    onto = prior_pushforward(ch)
    pushed = onto(pi)
    if hasattr(pushed, "cov"):
        gs.g_entropy(pushed)
    return [weakref.ref(obj) for obj in (ch, discarded(ch), onto, pushed, back, discarded(back))]


def channels_and_priors():
    """A discrete and a Gaussian channel, each with a prior on its domain."""
    rng = np.random.default_rng(5)
    X, M, Y = (ds.space([f"{p}{i}" for i in range(3)]) for p in "xmy")
    return [
        (random_kernel(rng, X, M, Y, False), ds.uniform(X)),
        (GAUSSIAN.random_channel(rng, 2, 1, 2), GAUSSIAN.random_state(rng, 2)),
    ]


def test_a_channel_and_what_it_remembers_are_freed_without_the_cyclic_collector():
    # a channel's remembered map refers to its discard, never back to the
    # channel, so nothing it keeps waits for the cyclic collector
    made = channels_and_priors()
    gc.disable()
    try:
        while made:
            refs = remembered(*made.pop())
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_channel_and_a_state_that_remember_still_pickle():
    for ch, pi in channels_and_priors():
        pushed = prior_pushforward(ch)(pi)
        if hasattr(pi, "cov"):
            gs.g_entropy(pi)
        clone, prior = pickle.loads(pickle.dumps((ch, pi)))
        assert same_channel(clone, ch) and same_state(prior, pi)
        assert same_state(prior_pushforward(clone)(prior), pushed)


# -- the inversion's blocks are copied, not recomputed -------------------------


def block_invert(c, prior):
    """``gaussian.g_invert`` with its blocks assembled by ``np.block`` and
    ``np.vstack``."""
    dm = c.copar_dim
    mean_cod = c.A @ prior.mean + c.b
    cov_x_cod = prior.cov @ c.A.T
    cov_cod = c.A @ prior.cov @ c.A.T + c.noise
    mean_z = np.concatenate([prior.mean, mean_cod[:dm]])
    cov_zz = np.block([[prior.cov, cov_x_cod[:, :dm]], [cov_x_cod[:, :dm].T, cov_cod[:dm, :dm]]])
    cov_zy = np.vstack([cov_x_cod[:, dm:], cov_cod[:dm, dm:]])
    gain = np.linalg.solve(cov_cod[dm:, dm:], cov_zy.T).T
    post_cov = cov_zz - gain @ cov_zy.T
    return gs.GaussChannel(gain, mean_z - gain @ mean_cod[dm:], post_cov, dm, "right")


@DETERMINISTIC
@given(gauss_cases())
def test_g_invert_is_the_block_assembly(case):
    ch, prior = case
    assert same_channel(gs.g_invert(ch, prior), block_invert(ch, prior))


# -- model files ---------------------------------------------------------------


# -- stacked Gaussian states -------------------------------------------------


#: kinds of stack entry: a valid covariance, one with an exactly singular
#: last coordinate, one with a roundoff-scale negative eigenvalue (clamped);
#: then entries each check refuses
VALID_KINDS = ("regular", "singular", "roundoff")
INVALID_KINDS = ("negative", "asymmetric", "nan covariance", "inf mean")


def gauss_entry(rng, d, kind):
    """A mean and a covariance of dimension ``d`` of the given kind."""
    mean = rng.uniform(-2.0, 2.0, size=d)
    l = rng.uniform(-1.0, 1.0, size=(d, d))
    cov = l @ l.T + 0.1 * np.eye(d)
    if kind in ("singular", "roundoff", "negative"):
        cov[-1, :] = cov[:, -1] = 0.0
        cov[-1, -1] = {"singular": 0.0, "roundoff": -0.5 * gs.PSD_CLAMP, "negative": -1e-3}[kind]
    elif kind == "asymmetric":
        cov[0, -1] += 1e-3 if d > 1 else -2.0  # a 1x1 entry is symmetric: make it negative
    elif kind == "nan covariance":
        cov[-1, 0] = math.nan
    elif kind == "inf mean":
        mean[-1] = math.inf
    return mean, cov


@st.composite
def gauss_stacks(draw, kinds):
    """``(kinds, means, covs)``: a stack of 1 to 4 entries of one dimension
    from 1 to 3, each of a kind drawn from ``kinds``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    means, covs = zip(*(gauss_entry(rng, d, kind) for kind in chosen))
    return chosen, np.array(means), np.array(covs)


@DETERMINISTIC
@given(gauss_stacks(VALID_KINDS), st.sampled_from(("regular", "singular")), st.integers(0, 2**32 - 1))
def test_g_kl_of_a_stack_is_each_entrys_call(case, q_kind, seed):
    kinds, means, covs = case
    q = gs.GaussState(*gauss_entry(np.random.default_rng(seed), means.shape[1], q_kind))
    singles = [gs.GaussState(m, c) for m, c in zip(means, covs)]
    p = gs.GaussState(means, covs)
    if q_kind == "singular":
        with pytest.raises(SingularityError):
            gs.g_kl(p, q)
        for single in singles:
            with pytest.raises(SingularityError):
                gs.g_kl(single, q)
        return
    got = gs.g_kl(p, q)
    assert got.shape == (len(kinds),)
    for kind, single, value in zip(kinds, singles, got, strict=True):
        want = gs.g_kl(single, q)
        assert isinstance(want, float) and same_bits(value, want)
        if kind != "roundoff":  # a clamped entry may be singular or not
            assert (value == math.inf) == (kind == "singular")


@DETERMINISTIC
@given(gauss_stacks(VALID_KINDS + INVALID_KINDS))
def test_a_stack_is_checked_as_its_entries_are(case):
    _, means, covs = case
    singles = []
    for m, c in zip(means, covs):
        try:
            singles.append(gs.GaussState(m, c))
        except ShapeError:
            singles.append(None)
    if all(singles):
        stacked = gs.GaussState(means, covs)
        for i, single in enumerate(singles):
            assert stacked.mean[i].tobytes() == single.mean.tobytes()
            assert stacked.cov[i].tobytes() == single.cov.tobytes()
        return
    with pytest.raises(ShapeError, match=r"of stack entry \((\d+),\)") as raised:
        gs.GaussState(means, covs)
    named = int(raised.value.args[0].split("stack entry (")[1].split(",")[0])
    assert singles[named] is None


def through_json(obj):
    return json.loads(json.dumps(obj))


@DETERMINISTIC
@given(cases(n_lenses=2))
def test_discrete_model_objects_round_trip(case):
    # a composite's and a tensor's spaces are products, which keep their factors
    (c, d), priors = case
    composite, tensored = lens_compose(d, c).fwd, lens_tensor(c, d).fwd
    channels = [c.fwd, composite, tensored]
    channels += [exact_inversion(ch, ds.uniform(ch.dom)) for ch in channels]
    for ch in channels:
        assert same_channel(modelio.parse_channel(through_json(modelio.channel_to_obj(ch))), ch)
    for pi in [*priors, ds.tensor_dist(priors[0], ds.uniform(d.fwd.dom))]:
        again = modelio.parse_state(through_json(modelio.state_to_obj(pi)))
        assert again.space == pi.space and again.mass.tobytes() == pi.mass.tobytes()


@DETERMINISTIC
@given(gauss_cases())
def test_gaussian_model_objects_round_trip(case):
    ch, prior = case
    for c in (ch, gs.g_invert(ch, prior)):
        assert same_channel(modelio.parse_channel(through_json(modelio.channel_to_obj(c))), c)
    again = modelio.parse_state(through_json(modelio.state_to_obj(prior)))
    assert again.mean.tobytes() == prior.mean.tobytes() and again.cov.tobytes() == prior.cov.tobytes()


#: valid model files: the lens bundles (with the observation ``eval-loss``
#: reads) and the priors
DISCRETE_FWD = {"dom": ["x0", "x1"], "copar": ["m0", "m1"], "cod": ["y0", "y1"],
                "rows": [[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]]}
DISCRETE_PRIOR = {"space": ["x0", "x1"], "mass": [0.4, 0.6]}
DISCRETE_BACK = {"dom": ["y0", "y1"], "cod": ["x0", "x1"], "copar": ["m0", "m1"],
                 "copar_side": "right", "rows": [[0.25] * 4, [0.25] * 4]}
GAUSS_FWD = {"A": [[1.0, 0.5], [0.2, 1.0], [0.3, -0.4]], "b": [0.0, 0.1, 0.2],
             "noise": [[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]], "copar_dim": 1}
GAUSS_PRIOR = {"mean": [0.0, 0.5], "cov": [[1.0, 0.2], [0.2, 1.0]]}
MODEL_FILES = {
    "discrete": ({"fwd": DISCRETE_FWD, "bwd": "exact"}, DISCRETE_PRIOR, "1"),
    "tabulated": (
        {"fwd": DISCRETE_FWD, "bwd": [{"prior": DISCRETE_PRIOR, "channel": DISCRETE_BACK}]},
        DISCRETE_PRIOR,
        "0",
    ),
    "gaussian": ({"fwd": GAUSS_FWD, "bwd": "exact"}, GAUSS_PRIOR, "[0.3, -0.2]"),
}
#: the required fields, by the key that marks their object
REQUIRED = {"fwd": ("fwd",), "dom": ("dom", "cod", "rows"), "space": ("space", "mass"),
            "A": ("A", "b", "noise"), "mean": ("mean", "cov"), "prior": ("prior", "channel")}
#: values no required numeric field accepts (``copar_dim`` and ``bwd``
#: included), and those no list of labels accepts (labels may be numbers)
WRONG = [None, True, "x", {}, [], 3.5, [1, "a"], [[0.5, 0.5], [1.0]], float("nan"), float("inf")]
WRONG_LABELS = [None, True, "x", {}, [], 3.5, float("nan")]
LABELS = {"dom", "cod", "space"}


def objects(obj):
    """Every JSON object in ``obj``, ``obj`` included."""
    if isinstance(obj, dict):
        yield obj
    for v in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
        yield from objects(v)


@st.composite
def malformed(draw):
    """``(which, model, prior, obs)``: one of ``MODEL_FILES`` with one
    required field of its model or its prior dropped or given a wrong
    value, or with ``copar_dim`` or ``bwd`` given a wrong value."""
    which = draw(st.sampled_from(sorted(MODEL_FILES)))
    model, prior, obs = copy.deepcopy(MODEL_FILES[which])
    files = draw(st.sampled_from([model, prior]))
    sites = [
        (obj, key)
        for obj in objects(files)
        for key in [k for mark, keys in REQUIRED.items() if mark in obj for k in keys]
        + [k for k in ("copar_dim", "bwd") if k in obj]
    ]
    obj, key = draw(st.sampled_from(sites))
    if key in ("copar_dim", "bwd") or draw(st.booleans()):
        obj[key] = draw(st.sampled_from(WRONG_LABELS if key in LABELS else WRONG))
    else:
        del obj[key]
    return which, model, prior, obs


def run_cli(argv):
    """``statgames`` in this process: its exit code and its standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def assert_one_error_line(rc, err):
    assert rc == 2
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@DETERMINISTIC
@given(malformed())
def test_a_malformed_model_file_is_one_error_line(case):
    which, model, prior, obs = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("model", model), ("prior", prior)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)
        loss = ["eval-loss", "--model", paths["model"], "--prior", paths["prior"], "--obs", obs]
        assert_one_error_line(*run_cli([*loss, "--loss", "fe"]))
        for path in paths.values():
            with open(path) as fh:
                intact = json.load(fh) in (MODEL_FILES[which][0], MODEL_FILES[which][1])
            if not intact:
                assert_one_error_line(*run_cli(["inspect", "--model", path]))


@pytest.mark.parametrize("text", ["", "{", "[1, 2]", '"fwd"', "null", '{"fwd": {}}', '{"neither": 1}'])
def test_a_model_file_that_is_no_model_is_one_error_line(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(DISCRETE_PRIOR))
    assert_one_error_line(*run_cli(["inspect", "--model", str(path)]))
    loss = ["eval-loss", "--model", str(path), "--prior", str(prior), "--obs", "0", "--loss", "kl"]
    assert_one_error_line(*run_cli(loss))


def test_an_empty_backward_table_is_one_error_line(tmp_path):
    # a table of no priors tabulates a backward channel nowhere
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"fwd": DISCRETE_FWD, "bwd": []}))
    rc, err = run_cli(["inspect", "--model", str(path)])
    assert_one_error_line(rc, err)
    assert err.startswith("parse error: 'bwd' must be")
