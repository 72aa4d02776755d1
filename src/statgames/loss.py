"""Loss functions for Bayesian lenses and the four loss models.

A loss function is a state-dependent effect: it maps a prior on the lens's
domain and an observation in its codomain to an extended nonnegative real.
The four models measure different aspects of an approximate inference
system:

* ``KL``   -- divergence from the lens's backward posterior to the exact one;
* ``MLE``  -- negative log-density of the observation under the prior
  pushforward (code length of the data);
* ``FE``   -- their sum, the variational free energy; unlike its summands it
  admits a marginalization-free form and an energy/entropy split;
* ``LFE``  -- the free energy with the expected energy replaced by the energy
  at the posterior mean, valid for Gaussian lenses with small posterior
  covariance (the Laplace regime).

Losses compose along lens composition: the second stage's loss is reindexed
by the first forward, plus the expected first-stage loss under the second
stage's backward channel.  Under tensoring each model is only lax, and the
defect (its laxator) has a closed form measuring the prior correlations
that the tensored backward ignores.  A laxator is itself a loss, on the
tensored lens's joint priors and joint observations, so laxators compose
with ``loss_compose`` like any other loss; unlike the four models, it is
signed.

A loss is its form.  A ``LossFn`` is built from its spaces and its
``form``: the loss at one prior, computed once and read by composition and
by ``LossFn.at_probes``, whose one-probe case is the scalar call; no loss
is evaluated any other way.  A form is a ``VecForm`` (a discrete loss over
its observations) or a ``QuadForm`` (a Gaussian loss, a quadratic
``c + g.y + y.H.y / 2`` in the observation); each kind has ``+`` and
``average`` under a backward channel, so ``loss_compose`` is written once, in closed
form: a matrix-vector product for vectors, the Gaussian expectation of a
quadratic for quadratics.  The MLE model and the laxators are written once
over forms; each instance's half of the models, picked once through the
lens's backend, supplies the KL, Laplace and joint free-energy forms and
the primitives they use (``nll``, the negative log-density of a state as a
form).

Every lens remembers its last prior and that prior's backward channel, so
the terms of a law that need one lens's channel at one prior share it: a
Gaussian pair's KL witness makes three inversions (each stage at its prior,
the composite's forward at the prior), its MLE witness one, and its KL, MLE
and FE witnesses and its buco residual five in all; a composite or tensored
lens builds its backward channel once for all the models read at one prior.
The KL loss reads the remembered inversion of the lens's forward
(``BayesLens.inverse``), which every lens on that forward shares, and that
of an exact lens inverts nothing.  Likewise a prior is pushed
through a channel once, and a channel is discarded once
(``lens.prior_pushforward``, ``lens.discarded``).

On the discrete instance a form also takes a stack of priors (a ``Dist``
whose ``mass`` is ``(P, n)``) and returns a ``VecForm`` with the same
leading axis, so ``at_probes`` evaluates a loss at many probes in one form
call; only the discrete instance batches.  In the same way a tuple of
models gives one discrete loss (``loss_for``) or laxator (``laxator_loss``)
whose form has a leading model axis, one row per model, so the KL, MLE and
FE values share one form call and its inversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .backend import DISCRETE, GAUSSIAN, backend_of
from .errors import InstanceError, ShapeError, SingularityError, SupportError
from .lens import BayesLens, discarded, lens_tensor, prior_pushforward, reindex

__all__ = [
    "LossFn",
    "LossModel",
    "VecForm",
    "QuadForm",
    "loss_for",
    "kl_loss",
    "mle_loss",
    "fe_loss",
    "fe_joint_form",
    "energy_entropy_decomp",
    "lfe_loss",
    "laplace_sigma",
    "loss_compose",
    "zero_loss",
    "laxator",
    "laxator_loss",
]


class LossModel(Enum):
    KL = "kl"
    MLE = "mle"
    FE = "fe"
    LFE = "lfe"


#: selects every observation in a loss's vector form; a selector may also be
#: another slice, a list of observations, or a ``(P, k)`` array of each
#: stacked prior's own
ALL = slice(None)


def _pick(a: np.ndarray, sel, rows: bool = False) -> np.ndarray:
    """The entries of ``a`` that ``sel`` picks, along its last axis (or,
    with ``rows``, the rows of a channel's ``rows``)."""
    if not isinstance(sel, np.ndarray):
        return a[..., sel, :] if rows else a[..., sel]
    if a.ndim == 2 + rows:  # a stack: each prior's own entries
        return a[np.arange(len(sel))[:, None], sel]
    return a[sel]


# ---------------------------------------------------------------------------
# forms: a loss at one prior
# ---------------------------------------------------------------------------


def _undefined(label) -> SupportError:
    return SupportError(
        f"the loss is undefined at observation {label!r}: it has zero "
        "probability (or, in a composite, an observation it weights has)"
    )


class VecForm(NamedTuple):
    """A discrete loss at one prior, over the observations a selector
    picked: ``values[i]`` is the loss at the ``i``-th of them wherever
    ``defined[i]`` holds (``values[p, i]`` at prior ``p`` of a stack).
    Values are signed and may be ``+inf``."""

    values: np.ndarray
    defined: np.ndarray

    def __add__(self, other: "VecForm") -> "VecForm":
        return VecForm(self.values + other.values, self.defined & other.defined)

    def __sub__(self, other: "VecForm") -> "VecForm":
        """The difference, undefined where it is ``inf - inf``."""
        with np.errstate(invalid="ignore"):
            values = self.values - other.values
        return VecForm(values, self.defined & other.defined & ~np.isnan(values))

    def average(self, back, sel=ALL) -> "VecForm":
        """The expectation under the rows ``sel`` of the discrete channel
        ``back``.  Scanning a row's weighted entries in order, the first
        that is undefined or infinite decides: an undefined one leaves the
        average undefined, an infinite one makes it ``+inf``."""
        # contiguous, as the stacked rows ``at_probes`` picks are: numpy sums a
        # strided row (an inversion's, with a one-point factor) in another order
        weights = np.ascontiguousarray(_pick(back.rows, sel, rows=True))
        out = ds.rows_expectation(np.where(self.defined, self.values, 0.0), weights)
        ok = self.defined & np.isfinite(self.values)
        bad = (weights > 0) & ~ok[..., None, :]
        first = bad.argmax(axis=-1)[..., None]
        defined_at = np.broadcast_to(self.defined[..., None, :], bad.shape)
        defined = ~bad.any(axis=-1) | np.take_along_axis(defined_at, first, axis=-1)[..., 0]
        return VecForm(out, defined)


class QuadForm(NamedTuple):
    """A Gaussian loss at one prior as a quadratic in the observation,
    ``L(y) = c + g.y + y.H.y / 2`` (``c`` is ``+inf`` where the loss is)."""

    H: np.ndarray
    g: np.ndarray
    c: float

    def at(self, y) -> float:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.size != self.g.size:
            raise ShapeError(f"observation has dimension {y.size}, expected {self.g.size}")
        return float(self.c + self.g @ y + 0.5 * (y @ self.H @ y))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.H + other.H, self.g + other.g, self.c + other.c)

    def __sub__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.H - other.H, self.g - other.g, self.c - other.c)

    def average(self, back, sel=ALL) -> "QuadForm":
        """The expectation under the Gaussian channel ``back``, ``z -> N(B z
        + beta, S)``: the form ``(B'HB, B'(H beta + g), c + g.beta + beta'H
        beta / 2 + tr(H S) / 2)`` in ``z``."""
        B, beta = back.A, back.b
        h_beta = self.H @ beta
        at_mean = self.c + self.g @ beta + 0.5 * float(beta @ h_beta)
        return QuadForm(
            B.T @ self.H @ B,
            B.T @ (h_beta + self.g),
            gs.gauss_expect_quadratic(at_mean, self.H, back.noise),
        )


@dataclass(frozen=True, eq=False)
class LossFn:
    """A deterministic map ``(prior, observation) -> [0, +inf]`` (signed for a laxator).

    ``prior_dom`` and ``obs_dom`` are a finite space (discrete) or a
    dimension (Gaussian); they make composability checkable.

    ``form(prior, sel=ALL)`` is the loss at one prior (or a discrete
    stack): a ``VecForm`` over the observations ``sel`` indexes, or a
    ``QuadForm``, which ignores ``sel``.  Every loss is given by its form,
    and composition works on forms.

    ``at_probes(probes)`` reads the loss at probes ``(prior, observation)``;
    the scalar call ``fn(prior, obs)`` is its one-probe case, raising the
    error it gives.  ``fn`` stays a field only so that a tracer can swap in
    a wrapped reader with ``dataclasses.replace``; nothing here sets it.
    """

    prior_dom: object
    obs_dom: object
    form: Callable
    fn: Callable | None = None

    def __post_init__(self):
        if self.fn is None:
            object.__setattr__(self, "fn", _one_probe(self.form, self.obs_dom))

    def __call__(self, prior, obs):
        """The loss at one prior and observation: a float, or a tuple of
        floats for a loss of several models."""
        value = self.fn(prior, obs)
        return value if isinstance(value, tuple) else float(value)

    def at_probes(self, probes) -> list:
        """The loss at each probe ``(prior, observation)``: a float, or the
        ``SupportError`` or ``SingularityError`` its form raises or leaves
        undefined there; a loss of several models gives one such list per
        model.  It reads ``form`` and never calls ``fn``."""
        return _models(self.obs_dom).at_probes(self.form, self.obs_dom, list(probes))

    def reindex(self, ch) -> "LossFn":
        """Pre-compose the prior argument with a forward channel."""
        return LossFn(backend_of(ch).doms(ch)[0], self.obs_dom, reindex(self.form, ch))


def _one_probe(form, obs_dom):
    """The default scalar call: ``at_probes`` at the one probe, raising its
    error.  A closure over the form, not a method of the loss, so that a
    loss holds no reference to itself and is freed, with any inversion its
    lens remembers, as soon as it is dropped."""
    at_probes = _models(obs_dom).at_probes

    def fn(pi, y):
        out = at_probes(form, obs_dom, [(pi, y)])
        several = isinstance(out[0], list)
        values = [row[0] for row in out] if several else out
        if errors := [v for v in values if isinstance(v, Exception)]:
            raise errors[0]
        return tuple(values) if several else values[0]

    return fn


def _loss_sum(a: LossFn, b: LossFn) -> LossFn:
    """The pointwise sum of two losses on the same spaces."""

    def form(pi, sel=ALL):
        return a.form(pi, sel) + b.form(pi, sel)

    return LossFn(a.prior_dom, a.obs_dom, form)


def zero_loss(l: BayesLens) -> LossFn:
    prior_dom, obs_dom = l.backend.doms(l.fwd)
    return LossFn(prior_dom, obs_dom, _models(obs_dom).zero(obs_dom))


def _half_square(chol, M, r) -> QuadForm:
    """The form of ``y -> |chol^-1 (M y + r)|^2 / 2``, for a Cholesky
    factor ``chol`` of the covariance whose precision weighs the residual."""
    W = np.linalg.solve(chol, M)
    u = np.linalg.solve(chol, r)
    return QuadForm(W.T @ W, W.T @ u, 0.5 * float(u @ u))


def _logdet(chol) -> float:
    return 2.0 * float(np.log(np.diag(chol)).sum())


# ---------------------------------------------------------------------------
# the four models
# ---------------------------------------------------------------------------


def kl_loss(l: BayesLens) -> LossFn:
    """Divergence from the lens's posterior to the exact posterior."""
    return LossFn(*l.backend.doms(l.fwd), _models(l.fwd).kl(l))


def mle_loss(l: BayesLens) -> LossFn:
    """Negative log-density of the observation under the prior pushforward.

    Zero-probability observations give ``+inf`` (a value, not an error).
    """
    nll, onto = _models(l.fwd).nll, prior_pushforward(l.fwd)
    return LossFn(*l.backend.doms(l.fwd), lambda pi, sel=ALL: nll(onto(pi), sel))


def fe_loss(l: BayesLens) -> LossFn:
    """Free energy: divergence-to-exact plus observation code length."""
    return _loss_sum(kl_loss(l), mle_loss(l))


def fe_joint_form(l: BayesLens) -> LossFn:
    """Free energy computed without the pushforward marginalization:
    divergence of the posterior from (prior tensor flat), minus the expected
    joint log-density.  Agrees with ``fe_loss`` wherever both are finite,
    and shares none of its arithmetic."""
    return LossFn(*l.backend.doms(l.fwd), _models(l.fwd).fe_joint(l))


def energy_entropy_decomp(l: BayesLens, pi, y) -> tuple[float, float]:
    """(expected energy, posterior entropy) whose difference is the free
    energy: the thermodynamic split."""
    return _models(pi).energy_entropy(l, pi, y)


def lfe_loss(l: BayesLens) -> LossFn:
    """Laplacian free energy: energy at the posterior mean minus posterior
    entropy.  Gaussian lenses only."""
    return LossFn(*l.backend.doms(l.fwd), _models(l.fwd).lfe(l))


def laplace_sigma(l: BayesLens, pi, y) -> np.ndarray:
    """Inverse Hessian of the energy in ``(x, m)`` at the posterior mean.

    For affine-Gaussian models the Hessian is constant and this equals the
    exact posterior covariance, which is what makes the Laplace model exact
    there."""
    return _models(l.fwd).laplace_sigma(l, pi)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def loss_compose(Ld: LossFn, Lc: LossFn, d: BayesLens, c: BayesLens) -> LossFn:
    """Loss of a composite game: the second loss at the pushed prior, plus
    the first loss averaged over the second's backward channel.

    Losses compose in their forms, so a composite costs one form of each
    stage per prior: a discrete first loss is evaluated once for every
    observation it is averaged over, and a Gaussian quadratic is averaged in
    closed form."""
    mid = prior_pushforward(c.fwd)

    def form(pi, sel=ALL):
        mid_prior = mid(pi)
        back = d.bwd(mid_prior)  # remembered, so ``Ld``'s form reads it too
        return Ld.form(mid_prior, sel) + Lc.form(pi).average(discarded(back), sel)

    return LossFn(Lc.prior_dom, Ld.obs_dom, form)


def _select(model, models):
    """The map from each model's form to the form of ``model``: that model's
    own form, or for a tuple of models their forms on a leading model axis
    (discrete forms only: a Gaussian tuple raises ``InstanceError``)."""
    if isinstance(model, LossModel):
        return lambda terms: terms[model]
    return models.stacker(model)


def loss_for(model, l: BayesLens) -> LossFn:
    """The loss of ``model`` on ``l``.  A tuple of models gives one loss
    whose form has a leading model axis, one row per model in that order;
    its scalar call is the tuple of the models' values.  Each model's form
    is computed once per prior, and the FE row is the KL row plus the MLE
    row, as ``fe_loss`` adds them."""
    if isinstance(model, LossModel):
        builder = {
            LossModel.KL: kl_loss,
            LossModel.MLE: mle_loss,
            LossModel.FE: fe_loss,
            LossModel.LFE: lfe_loss,
        }[model]
        return builder(l)
    pick = _select(model, _models(l.fwd))
    with_fe = LossModel.FE in model
    needed = set(model) - {LossModel.FE} | ({LossModel.KL, LossModel.MLE} if with_fe else set())
    forms = {m: loss_for(m, l).form for m in needed}

    def form(pi, sel=ALL):
        terms = {m: f(pi, sel) for m, f in forms.items()}
        if with_fe:
            terms[LossModel.FE] = terms[LossModel.KL] + terms[LossModel.MLE]
        return pick(terms)

    return LossFn(*l.backend.doms(l.fwd), form)


# ---------------------------------------------------------------------------
# laxators: the tensoring defect of each model
# ---------------------------------------------------------------------------


def laxator_loss(model, c: BayesLens, d: BayesLens, tensored: BayesLens | None = None) -> LossFn:
    """The tensoring defect of a loss model, as a loss on the priors and
    observations of ``lens_tensor(c, d)``.

    Satisfies, wherever the three terms are finite,

        L(c (x) d)(omega, (y, y2))
            = L(c)(omega_X, y) + L(d)(omega_X2, y2) + laxator_loss(...)(omega, (y, y2))

    and vanishes when ``omega`` is a product state.  Closed forms, written
    once over forms with ``nll`` the negative log-density of a state: the
    FE defect is the posterior-expected log-ratio of the product-of-marginals
    prior to the joint prior, the MLE defect is the log-ratio of their
    pushforwards, the KL defect is the FE defect minus the MLE defect, and
    the Laplace defect averages the FE log-ratio under the backward channel
    collapsed to its mean (Gaussian lenses only).  A discrete defect is a
    signed ``VecForm`` over the joint observations ``y * |Y2| + y2``, a
    Gaussian one a ``QuadForm``, so laxators compose in closed form.  Like
    the tensored lens's KL and FE losses, defects with an FE term are
    undefined at observations of zero evidence; none is defined where it
    is ``inf - inf``.  The tensored lens and its pushforward are built once;
    a caller that has built ``lens_tensor(c, d)`` already passes it as
    ``tensored``, whose remembered split of ``omega`` gives the product prior.

    A tuple of models gives one loss with a leading model axis, as
    ``loss_for`` does: its FE term and its MLE term are computed once per
    prior, and the KL row is their difference.  Each form call pushes
    ``omega`` through the tensored forward at most once.
    """
    tensored = lens_tensor(c, d) if tensored is None else tensored
    backend, models, split = tensored.backend, _models(tensored.fwd), tensored.marginals
    onto = prior_pushforward(tensored.fwd)
    pick = _select(model, models)
    chosen = (model,) if isinstance(model, LossModel) else model
    with_fe = any(m is not LossModel.MLE for m in chosen)
    with_mle = LossModel.MLE in chosen or LossModel.KL in chosen
    # the Laplace defect averages over the posterior mean alone
    back = models.at_mean() if LossModel.LFE in chosen else lambda ch: ch

    def form(omega, sel=ALL):
        prod = backend.tensor_state(*split(omega))
        pushed = onto(omega) if with_mle else None
        terms = {}
        if with_fe:
            log_ratio = models.nll(omega) - models.nll(prod)
            posterior = back(discarded(tensored.bwd(omega)))
            evidence = (lambda: pushed) if with_mle else (lambda: onto(omega))
            fe_term = models.where_possible(log_ratio.average(posterior, sel), evidence, sel)
            terms[LossModel.FE] = terms[LossModel.LFE] = fe_term
        if with_mle:
            terms[LossModel.MLE] = models.nll(pushed, sel) - models.nll(onto(prod), sel)
        if with_fe and with_mle:
            terms[LossModel.KL] = terms[LossModel.FE] - terms[LossModel.MLE]
        return pick(terms)

    return LossFn(*backend.doms(tensored.fwd), form)


def laxator(model: LossModel, c: BayesLens, d: BayesLens, omega, y, y2) -> float:
    """The tensoring defect of a loss model at a joint prior and the
    observations ``y`` of ``c`` and ``y2`` of ``d``."""
    return laxator_loss(model, c, d)(omega, c.backend.joint_obs(c.fwd, d.fwd, y, y2))


# ---------------------------------------------------------------------------
# the models on each instance
# ---------------------------------------------------------------------------


class _DiscreteModels:
    """The loss models on the discrete instance, as vector forms."""

    def at_probes(self, form, obs_dom, probes):
        """One form call at the stack of the probes' priors, each selecting
        its own observation.  A single probe is evaluated at its prior as
        given, so that a lens's memo keeps one key for a prior read
        alone or in a witness, and selects its observation by a one-row
        slice, a view with no copy of a large channel's row.  The view sums
        in the order a stacked copy does: a copy-composite's rows are
        C-contiguous, and ``VecForm.average`` copies the rows it weighs."""
        if not probes:
            return []
        ys = [DISCRETE.obs_index(obs_dom, y) for _, y in probes]
        if len(probes) == 1:
            got = form(probes[0][0], slice(ys[0], ys[0] + 1))
            got = VecForm(got.values[..., None, :], got.defined[..., None, :])
        else:
            space = probes[0][0].space
            if any(pi.space is not space and pi.space != space for pi, _ in probes):
                raise ShapeError("the probes' priors live on different spaces")
            got = form(ds.Dist(space, np.stack([pi.mass for pi, _ in probes])), np.c_[ys])

        def row(values, defined):
            return [
                float(v) if ok else _undefined(obs_dom.labels[y])
                for v, ok, y in zip(values, defined, ys)
            ]

        if got.values.ndim == 2:
            return row(got.values[:, 0], got.defined[:, 0])
        return [row(v, ok) for v, ok in zip(got.values[..., 0], got.defined[..., 0])]

    def zero(self, obs_dom):
        def form(pi, sel=ALL):
            values = _pick(np.zeros(pi.mass.shape[:-1] + (obs_dom.size,)), sel)
            return VecForm(values, np.ones(values.shape, dtype=bool))

        return form

    def stacker(self, models):
        """The map from each model's form to their forms on a leading model
        axis, in the order of ``models``."""

        def stack(terms):
            rows = [terms[m] for m in models]
            return VecForm(np.stack([r.values for r in rows]), np.stack([r.defined for r in rows]))

        return stack

    def support(self, state, sel=ALL):
        """The zero loss, defined where ``state`` has positive mass."""
        mass = _pick(state.mass, sel)
        return VecForm(np.zeros(mass.shape), mass > 0)

    def where_possible(self, form, pushed, sel=ALL):
        """``form``, left undefined at the observations of zero evidence
        under the pushforward ``pushed()``: a backward channel's rows there
        are no posterior."""
        return form + self.support(pushed(), sel)

    def kl(self, l):
        onto = prior_pushforward(l.fwd)  # defined where the pushforward has mass
        if l.exact:  # the posterior is exact wherever the observation is possible
            return lambda pi, sel=ALL: self.support(onto(pi), sel)
        inverse = l.inverse

        def form(pi, sel=ALL):
            approx = _pick(l.bwd(pi).rows, sel, rows=True)
            exact = _pick(inverse(pi).rows, sel, rows=True)
            divergence = ds.rows_relative_entropy(approx, exact)
            return VecForm(divergence, _pick(onto(pi).mass, sel) > 0)

        return form

    def nll(self, state, sel=ALL):
        """The negative log-mass of ``state`` at the outcomes ``sel``."""
        mass = _pick(state.mass, sel)
        with np.errstate(divide="ignore"):
            return VecForm(-np.log(mass), np.ones(mass.shape, dtype=bool))

    def _posterior_energy(self, l, pi, sel):
        """The posterior rows at the observations ``sel`` and, for each, the
        energy ``-log p_fwd(m, y | x) - log p_pi(x)`` over ``(x, m)``
        (``+inf`` where the joint density vanishes)."""
        by_obs = _pick(l.fwd.rows.reshape(-1, l.fwd.out.size).T, sel, rows=True)  # (y, (x, m))
        with np.errstate(divide="ignore"):
            energy = -np.log(by_obs * np.repeat(pi.mass, l.fwd.copar.size, axis=-1)[..., None, :])
        return _pick(l.bwd(pi).rows, sel, rows=True), energy

    def fe_joint(self, l):
        onto = prior_pushforward(l.fwd)

        def form(pi, sel=ALL):
            # E_rho[log rho + energy] over rho > 0, one ``np.dot`` per row:
            # a BLAS dot's order of summation depends on its operands' length
            # and layout, so a batched product would move the values' bits
            rho, energy = self._posterior_energy(l, pi, sel)
            values = np.empty(rho.shape[:-1])
            for at in np.ndindex(values.shape):
                pos = rho[at] > 0
                values[at] = np.dot(rho[at][pos], np.log(rho[at][pos]) + energy[at][pos])
            # undefined at zero evidence, where ``rho`` is no posterior
            return VecForm(values, _pick(onto(pi).mass, sel) > 0)

        return form

    def energy_entropy(self, l, pi, y):
        y = DISCRETE.obs_index(l.fwd.out, y)
        if not prior_pushforward(l.fwd)(pi).mass[y] > 0:
            raise _undefined(l.fwd.out.labels[y])
        rho, energy = self._posterior_energy(l, pi, slice(y, y + 1))
        return float(ds.rows_expectation(energy[0], rho)[0]), ds.entropy(rho[0])

    def lfe(self, *args):
        """The Laplace model, its covariance and its mean-collapsed backward
        channel need Gaussian lenses."""
        raise InstanceError("the Laplace model needs Gaussian lenses")

    laplace_sigma = at_mean = lfe


class _GaussianModels:
    """The loss models on the affine-Gaussian instance, as quadratic forms
    in the observation."""

    def at_probes(self, form, obs_dom, probes):
        """One form per probe, read at its observation."""
        out = []
        for pi, y in probes:
            try:
                out.append(form(pi).at(y))
            except (SupportError, SingularityError) as e:
                out.append(e)
        return out

    def zero(self, n):
        def form(pi, sel=ALL):
            gs._single(pi, "a Gaussian loss")
            return QuadForm(np.zeros((n, n)), np.zeros(n), 0.0)

        return form

    def stacker(self, models):
        raise InstanceError("only discrete forms carry a model axis")

    def where_possible(self, form, pushed, sel=ALL):
        return form  # a Gaussian pushforward has positive density everywhere

    def kl(self, l):
        inverse = None if l.exact else l.inverse

        def form(pi, sel=ALL):
            # KL(N(Ga y + ha, Sa) || N(Ge y + he, Se)) with D = Ge - Ga and
            # e = he - ha: the Mahalanobis term |Le^-1 (D y + e)|^2 / 2 plus
            # a constant in y, as in ``gaussian.g_kl``
            gs._single(pi, "a Gaussian loss")
            approx = l.bwd(pi)
            exact = approx if inverse is None else inverse(pi)
            if approx.A.shape != exact.A.shape:
                raise ShapeError(
                    "the backward channel's dimensions differ from the exact inversion's"
                )
            le = gs._chol(exact.noise, "second covariance")
            H, g, c = _half_square(le, exact.A - approx.A, exact.b - approx.b)
            sign, logdet_a = np.linalg.slogdet(approx.noise)
            if sign <= 0:
                return QuadForm(H, g, math.inf)
            trace = float(np.trace(np.linalg.solve(le, np.linalg.solve(le, approx.noise).T)))
            return QuadForm(H, g, c + 0.5 * (trace - approx.cod_dim + _logdet(le) - logdet_a))

        return form

    def nll(self, state, sel=ALL):
        """The negative log-density of ``state``, a quadratic in the point."""
        chol = gs._state_chol(gs._single(state, "a Gaussian loss"), "covariance")
        H, g, c = _half_square(chol, np.eye(state.dim), -state.mean)
        return QuadForm(H, g, c + 0.5 * (state.dim * gs.LOG_2PI + _logdet(chol)))

    def at_mean(self):
        """The map of a channel to the point mass at its mean, over which
        the Laplace model averages where the others use the channel."""
        return lambda ch: gs.GaussChannel(ch.A, ch.b, np.zeros(ch.noise.shape))

    def lfe(self, l, expected=False):
        """The energy at the posterior mean (``expected``: averaged over the
        posterior, the joint free energy) minus the posterior entropy."""
        fwd = l.fwd
        dx, nz = fwd.dom_dim, fwd.dom_dim + fwd.copar_dim
        w = _energy_residual_map(fwd)
        obs_rows = np.eye(fwd.cod_dim)[:, fwd.copar_dim :]

        def form(pi, sel=ALL):
            # the posterior mean z = B y + beta is affine in y, so the energy
            # there is a quadratic in y; the entropy does not depend on y
            gs._single(pi, "a Gaussian loss")
            back = l.bwd(pi)
            chol_c = gs._chol(fwd.noise, "covariance")
            chol_pi = gs._state_chol(pi, "covariance")
            chol_post = gs._chol(back.noise, "covariance")
            const = 0.5 * (
                (fwd.cod_dim + dx) * gs.LOG_2PI + _logdet(chol_c) + _logdet(chol_pi)
                - nz * (1.0 + gs.LOG_2PI) - _logdet(chol_post)
            )
            if expected:  # E[energy] adds tr(S H) / 2, a sum of |W L|^2 / 2 for S = L L'
                root_c = np.linalg.solve(chol_c, w @ chol_post)
                root_pi = np.linalg.solve(chol_pi, chol_post[:dx])
                const += 0.5 * (float(np.sum(root_c**2)) + float(np.sum(root_pi**2)))
            return (
                _half_square(chol_c, w @ back.A + obs_rows, w @ back.b - fwd.b)
                + _half_square(chol_pi, back.A[:dx], back.b[:dx] - pi.mean)
                + QuadForm(0.0, 0.0, const)
            )

        return form

    def laplace_sigma(self, l, pi):
        hess = _gauss_energy_hessian(l.fwd, pi)
        try:
            return np.linalg.inv(hess)
        except np.linalg.LinAlgError:
            raise SingularityError("energy Hessian is singular") from None

    def fe_joint(self, l):
        return self.lfe(l, expected=True)

    def energy_entropy(self, l, pi, y):
        """The energy ``z = (x, m) -> -log p_fwd(m, y | x) - log p_pi(x)``
        is quadratic, so its posterior expectation is its value at the
        posterior mean plus half the trace of covariance times Hessian."""
        state = gs.g_apply(l.bwd(pi), y)
        dx = l.fwd.dom_dim
        x0, m0 = state.mean[:dx], state.mean[dx:]
        y = np.atleast_1d(np.asarray(y, dtype=float))
        val = -gs.g_logpdf(gs.g_apply(l.fwd, x0), np.concatenate([m0, y]))
        val -= gs.g_logpdf(pi, x0)
        hess = _gauss_energy_hessian(l.fwd, pi)
        return gs.gauss_expect_quadratic(val, hess, state.cov), gs.g_entropy(state)


def _energy_residual_map(fwd) -> np.ndarray:
    """The matrix ``w`` with ``(m, y) - (A x + b) = w @ z + (0, y) - b`` for
    ``z = (x, m)``."""
    dx, dm = fwd.dom_dim, fwd.copar_dim
    w = np.zeros((fwd.cod_dim, dx + dm))
    w[:dm, dx:] = np.eye(dm)
    w[:, :dx] -= fwd.A
    return w


def _gauss_energy_hessian(fwd, pi) -> np.ndarray:
    dx = fwd.dom_dim
    lam_c = np.linalg.inv(gs._chol(fwd.noise, "channel noise"))
    lam_c = lam_c.T @ lam_c
    lam_pi = np.linalg.inv(gs._state_chol(gs._single(pi, "the Laplace model"), "prior covariance"))
    lam_pi = lam_pi.T @ lam_pi
    w = _energy_residual_map(fwd)
    hess = w.T @ lam_c @ w
    hess[:dx, :dx] += lam_pi
    return hess


_MODELS = {DISCRETE: _DiscreteModels(), GAUSSIAN: _GaussianModels()}


def _models(obj):
    """The loss models on the instance ``obj`` (a channel, a state, or a
    space) lives in."""
    return _MODELS[backend_of(obj)]
