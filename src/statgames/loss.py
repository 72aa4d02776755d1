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
that the tensored backward ignores.

Every model has a form computed once per prior that the scalar call reads
and composition works on.  A discrete loss is a vector over all
observations, so the expectation in a composite is a matrix-vector
product.  For affine-Gaussian lenses every model is a quadratic in the
observation, ``L(prior, y) = c + g.y + y.H.y / 2``, and the expectation of
a quadratic under the Gaussian backward channel is again a quadratic in the
composite's observation, so composites are exact closed forms too.  Only a
Gaussian loss built from a bare callable is averaged by Gauss-Hermite
quadrature (exact for quadratic integrands), so every identity is testable
at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import InstanceError, ShapeError, SingularityError, SupportError
from .lens import (
    BayesLens,
    apply_channel,
    discard,
    exact_inversion,
    instance_of,
    lens_tensor,
    prior_marginals,
    prior_pushforward,
)

__all__ = [
    "LossFn",
    "LossModel",
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
    "laxator_values",
]


class LossModel(Enum):
    KL = "kl"
    MLE = "mle"
    FE = "fe"
    LFE = "lfe"


#: selects every observation in a loss's vector form
ALL = slice(None)


@dataclass(frozen=True, eq=False)
class LossFn:
    """A deterministic map ``(prior, observation) -> value in [0, +inf]``.

    ``prior_dom`` and ``obs_dom`` are a finite space (discrete) or a
    dimension (Gaussian); they make composability checkable.

    A discrete loss may also carry its vector form ``vec(prior, sel) ->
    (values, defined)``: float arrays over the observations ``sel`` indexes
    (``ALL``, or a list of indices), where ``values[i]`` is the loss at the
    ``i``-th of them wherever ``defined[i]`` holds, and the scalar call
    raises ``SupportError`` elsewhere.  Without one, ``values`` tabulates
    ``fn``.

    A Gaussian loss may carry its quadratic form ``quad(prior) -> (H, g,
    c)``, meaning ``L(prior, y) = c + g @ y + y @ H @ y / 2`` (``c`` is
    ``+inf`` where the loss is).  Without one, ``loss_compose`` averages
    ``fn`` by quadrature.
    """

    fn: Callable
    prior_dom: object
    obs_dom: object
    instance: str
    vec: Callable | None = None
    quad: Callable | None = None

    def __call__(self, prior, obs) -> float:
        return float(self.fn(prior, obs))

    def values(self, prior, sel=ALL) -> tuple[np.ndarray, np.ndarray]:
        """The vector form at ``prior``: ``(values, defined)`` over the
        observations ``sel`` indexes.  Discrete losses only."""
        if self.vec is not None:
            return self.vec(prior, sel)
        if self.instance != "discrete":
            raise InstanceError("only discrete losses have a vector form")
        obs = np.arange(self.obs_dom.size)[sel]
        vals, defined = np.zeros(obs.size), np.ones(obs.size, dtype=bool)
        for i, y in enumerate(obs):
            try:
                vals[i] = self.fn(prior, int(y))
            except SupportError:
                defined[i] = False
        return vals, defined

    def reindex(self, ch) -> "LossFn":
        """Pre-compose the prior argument with a forward channel."""
        onto = prior_pushforward(ch)
        dom = ch.dom if self.instance == "discrete" else ch.dom_dim
        vec = quad = None
        if self.instance == "discrete":
            vec = lambda pi, sel: self.values(onto(pi), sel)
        elif self.quad is not None:
            quad = lambda pi: self.quad(onto(pi))
        return LossFn(
            fn=lambda pi, obs: self.fn(onto(pi), obs),
            prior_dom=dom,
            obs_dom=self.obs_dom,
            instance=self.instance,
            vec=vec,
            quad=quad,
        )


def _lens_doms(l: BayesLens):
    if l.instance == "discrete":
        return l.fwd.dom, l.fwd.out
    return l.fwd.dom_dim, l.fwd.out_dim


def _make_loss(l: BayesLens, fn) -> LossFn:
    prior_dom, obs_dom = _lens_doms(l)
    return LossFn(fn=fn, prior_dom=prior_dom, obs_dom=obs_dom, instance=l.instance)


def _discrete_loss(prior_dom, obs_dom, rows) -> LossFn:
    """A discrete loss from its vector form ``rows(pi, sel)``; the scalar
    call evaluates the one observation it is given."""

    def fn(pi, y):
        vals, defined = rows(pi, [y])
        if not defined[0]:
            raise SupportError(
                f"the loss is undefined at observation {obs_dom.labels[y]!r}: it has "
                "zero probability (or, in a composite, an observation it weights has)"
            )
        return float(vals[0])

    return LossFn(fn, prior_dom, obs_dom, "discrete", vec=rows)


def _form_value(form, y) -> float:
    """A quadratic form ``(H, g, c)`` at the observation ``y``."""
    H, g, c = form
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != g.size:
        raise ShapeError(f"observation has dimension {y.size}, expected {g.size}")
    return float(c + g @ y + 0.5 * (y @ H @ y))


def _form_sum(*forms):
    H, g, c = forms[0]
    for H2, g2, c2 in forms[1:]:
        H, g, c = H + H2, g + g2, c + c2
    return H, g, c


def _half_square(chol, M, r):
    """The form of ``y -> |chol^-1 (M y + r)|^2 / 2``, for a Cholesky
    factor ``chol`` of the covariance whose precision weighs the residual."""
    W = np.linalg.solve(chol, M)
    u = np.linalg.solve(chol, r)
    return W.T @ W, W.T @ u, 0.5 * float(u @ u)


def _logdet(chol) -> float:
    return 2.0 * float(np.log(np.diag(chol)).sum())


def _gauss_loss(prior_dom, obs_dom, quad) -> LossFn:
    """A Gaussian loss from its quadratic form ``quad(pi)``; the scalar call
    evaluates the form at the one observation it is given."""
    fn = lambda pi, y: _form_value(quad(pi), y)
    return LossFn(fn, prior_dom, obs_dom, "gaussian", quad=quad)


def _loss_sum(a: LossFn, b: LossFn) -> LossFn:
    """The pointwise sum of two losses on the same spaces, in whichever form
    both carry."""
    if a.instance == "discrete":

        def rows(pi, sel):
            vals_a, defined_a = a.values(pi, sel)
            vals_b, defined_b = b.values(pi, sel)
            return vals_a + vals_b, defined_a & defined_b

        return _discrete_loss(a.prior_dom, a.obs_dom, rows)
    if a.quad is None or b.quad is None:
        fn = lambda pi, y: a.fn(pi, y) + b.fn(pi, y)
        return LossFn(fn, a.prior_dom, a.obs_dom, "gaussian")
    return _gauss_loss(a.prior_dom, a.obs_dom, lambda pi: _form_sum(a.quad(pi), b.quad(pi)))


def zero_loss(l: BayesLens) -> LossFn:
    if l.instance == "discrete":
        return _make_loss(l, lambda pi, obs: 0.0)
    n = l.fwd.out_dim
    return _gauss_loss(l.fwd.dom_dim, n, lambda pi: (np.zeros((n, n)), np.zeros(n), 0.0))


# ---------------------------------------------------------------------------
# the four models
# ---------------------------------------------------------------------------


def kl_loss(l: BayesLens) -> LossFn:
    """Divergence from the lens's posterior to the exact posterior."""
    if not l.simple:
        raise ShapeError("loss models apply to simple lenses")
    fwd = l.fwd
    if l.instance == "discrete":

        def rows(pi, sel):
            approx = l.bwd(pi).rows[sel]
            exact, mask = ds.bayes_invert(fwd, pi)
            return ds.rows_relative_entropy(approx, exact.rows[sel]), mask.supported[sel]

        return _discrete_loss(fwd.dom, fwd.out, rows)

    def quad(pi):
        # KL(N(Ga y + ha, Sa) || N(Ge y + he, Se)) with D = Ge - Ga and
        # e = he - ha: the Mahalanobis term |Le^-1 (D y + e)|^2 / 2 plus a
        # constant in y, as in ``gaussian.g_kl``
        approx = l.bwd(pi)
        exact = exact_inversion(fwd, pi)
        if approx.A.shape != exact.A.shape:
            raise ShapeError("the backward channel's dimensions differ from the exact inversion's")
        le = gs._chol(exact.noise, "second covariance")
        H, g, c = _half_square(le, exact.A - approx.A, exact.b - approx.b)
        sign, logdet_a = np.linalg.slogdet(approx.noise)
        if sign <= 0:
            return H, g, math.inf
        trace = float(np.trace(np.linalg.solve(le, np.linalg.solve(le, approx.noise).T)))
        return H, g, c + 0.5 * (trace - approx.cod_dim + _logdet(le) - logdet_a)

    return _gauss_loss(fwd.dom_dim, fwd.out_dim, quad)


def mle_loss(l: BayesLens) -> LossFn:
    """Negative log-density of the observation under the prior pushforward.

    Zero-probability observations give ``+inf`` (a value, not an error).
    """
    onto = prior_pushforward(l.fwd)
    if l.instance == "discrete":

        def rows(pi, sel):
            mass = onto(pi).mass[sel]
            with np.errstate(divide="ignore"):
                return -np.log(mass), np.ones(mass.shape, dtype=bool)

        return _discrete_loss(l.fwd.dom, l.fwd.out, rows)

    def quad(pi):
        pushed = onto(pi)
        chol = gs._chol(pushed.cov, "covariance")
        H, g, c = _half_square(chol, np.eye(pushed.dim), -pushed.mean)
        return H, g, c + 0.5 * (pushed.dim * gs.LOG_2PI + _logdet(chol))

    return _gauss_loss(l.fwd.dom_dim, l.fwd.out_dim, quad)


def fe_loss(l: BayesLens) -> LossFn:
    """Free energy: divergence-to-exact plus observation code length."""
    return _loss_sum(kl_loss(l), mle_loss(l))


# -- the marginalization-free rearrangement ---------------------------------


def _fwd_density_parts(l: BayesLens):
    """(dx, dm) split of the backward codomain for a simple lens."""
    if l.instance == "discrete":
        return l.fwd.dom.size, l.fwd.copar.size
    return l.fwd.dom_dim, l.fwd.copar_dim


def _discrete_joint_energy(l: BayesLens, pi, y):
    """Energy table -log p_fwd(m, y | x) - log p_pi(x) over (x, m)."""
    dx, dm = _fwd_density_parts(l)
    fr = l.fwd.rows.reshape(dx, dm, l.fwd.out.size)
    dens = fr[:, :, y] * pi.mass[:, None]  # p(m, y | x) p(x)
    with np.errstate(divide="ignore"):
        return -np.log(dens)  # +inf where the joint density vanishes


def fe_joint_form(l: BayesLens) -> LossFn:
    """Free energy computed without the pushforward marginalization:
    divergence of the posterior from (prior tensor flat), minus the expected
    joint log-density.  Agrees with ``fe_loss`` wherever both are finite."""
    if not l.simple:
        raise ShapeError("loss models apply to simple lenses")

    def fn(pi, y):
        back = l.bwd(pi)
        if instance_of(pi) == "discrete":
            rho = back.rows[y]
            energy = _discrete_joint_energy(l, pi, y).reshape(-1)
            pos = rho > 0
            if np.any(np.isinf(energy[pos])):
                return math.inf
            return float(
                np.dot(rho[pos], np.log(rho[pos]) + energy[pos])
            )
        state = apply_channel(back, y)
        mean_energy, hess = _gauss_energy_quadratic(l, pi, y, state.mean)
        expected_energy = gs.gauss_expect_quadratic(mean_energy, hess, state.cov)
        return expected_energy - gs.g_entropy(state)

    return _make_loss(l, fn)


def energy_entropy_decomp(l: BayesLens, pi, y) -> tuple[float, float]:
    """(expected energy, posterior entropy) whose difference is the free
    energy: the thermodynamic split."""
    back = l.bwd(pi)
    if instance_of(pi) == "discrete":
        rho = back.rows[y]
        energy = _discrete_joint_energy(l, pi, y).reshape(-1)
        return ds.expectation(energy, rho), ds.entropy(rho)
    state = apply_channel(back, y)
    mean_energy, hess = _gauss_energy_quadratic(l, pi, y, state.mean)
    expected_energy = gs.gauss_expect_quadratic(mean_energy, hess, state.cov)
    return expected_energy, gs.g_entropy(state)


# -- Gaussian energy as an explicit quadratic --------------------------------


def _gauss_energy_quadratic(l: BayesLens, pi, y, z0):
    """Value at ``z0`` and (constant) Hessian of the energy
    ``z = (x, m) -> -log p_fwd(m, y | x) - log p_prior(x)``."""
    fwd = l.fwd
    dx, dm = fwd.dom_dim, fwd.copar_dim
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    x0, m0 = z0[:dx], z0[dx:]
    val = -gs.g_logpdf(gs.g_apply(fwd, x0), np.concatenate([m0, y]))
    val -= gs.g_logpdf(pi, x0)
    hess = _gauss_energy_hessian(fwd, pi)
    return val, hess


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
    lam_pi = np.linalg.inv(gs._chol(pi.cov, "prior covariance"))
    lam_pi = lam_pi.T @ lam_pi
    w = _energy_residual_map(fwd)
    hess = w.T @ lam_c @ w
    hess[:dx, :dx] += lam_pi
    return hess


def lfe_loss(l: BayesLens) -> LossFn:
    """Laplacian free energy: energy at the posterior mean minus posterior
    entropy.  Gaussian lenses only."""
    if l.instance != "gaussian":
        raise InstanceError("the Laplace model needs Gaussian lenses")
    if not l.simple:
        raise ShapeError("loss models apply to simple lenses")

    fwd = l.fwd
    dx, nz = fwd.dom_dim, fwd.dom_dim + fwd.copar_dim
    w = _energy_residual_map(fwd)
    obs_rows = np.eye(fwd.cod_dim)[:, fwd.copar_dim :]

    def quad(pi):
        # the posterior mean z = B y + beta is affine in y, so the energy
        # there is a quadratic in y; the entropy does not depend on y
        back = l.bwd(pi)
        chol_c = gs._chol(fwd.noise, "covariance")
        chol_pi = gs._chol(pi.cov, "covariance")
        chol_post = gs._chol(back.noise, "covariance")
        const = 0.5 * (
            (fwd.cod_dim + dx) * gs.LOG_2PI + _logdet(chol_c) + _logdet(chol_pi)
            - nz * (1.0 + gs.LOG_2PI) - _logdet(chol_post)
        )
        return _form_sum(
            _half_square(chol_c, w @ back.A + obs_rows, w @ back.b - fwd.b),
            _half_square(chol_pi, back.A[:dx], back.b[:dx] - pi.mean),
            (0.0, 0.0, const),
        )

    return _gauss_loss(fwd.dom_dim, fwd.out_dim, quad)


def laplace_sigma(l: BayesLens, pi, y) -> np.ndarray:
    """Inverse Hessian of the energy in ``(x, m)`` at the posterior mean.

    For affine-Gaussian models the Hessian is constant and this equals the
    exact posterior covariance, which is what makes the Laplace model exact
    there."""
    if l.instance != "gaussian":
        raise InstanceError("the Laplace model needs Gaussian lenses")
    hess = _gauss_energy_hessian(l.fwd, pi)
    try:
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        raise SingularityError("energy Hessian is singular") from None


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _expect_defined(weights, vals, defined):
    """``(E[vals], defined)`` under each row of ``weights``, for ``vals``
    defined only where ``defined`` holds.  Scanning the weighted entries in
    order, the first that is undefined or infinite decides: an undefined one
    leaves the row undefined, an infinite one makes it ``+inf``."""
    bad = (weights > 0) & ~(defined & np.isfinite(vals))
    first = bad.argmax(axis=1)
    row_defined = ~bad.any(axis=1) | defined[first]
    return ds.rows_expectation(np.where(defined, vals, 0.0), weights), row_defined


def loss_compose(Ld: LossFn, Lc: LossFn, d: BayesLens, c: BayesLens) -> LossFn:
    """Loss of a composite game: the second loss at the pushed prior, plus
    the first loss averaged over the second's backward channel.

    Discrete losses compose in their vector form, so the first loss is
    evaluated once per prior for every observation it is averaged over.
    Gaussian losses compose in their quadratic form: with the backward
    ``z -> N(B z + beta, S)`` and the first loss ``(H, g, c)``, the average
    is the form ``(B'HB, B'(H beta + g), c + g.beta + beta'H beta / 2 +
    tr(H S) / 2)``, so a composite costs one form of each stage per prior.
    A Gaussian loss without a form is averaged per call by Gauss-Hermite
    quadrature."""
    if Ld.instance != Lc.instance:
        raise ShapeError("losses live in different instances")
    mid = prior_pushforward(c.fwd)
    if Ld.instance == "discrete":

        def rows(pi, sel):
            mid_prior = mid(pi)
            first, first_defined = Ld.values(mid_prior, sel)
            back = discard(d.bwd(mid_prior)).rows[sel]
            second, second_defined = _expect_defined(back, *Lc.values(pi))
            return first + second, first_defined & second_defined

        return _discrete_loss(Lc.prior_dom, Ld.obs_dom, rows)

    if Ld.quad is None or Lc.quad is None:

        def fn(pi, z):
            mid_prior = mid(pi)
            first = Ld.fn(mid_prior, z)
            back = discard(d.bwd(mid_prior))
            ystate = gs.g_apply(back, z)
            return first + gs.gauss_hermite_expect(ystate, lambda y: Lc.fn(pi, y))

        return LossFn(fn=fn, prior_dom=Lc.prior_dom, obs_dom=Ld.obs_dom, instance=Ld.instance)

    def quad(pi):
        mid_prior = mid(pi)
        first = Ld.quad(mid_prior)
        back = discard(d.bwd(mid_prior))
        H, g, const = Lc.quad(pi)
        B, beta = back.A, back.b
        h_beta = H @ beta
        at_mean = const + g @ beta + 0.5 * float(beta @ h_beta)
        second = (B.T @ H @ B, B.T @ (h_beta + g), gs.gauss_expect_quadratic(at_mean, H, back.noise))
        return _form_sum(first, second)

    return _gauss_loss(Lc.prior_dom, Ld.obs_dom, quad)


def loss_for(model: LossModel, l: BayesLens) -> LossFn:
    builder = {
        LossModel.KL: kl_loss,
        LossModel.MLE: mle_loss,
        LossModel.FE: fe_loss,
        LossModel.LFE: lfe_loss,
    }[model]
    return builder(l)


# ---------------------------------------------------------------------------
# laxators: the tensoring defect of each model
# ---------------------------------------------------------------------------


def _discrete_laxator(model: LossModel, c: BayesLens, d: BayesLens, omega, sel):
    """The discrete defects at the joint observations ``sel`` indexes."""
    w1, w2 = prior_marginals(omega, c.fwd, d.fwd)
    tensored = lens_tensor(c, d)
    prod = ds.tensor_dist(w1, w2)
    if model is LossModel.MLE or model is LossModel.KL:
        onto = prior_pushforward(tensored.fwd)
        with np.errstate(divide="ignore", invalid="ignore"):
            mle_term = np.log(onto(prod).mass[sel]) - np.log(onto(omega).mass[sel])
        if model is LossModel.MLE:
            return mle_term
    back = discard(tensored.bwd(omega)).rows[sel]  # (z, z2) -> (x, x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(prod.mass) - np.log(omega.mass)
    expect_term = ds.rows_expectation(ratio, back)
    if model is LossModel.FE:
        return expect_term
    with np.errstate(invalid="ignore"):
        return expect_term - mle_term


def laxator(model: LossModel, c: BayesLens, d: BayesLens, omega, y, y2) -> float:
    """The tensoring defect of a loss model at a joint prior.

    Satisfies, wherever the three terms are finite,

        L(c (x) d)(omega, (y, y2))
            = L(c)(omega_X, y) + L(d)(omega_X2, y2) + laxator(...)

    and vanishes when ``omega`` is a product state.  Closed forms: the MLE
    defect is a log-ratio of pushforward densities, the FE defect is the
    posterior-expected log-ratio of the product-of-marginals prior to the
    joint prior, the KL defect is their (signed) combination, and the
    Laplace defect evaluates the FE log-ratio at the posterior mean.
    """
    if model is LossModel.LFE and c.instance != "gaussian":
        raise InstanceError("the Laplace model needs Gaussian lenses")
    if c.instance == "discrete":
        obs = y * d.fwd.out.size + y2
        return float(_discrete_laxator(model, c, d, omega, [obs])[0])

    w1, w2 = prior_marginals(omega, c.fwd, d.fwd)
    tensored = lens_tensor(c, d)
    obs = np.concatenate(
        [np.atleast_1d(np.asarray(y, float)), np.atleast_1d(np.asarray(y2, float))]
    )
    prod = gs.g_tensor_state(w1, w2)
    if model is LossModel.MLE or model is LossModel.KL:
        onto = prior_pushforward(tensored.fwd)
        mle_term = gs.g_logpdf(onto(prod), obs) - gs.g_logpdf(onto(omega), obs)
        if model is LossModel.MLE:
            return float(mle_term)
    back_state = apply_channel(tensored.bwd(omega), obs)
    nxx = prod.dim
    if model is LossModel.LFE:
        mu = back_state.mean[:nxx]
        return gs.g_logpdf(prod, mu) - gs.g_logpdf(omega, mu)
    xx_state = gs.g_marginal_state(back_state, range(nxx))
    val = gs.g_logpdf(prod, xx_state.mean) - gs.g_logpdf(omega, xx_state.mean)
    hess = np.linalg.inv(omega.cov) - np.linalg.inv(prod.cov)
    expect_term = gs.gauss_expect_quadratic(val, hess, xx_state.cov)
    if model is LossModel.FE:
        return float(expect_term)
    return float(expect_term - mle_term)


def laxator_values(model: LossModel, c: BayesLens, d: BayesLens, omega) -> np.ndarray:
    """Every tensoring defect of a discrete pair at one joint prior: the
    vector form of ``laxator``, indexed by the joint observation
    ``y * |Y2| + y2``.  Signed, and defined at every observation."""
    if c.instance != "discrete" or model is LossModel.LFE:
        raise InstanceError("laxator_values needs discrete lenses and a discrete model")
    return _discrete_laxator(model, c, d, omega, ALL)
