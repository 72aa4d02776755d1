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

Discrete expectations are exact sums; Gaussian ones use closed forms or
quadrature that is exact for the quadratic integrands arising here, so
every identity is testable at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import InstanceError, ShapeError, SingularityError
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
]


class LossModel(Enum):
    KL = "kl"
    MLE = "mle"
    FE = "fe"
    LFE = "lfe"


@dataclass(frozen=True, eq=False)
class LossFn:
    """A deterministic map ``(prior, observation) -> value in [0, +inf]``.

    ``prior_dom`` and ``obs_dom`` are a finite space (discrete) or a
    dimension (Gaussian); they make composability checkable.
    """

    fn: Callable
    prior_dom: object
    obs_dom: object
    instance: str

    def __call__(self, prior, obs) -> float:
        return float(self.fn(prior, obs))

    def reindex(self, ch) -> "LossFn":
        """Pre-compose the prior argument with a forward channel."""
        onto = prior_pushforward(ch)
        dom = ch.dom if self.instance == "discrete" else ch.dom_dim
        return LossFn(
            fn=lambda pi, obs: self.fn(onto(pi), obs),
            prior_dom=dom,
            obs_dom=self.obs_dom,
            instance=self.instance,
        )


def _lens_doms(l: BayesLens):
    if l.instance == "discrete":
        return l.fwd.dom, l.fwd.out
    return l.fwd.dom_dim, l.fwd.out_dim


def _make_loss(l: BayesLens, fn) -> LossFn:
    prior_dom, obs_dom = _lens_doms(l)
    return LossFn(fn=fn, prior_dom=prior_dom, obs_dom=obs_dom, instance=l.instance)


def zero_loss(l: BayesLens) -> LossFn:
    return _make_loss(l, lambda pi, obs: 0.0)


# ---------------------------------------------------------------------------
# the four models
# ---------------------------------------------------------------------------


def kl_loss(l: BayesLens) -> LossFn:
    """Divergence from the lens's posterior to the exact posterior."""
    if not l.simple:
        raise ShapeError("loss models apply to simple lenses")
    fwd = l.fwd

    def fn(pi, y):
        approx = l.bwd(pi)
        if instance_of(pi) == "discrete":
            evidence = prior_pushforward(fwd)(pi)
            ds.require_support(evidence, y)
            exact = exact_inversion(fwd, pi)
            return ds._row_relative_entropy(approx.rows[y], exact.rows[y])
        exact = exact_inversion(fwd, pi)
        return gs.g_kl(apply_channel(approx, y), apply_channel(exact, y))

    return _make_loss(l, fn)


def mle_loss(l: BayesLens) -> LossFn:
    """Negative log-density of the observation under the prior pushforward.

    Zero-probability observations give ``+inf`` (a value, not an error).
    """
    fwd = l.fwd
    onto = prior_pushforward(fwd)

    def fn(pi, y):
        evidence = onto(pi)
        if instance_of(pi) == "discrete":
            mass = evidence.mass[y]
            return -math.log(mass) if mass > 0 else math.inf
        return -gs.g_logpdf(evidence, y)

    return _make_loss(l, fn)


def fe_loss(l: BayesLens) -> LossFn:
    """Free energy: divergence-to-exact plus observation code length."""
    kl = kl_loss(l)
    mle = mle_loss(l)
    return _make_loss(l, lambda pi, y: kl.fn(pi, y) + mle.fn(pi, y))


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


def _gauss_energy_hessian(fwd, pi) -> np.ndarray:
    dx, dm = fwd.dom_dim, fwd.copar_dim
    lam_c = np.linalg.inv(gs._chol(fwd.noise, "channel noise"))
    lam_c = lam_c.T @ lam_c
    lam_pi = np.linalg.inv(gs._chol(pi.cov, "prior covariance"))
    lam_pi = lam_pi.T @ lam_pi
    # residual (m, y) - (A x + b) as a linear map of z = (x, m)
    w = np.zeros((fwd.cod_dim, dx + dm))
    w[:dm, dx:] = np.eye(dm)
    w[:, :dx] -= fwd.A
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

    def fn(pi, y):
        state = apply_channel(l.bwd(pi), y)
        val, _hess = _gauss_energy_quadratic(l, pi, y, state.mean)
        return val - gs.g_entropy(state)

    return _make_loss(l, fn)


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


def loss_compose(Ld: LossFn, Lc: LossFn, d: BayesLens, c: BayesLens) -> LossFn:
    """Loss of a composite game: the second loss at the pushed prior, plus
    the first loss averaged over the second's backward channel."""
    if Ld.instance != Lc.instance:
        raise ShapeError("losses live in different instances")
    mid = prior_pushforward(c.fwd)

    def fn(pi, z):
        mid_prior = mid(pi)
        first = Ld.fn(mid_prior, z)
        back = discard(d.bwd(mid_prior))
        if instance_of(pi) == "discrete":
            weights = back.rows[z]
            total = 0.0
            for y, w in enumerate(weights):
                if w <= 0:
                    continue
                v = Lc.fn(pi, y)
                if math.isinf(v):
                    return math.inf
                total += w * v
            return first + total
        ystate = gs.g_apply(back, z)
        second = gs.gauss_hermite_expect(ystate, lambda y: Lc.fn(pi, y))
        return first + second

    prior_dom = Lc.prior_dom
    obs_dom = Ld.obs_dom
    return LossFn(fn=fn, prior_dom=prior_dom, obs_dom=obs_dom, instance=Ld.instance)


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


def _combine_obs(c: BayesLens, d: BayesLens, y, y2):
    if c.instance == "discrete":
        return y * d.fwd.out.size + y2
    return np.concatenate(
        [np.atleast_1d(np.asarray(y, float)), np.atleast_1d(np.asarray(y2, float))]
    )


def _discrete_log_ratio(prod_mass, joint_mass):
    with np.errstate(divide="ignore"):
        out = np.log(prod_mass) - np.log(joint_mass)
    return out


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
    w1, w2 = prior_marginals(omega, c.fwd, d.fwd)
    tensored = lens_tensor(c, d)
    obs = _combine_obs(c, d, y, y2)

    if c.instance == "discrete":
        prod = ds.tensor_dist(w1, w2)
        if model is LossModel.MLE or model is LossModel.KL:
            onto = prior_pushforward(tensored.fwd)
            pj = onto(omega).mass[obs]
            pp = onto(prod).mass[obs]
            with np.errstate(divide="ignore"):
                mle_term = (math.log(pp) if pp > 0 else -math.inf) - (
                    math.log(pj) if pj > 0 else -math.inf
                )
            if model is LossModel.MLE:
                return float(mle_term)
        back = discard(tensored.bwd(omega))  # (z, z2) -> (x, x2)
        q = back.rows[obs]
        ratio = _discrete_log_ratio(prod.mass, omega.mass)
        pos = q > 0
        if np.any(np.isinf(ratio[pos])):
            expect_term = math.inf
        else:
            expect_term = float(np.dot(q[pos], ratio[pos]))
        if model is LossModel.FE:
            return expect_term
        return expect_term - float(mle_term)

    # Gaussian
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