"""Coparameterized Bayesian lenses over the discrete and Gaussian instances.

A lens pairs a forward channel ``X -> M (x) Y`` with a prior-indexed family
of backward channels ``Y -> X (x) M``.  Lenses compose optically: forwards
copy-compose, and the second lens's backward is fed the pushforward of the
prior through the first forward (state families reindex by pre-composition
with the discarded forward).

Backward families are callables: priors form a continuum even in the
discrete case, so they cannot be tabulated.  They must be pure -- equal
priors must yield identical backward channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import ShapeError

__all__ = [
    "Channel",
    "State",
    "BayesLens",
    "instance_of",
    "discard",
    "push_state",
    "apply_channel",
    "exact_inversion",
    "channel_copy_compose",
    "channel_tensor",
    "prior_marginals",
    "prior_pushforward",
    "exact_lens",
    "identity_lens",
    "lens_compose",
    "lens_tensor",
    "reindex",
    "buco_residual",
]

Channel = Union[ds.CoparKernel, gs.GaussChannel]
State = Union[ds.Dist, gs.GaussState]


# ---------------------------------------------------------------------------
# instance dispatch
# ---------------------------------------------------------------------------


def instance_of(obj) -> str:
    if isinstance(obj, (ds.CoparKernel, ds.Dist)):
        return "discrete"
    if isinstance(obj, (gs.GaussChannel, gs.GaussState)):
        return "gaussian"
    raise ShapeError(f"not a channel or state: {type(obj).__name__}")


def _same_instance(*objs) -> str:
    tags = {instance_of(o) for o in objs}
    if len(tags) != 1:
        raise ShapeError(f"mixed instances: {sorted(tags)}")
    return tags.pop()


def discard(ch: Channel):
    """Forget the retained block of a forward channel."""
    if isinstance(ch, ds.CoparKernel):
        return ds.discard_coparam(ch)
    return gs.g_discard_coparam(ch)


def push_state(k, pi: State) -> State:
    if instance_of(pi) == "discrete":
        return ds.push(k, pi)
    return gs.g_push(k, pi)


def apply_channel(ch: Channel, obs):
    """The channel's distribution at one input point."""
    if isinstance(ch, ds.CoparKernel):
        return ds.Dist(ch.cod, ch.rows[obs])
    return gs.g_apply(ch, obs)


def exact_inversion(ch: Channel, prior: State) -> Channel:
    """Exact Bayesian inversion; the backward channel only."""
    _same_instance(ch, prior)
    if isinstance(ch, ds.CoparKernel):
        inv, _mask = ds.bayes_invert(ch, prior)
        return inv
    return gs.g_invert(ch, prior)


def channel_copy_compose(second: Channel, first: Channel) -> Channel:
    _same_instance(second, first)
    if isinstance(first, ds.CoparKernel):
        return ds.copy_compose_copar(second, first)
    return gs.g_copy_compose(second, first)


def channel_tensor(ch1: Channel, ch2: Channel) -> Channel:
    _same_instance(ch1, ch2)
    if isinstance(ch1, ds.CoparKernel):
        return ds.tensor_copar(ch1, ch2)
    return gs.g_tensor_channel(ch1, ch2)


def prior_marginals(omega: State, ch1: Channel, ch2: Channel):
    """Split a joint prior on ``dom(ch1) (x) dom(ch2)`` into its marginals."""
    if instance_of(omega) == "discrete":
        k1 = ch1.dom.n_factors
        k2 = ch2.dom.n_factors
        if omega.space != ch1.dom.product(ch2.dom):
            raise ShapeError("joint prior is not on the tensored domain")
        left = ds.marginal_dist(omega, range(k1))
        right = ds.marginal_dist(omega, range(k1, k1 + k2))
        return left, right
    d1, d2 = ch1.dom_dim, ch2.dom_dim
    if omega.dim != d1 + d2:
        raise ShapeError("joint prior is not on the tensored domain")
    return (
        gs.g_marginal_state(omega, range(d1)),
        gs.g_marginal_state(omega, range(d1, d1 + d2)),
    )


# ---------------------------------------------------------------------------
# lenses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BayesLens:
    """Forward channel plus prior-indexed backward family.

    ``simple`` asserts the backward family's coparameter equals the
    forward's and the endpoints are diagonal, which is what makes exact
    inversion (and hence the loss models) applicable.
    """

    fwd: Channel
    bwd: Callable[[State], Channel]
    simple: bool = True

    @property
    def instance(self) -> str:
        return instance_of(self.fwd)


def prior_pushforward(ch: Channel) -> Callable[[State], State]:
    """The map of priors induced by a forward channel (discard, then push)."""
    plain = discard(ch)
    return lambda pi: push_state(plain, pi)


def reindex(statefn: Callable, ch: Channel) -> Callable:
    """Pre-compose a prior-indexed family with a forward channel.

    ``reindex(f, c)(pi) = f(push(discard(c), pi))``; this is how backward
    families and losses of a second stage see the priors of the first.
    """
    onto = prior_pushforward(ch)
    return lambda pi, *rest: statefn(onto(pi), *rest)


def exact_lens(ch) -> BayesLens:
    """The lens whose backward family is exact Bayesian inversion."""
    if isinstance(ch, gs.GaussChannel) and ch.copar_side != "left":
        raise ShapeError("forward channel must carry its coparameter leading")
    return BayesLens(fwd=ch, bwd=lambda pi: exact_inversion(ch, pi), simple=True)


def identity_lens(dom) -> BayesLens:
    """Identity lens: trivial forward, point-mass backward.

    ``dom`` is a finite space (discrete) or a dimension (Gaussian).
    """
    if isinstance(dom, ds.FiniteSpace):
        return exact_lens(ds.identity_kernel(dom))
    dim = int(dom)
    fwd = gs.g_identity(dim)
    bwd = lambda pi: gs.GaussChannel(
        np.eye(dim), np.zeros(dim), np.zeros((dim, dim)), 0, "right"
    )
    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


def lens_compose(d: BayesLens, c: BayesLens) -> BayesLens:
    """Optic composition: forwards copy-compose; the composite backward at
    ``pi`` runs ``d``'s backward at the pushed prior, then ``c``'s backward,
    retaining the intermediate observation."""
    _same_instance(d.fwd, c.fwd)
    fwd = channel_copy_compose(d.fwd, c.fwd)
    onto = prior_pushforward(c.fwd)

    def bwd(pi):
        back_d = d.bwd(onto(pi))
        back_c = c.bwd(pi)
        return channel_copy_compose(back_c, back_d)

    return BayesLens(fwd=fwd, bwd=bwd, simple=d.simple and c.simple)


def lens_tensor(l1: BayesLens, l2: BayesLens) -> BayesLens:
    """Parallel composite.  The backward family at a joint prior uses the
    marginal priors of the factors; correlations in the joint prior are
    invisible to it (which is exactly what the loss-model laxators
    measure)."""
    _same_instance(l1.fwd, l2.fwd)
    fwd = channel_tensor(l1.fwd, l2.fwd)

    def bwd(omega):
        w1, w2 = prior_marginals(omega, l1.fwd, l2.fwd)
        return channel_tensor(l1.bwd(w1), l2.bwd(w2))

    return BayesLens(fwd=fwd, bwd=bwd, simple=l1.simple and l2.simple)


# ---------------------------------------------------------------------------
# the compositionality residual
# ---------------------------------------------------------------------------


def _channel_deviation(k1: Channel, k2: Channel, supported=None) -> float:
    if isinstance(k1, ds.CoparKernel):
        rows1, rows2 = k1.rows, k2.rows
        if rows1.shape != rows2.shape:
            raise ShapeError("backward channels have different shapes")
        if supported is not None:
            rows1, rows2 = rows1[supported], rows2[supported]
        if rows1.size == 0:
            return 0.0
        return float(np.max(np.abs(rows1 - rows2)))
    parts = [
        np.max(np.abs(k1.A - k2.A), initial=0.0),
        np.max(np.abs(k1.b - k2.b), initial=0.0),
        np.max(np.abs(k1.noise - k2.noise), initial=0.0),
    ]
    return float(max(parts))


def buco_residual(c: BayesLens, d: BayesLens, pi: State) -> float:
    """How far the composite lens's backward is from the exact inversion of
    the composite forward, at one prior.

    Exact Bayesian updates compose optically, so for lenses built by
    ``exact_lens`` this is zero (up to roundoff) on the support of the
    composite pushforward.  Discrete channels are compared entrywise on
    supported observations; Gaussian ones by their parameter triples.
    """
    if not (c.simple and d.simple):
        raise ShapeError("residual is defined for simple lenses")
    composite = lens_compose(d, c)
    via_lens = composite.bwd(pi)
    direct = exact_inversion(composite.fwd, pi)
    supported = None
    if instance_of(pi) == "discrete":
        evidence = prior_pushforward(composite.fwd)(pi)
        supported = evidence.mass > 0
    return _channel_deviation(via_lens, direct, supported)
