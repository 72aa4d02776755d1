"""Coparameterized Bayesian lenses over the discrete and Gaussian instances.

A lens pairs a forward channel ``X -> M (x) Y`` with a prior-indexed family
of backward channels ``Y -> X (x) M``.  Lenses compose optically: forwards
copy-compose, and the second lens's backward is fed the pushforward of the
prior through the first forward (state families reindex by pre-composition
with the discarded forward).

Backward families are callables: priors form a continuum even in the
discrete case, so they cannot be tabulated.  They must be pure -- equal
priors must yield identical backward channels -- so each is a ``_Last``,
which remembers its last prior, by exact content, and that prior's channel,
and the terms of a law that need one lens's channel at one prior share it.

Every value derived from one object lives in a named slot of that object's
``__dict__``, for as long as the object lives, and nothing a slot holds
refers back to its owner, so a dropped object is freed at once, without the
cyclic collector.  A family's ``(prior, channel)`` pair is a slot of the
family itself.  A channel's slots are its discarded channel
(``discarded``), computed once; its last prior and that prior's pushforward
(``prior_pushforward``); its last prior and that prior's exact inversion
(``BayesLens.inverse``); and its last copy-composite run before or after
another channel (``lens_compose``), so every composite of one pair of
lenses shares one forward, with its slots, and one backward per prior.
The inversion is a property of the forward, not of a lens: every lens on
one forward shares its slot, and a lens whose family is that inversion is
*exact*.  A composable pair's MLE term, ``loss_compose``'s middle prior
and the composite backward all read one pushforward, and the models on one
pair share one discard of each remembered inversion.

A discrete family is also called at a *stack* of priors (a ``Dist`` whose
``mass`` is ``(P, n)``) and returns a stack of channels, or one channel for
every prior, as the families built here and in ``modelio`` do.  Only the
discrete instance batches: a Gaussian family raises ``ShapeError`` for a
stack of states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Union

from . import discrete as ds
from . import gaussian as gs
from .backend import backend_of
from .errors import ShapeError

__all__ = [
    "Channel",
    "State",
    "BayesLens",
    "exact_inversion",
    "prior_marginals",
    "discarded",
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


def exact_inversion(ch: Channel, prior: State) -> Channel:
    """Exact Bayesian inversion; the backward channel only."""
    return backend_of(ch, prior).invert(ch, prior)


def prior_marginals(omega: State, ch1: Channel, ch2: Channel):
    """Split a joint prior on ``dom(ch1) (x) dom(ch2)`` into its marginals."""
    return backend_of(omega).prior_marginals(omega, ch1, ch2)


# ---------------------------------------------------------------------------
# lenses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BayesLens:
    """Forward channel plus prior-indexed backward family.

    ``bwd`` is kept as a ``_Last``.  Left out, it is ``inverse``, the
    remembered exact inversion of ``fwd``, and the lens is ``exact``, as is
    a lens handed that inversion by ``dataclasses.replace``; a lens handed
    any other family is not.  ``marginals`` is not an argument, and
    ``dataclasses.replace`` drops it: the ``_Last`` split of a joint prior
    into the factors' priors, on the lenses ``lens_tensor`` builds.
    """

    fwd: Channel
    bwd: Callable[[State], Channel] | None = None
    marginals: Callable | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.bwd is None:
            object.__setattr__(self, "bwd", _inversion(self.fwd))
        elif not isinstance(self.bwd, _Last):
            object.__setattr__(self, "bwd", _Last(self.bwd))

    @property
    def inverse(self) -> "_Last":
        """The exact inversion of ``fwd``, remembered on ``fwd``."""
        return self.bwd if self.exact else _inversion(self.fwd)

    @property
    def exact(self) -> bool:
        """Whether the backward family is ``fwd``'s own inversion."""
        return self.bwd.home is self.fwd

    @property
    def backend(self):
        """The backend of the instance the lens lives in."""
        return backend_of(self.fwd)


def discarded(ch: Channel) -> Channel:
    """``ch`` with its coparameter discarded, computed on first use and
    kept in a slot of ``ch``.  A discard always builds a new channel."""
    slots = ch.__dict__
    if "_discarded" not in slots:
        slots["_discarded"] = backend_of(ch).discard(ch)
    return slots["_discarded"]


def prior_pushforward(ch: Channel) -> Callable[[State], State]:
    """The map of priors induced by a forward channel (discard, then push):
    a ``_Last`` over ``discarded(ch)`` whose slot is on ``ch``, so every map
    of one channel shares one push."""
    return _Last(functools.partial(_push, discarded(ch)), ch, "_pushforward")


def _inversion(fwd: Channel) -> "_Last":
    """The exact inversion of ``fwd``, a ``_Last`` whose slot is on ``fwd``."""
    return _Last(functools.partial(_invert, fwd), fwd, "_inverse")


def _push(plain: Channel, pi: State) -> State:
    return backend_of(plain).push(plain, pi)


def _invert(ch: Channel, pi: State) -> Channel:
    return exact_inversion(ch, pi)  # looked up at call time, as a tracer wraps it


class _Last:
    """A pure function of a state, remembering its last state and result
    as ``(key, result)`` in the slot ``slot`` of its home's ``__dict__``:
    ``home`` is a channel, whose memos of one slot share it, or ``None``,
    the memo itself.  Called at a state bitwise equal to the last
    (``Backend.content_key``; a discrete stack is its own key), it returns
    the same result without calling ``fn``.  A call that raises is not
    remembered, and a state with no key (a Gaussian stack) goes to ``fn``
    to be refused in its words."""

    def __init__(self, fn: Callable, home: Channel | None = None, slot: str = "last"):
        self.fn, self.home, self.slot = fn, home, slot

    def __call__(self, state):
        try:
            key = backend_of(state).content_key(state)
        except ShapeError:
            return self.fn(state)
        slots = (self if self.home is None else self.home).__dict__
        last = slots.get(self.slot)
        if last is None or key != last[0]:
            last = slots[self.slot] = (key, self.fn(state))
        return last[1]


def reindex(statefn: Callable, ch: Channel) -> Callable:
    """Pre-compose a prior-indexed family with a forward channel.

    ``reindex(f, c)(pi) = f(push(discard(c), pi))``; this is how backward
    families and losses of a second stage see the priors of the first.
    """
    onto = prior_pushforward(ch)
    return lambda pi, *rest: statefn(onto(pi), *rest)


def exact_lens(ch) -> BayesLens:
    """The lens whose backward family is exact Bayesian inversion."""
    if ch.copar_side != "left":
        raise ShapeError("forward channel must carry its coparameter leading")
    return BayesLens(ch)


def identity_lens(dom) -> BayesLens:
    """Identity lens: trivial forward, point-mass backward.

    ``dom`` is a finite space (discrete) or a dimension (Gaussian).
    """
    return BayesLens(*backend_of(dom).identity(dom))


def lens_compose(d: BayesLens, c: BayesLens) -> BayesLens:
    """Optic composition: forwards copy-compose; the composite backward at
    ``pi`` runs ``d``'s backward at the pushed prior, then ``c``'s backward,
    retaining the intermediate observation."""
    fwd = _copy_composed(d.fwd, c.fwd)
    onto = prior_pushforward(c.fwd)

    def bwd(pi):
        back_d = d.bwd(onto(pi))
        return _copy_composed(c.bwd(pi), back_d)

    return BayesLens(fwd=fwd, bwd=bwd)


def _copy_composed(g: Channel, f: Channel) -> Channel:
    """``copy_compose(g, f)`` as ``(id(g), h)`` in ``f``'s slot ``_then`` and
    ``(id(f), h)`` in ``g``'s ``_after``.  A hit needs both ids and one ``h``
    in both slots: neither channel pins the other, and a reused id or a
    pickled clone (whose slots hold a clone of ``h``) misses."""
    then, after = f.__dict__.get("_then"), g.__dict__.get("_after")
    if then and after and then[1] is after[1] and (then[0], after[0]) == (id(g), id(f)):
        return then[1]
    h = backend_of(g, f).copy_compose(g, f)
    f.__dict__["_then"], g.__dict__["_after"] = (id(g), h), (id(f), h)
    return h


def lens_tensor(l1: BayesLens, l2: BayesLens) -> BayesLens:
    """Parallel composite.  The backward family at a joint prior uses the
    marginal priors of the factors; correlations in the joint prior are
    invisible to it (which is exactly what the loss-model laxators
    measure)."""
    backend = backend_of(l1.fwd, l2.fwd)
    fwd = backend.tensor(l1.fwd, l2.fwd)
    split = _Last(lambda omega: prior_marginals(omega, l1.fwd, l2.fwd))

    def bwd(omega):
        w1, w2 = split(omega)
        return backend.tensor(l1.bwd(w1), l2.bwd(w2))

    lens = BayesLens(fwd=fwd, bwd=bwd)
    object.__setattr__(lens, "marginals", split)
    return lens


# ---------------------------------------------------------------------------
# the compositionality residual
# ---------------------------------------------------------------------------


def buco_residual(c: BayesLens, d: BayesLens, pi: State) -> float:
    """How far the composite lens's backward is from the exact inversion of
    the composite forward, at one prior.

    Exact Bayesian updates compose optically, so for lenses built by
    ``exact_lens`` this is zero (up to roundoff) on the support of the
    composite pushforward.  Discrete channels are compared entrywise on
    supported observations; Gaussian ones by their parameter triples.
    """
    composite = lens_compose(d, c)
    return composite.backend.deviation(composite.bwd(pi), composite.inverse(pi), composite.fwd, pi)
