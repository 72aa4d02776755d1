"""Statistical games: lenses with losses, their composition, and the
certification of loss models as strict or lax.

A game pairs a lens with a loss on its priors/observations.  Games compose
horizontally (lens composition plus loss composition).  A 2-cell between
games with the same underlying endpoints is witnessed by a nonnegative loss
``K`` with ``loss(from) = loss(to) + K``; witnesses compose vertically by
summing.

``section_check`` turns "this loss model respects composition" into a
falsifiable numeric claim: for a batch of composable lens pairs and probe
points it evaluates the composition defect

    K(d, c) = compose(L(d), L(c)) - L(d after c)

and classifies the model as STRICT (defect vanishes), LAX (defect is
nonnegative), or VIOLATION.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import math

from .errors import CompositionError, ShapeError, SingularityError, SupportError
from .lens import BayesLens, lens_compose
from .loss import LossFn, LossModel, _loss_sum, loss_compose, loss_for

__all__ = [
    "Game",
    "TwoCellWitness",
    "game_hcompose",
    "game_vcompose",
    "laxness_witness",
    "laxness_witnesses",
    "section_check",
]

#: witnesses smaller than this in absolute value count as zero
STRICT_TOL = 1e-9
#: witnesses below this are genuine negativity, not roundoff
NONNEG_FLOOR = -1e-12


@dataclass(frozen=True, eq=False)
class Game:
    """A lens together with a loss on its priors and observations."""

    lens: BayesLens
    loss: LossFn

    def __post_init__(self):
        if (self.loss.prior_dom, self.loss.obs_dom) != self.lens.backend.doms(self.lens.fwd):
            raise ShapeError("loss spaces do not match the lens endpoints")


def game_hcompose(g2: Game, g1: Game) -> Game:
    """Horizontal composite: run ``g1`` then ``g2``."""
    lens = lens_compose(g2.lens, g1.lens)
    loss = loss_compose(g2.loss, g1.loss, g2.lens, g1.lens)
    return Game(lens=lens, loss=loss)


def _values_match(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


@dataclass(frozen=True, eq=False)
class TwoCellWitness:
    """A 2-cell between games: ``from_game.loss = to_game.loss + K`` with
    ``K >= 0``, re-verified on the declared probe set at construction."""

    from_game: Game
    to_game: Game
    K: LossFn
    probes: tuple = field(default_factory=tuple)
    tol: float = STRICT_TOL
    floor: float = NONNEG_FLOOR

    def __post_init__(self):
        for pi, obs in self.probes:
            lhs = self.from_game.loss(pi, obs)
            k = self.K(pi, obs)
            rhs = self.to_game.loss(pi, obs) + k
            if k < self.floor:
                raise CompositionError(f"witness is negative ({k!r}) at a probe")
            if not _values_match(lhs, rhs, self.tol):
                raise CompositionError(
                    f"witness equation fails at a probe: {lhs!r} != {rhs!r}"
                )


def game_vcompose(w2: TwoCellWitness, w1: TwoCellWitness) -> TwoCellWitness:
    """Vertical composite of witnesses: sum the defects."""
    if w1.to_game != w2.from_game:
        raise CompositionError("witness chain endpoints do not match")
    summed = _loss_sum(w1.K, w2.K)
    probes = tuple(w1.probes) + tuple(w2.probes)
    return TwoCellWitness(
        from_game=w1.from_game,
        to_game=w2.to_game,
        K=summed,
        probes=probes,
        tol=max(w1.tol, w2.tol),
        floor=min(w1.floor, w2.floor),
    )


def _witness_losses(model, d: BayesLens, c: BayesLens) -> tuple[LossFn, LossFn]:
    """The composed losses of a pair and the loss of its composite."""
    composed = loss_compose(loss_for(model, d), loss_for(model, c), d, c)
    return composed, loss_for(model, lens_compose(d, c))


def _defects(composed: list, direct: list) -> list:
    return [
        a if isinstance(a, Exception) else b if isinstance(b, Exception) else a - b
        for a, b in zip(composed, direct)
    ]


def _witness_values(model, d: BayesLens, c: BayesLens, probes) -> list:
    """The composition defect at each probe, or the error raised there (one
    such list per model for a tuple of models)."""
    losses = _witness_losses(model, d, c)
    composed, direct = (loss.at_probes(probes) for loss in losses)
    if isinstance(model, LossModel):
        return _defects(composed, direct)
    if not probes:  # ``at_probes`` gives no rows without a prior
        return [[] for _ in model]
    return [_defects(a, b) for a, b in zip(composed, direct)]


def laxness_witnesses(model, d: BayesLens, c: BayesLens, probes) -> list:
    """Composition defect of a loss model on one composable pair at each
    probe ``(prior, observation)``: composed losses minus the loss of the
    composite.  The losses are built once and evaluated at all probes in
    one pass (``LossFn.at_probes``); the first undefined probe raises.

    A tuple of discrete models gives one list per model, from one composite
    and one form call per loss for all of them (``loss_for``); the first
    undefined probe of the first model that has one raises."""
    ks = _witness_values(model, d, c, probes)
    for row in [ks] if isinstance(model, LossModel) else ks:
        for k in row:
            if isinstance(k, Exception):
                raise k
    return ks


def laxness_witness(model, d: BayesLens, c: BayesLens, pi, obs):
    """``laxness_witnesses`` at a single probe: a float, or a tuple of
    floats for a tuple of models."""
    ks = laxness_witnesses(model, d, c, [(pi, obs)])
    return ks[0] if isinstance(model, LossModel) else tuple(row[0] for row in ks)


def section_check(
    model: LossModel,
    pairs: Sequence[tuple[BayesLens, BayesLens]],
    probes: Sequence[Sequence[tuple]],
    tol: float = STRICT_TOL,
    floor: float = NONNEG_FLOOR,
) -> dict:
    """Classify a loss model's behaviour under lens composition.

    ``pairs[i]`` is a composable pair ``(d, c)`` (run ``c`` first);
    ``probes[i]`` its probe points ``(prior, observation)``.  Probes that
    hit support or singularity errors are skipped and counted.  Returns the
    report dict ``{model, classification, n_pairs, n_probes, worst_K,
    worst_abs_K, skipped}``.
    """
    if len(pairs) != len(probes):
        raise ShapeError("need one probe list per pair")
    ks, skipped = [], 0
    for (d, c), probe_list in zip(pairs, probes):
        try:
            found = _witness_values(model, d, c, probe_list)
        except (SupportError, SingularityError):
            skipped += len(probe_list)
            continue
        ks += [k for k in found if not isinstance(k, Exception)]
        skipped += sum(isinstance(k, Exception) for k in found)
    if any(k < floor for k in ks):
        classification = "VIOLATION"
    elif any(k > tol for k in ks):
        classification = "LAX"
    else:
        classification = "STRICT"
    return {
        "model": model.value,
        "classification": classification,
        "n_pairs": len(pairs),
        "n_probes": len(ks),
        "worst_K": max([-math.inf, *ks]) if ks else None,
        "worst_abs_K": max([0.0, *map(abs, ks)]),
        "skipped": skipped,
    }
