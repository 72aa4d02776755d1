"""Finite-discrete probability core.

A channel between finite spaces is a row-stochastic matrix.  Composition
normally marginalizes the intermediate variable (Chapman-Kolmogorov); here we
also provide *copy-composition*, which keeps it:

    (d o2 c)(b, z | a) = d(z | b) * c(b | a)

The retained block of the codomain is called the *coparameter*, and every
channel is a ``CoparKernel``: a plain channel (``FiniteKernel``) is the case
whose coparameter is the one-point space, the empty product, which adds no
factor to the codomain; ``copy_compose`` and ``tensor`` are
``copy_compose_copar`` and ``tensor_copar`` on such channels.  Forward
(copy-composite) channels carry their coparameter as the leading block of the
codomain; Bayesian inversions carry theirs as the trailing block.  All
product spaces are kept in flattened form (a tuple of atomic factors), so
re-bracketing a coparameter never changes the stored array and structural
equalities reduce to entrywise array comparisons.

Pickling rebuilds a space, a state, a channel or an effect through its
constructor, which checks it again and leaves its arrays read-only; a
channel's slots go with it, each value they hold rebuilt in the same way.

An inversion's rows are a transposed view of its joint; ``_row_sums`` and
``_sum_to_last`` sum them, evidences and discards in memory order, in one
strided pass, with the bits of ``np.add.reduce``.

A *stack* of ``P`` priors on one space is a ``Dist`` whose ``mass`` has
shape ``(P, n)``; a single prior is the case with no leading axis.  The
operations carry leading axes through, so inverting at a stack gives a
stack of channels (``rows`` of shape ``(P, dom, cod)``), and constructors
check a whole stack in one pass over the last axis.

Effects are extended-nonnegative-real valued vectors (``+inf`` is the value
of ``-log 0``); expectations use the measure-theoretic convention
``0 * inf = 0``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np
from numpy._core._multiarray_umath import c_einsum as _einsum

from .errors import ShapeError, _which

__all__ = [
    "FiniteSpace",
    "Dist",
    "FiniteKernel",
    "CoparKernel",
    "Effect",
    "space",
    "product_space",
    "unit_space",
    "uniform",
    "point_mass",
    "identity_kernel",
    "discard_kernel",
    "push",
    "compose",
    "copy_compose",
    "copy_compose_copar",
    "discard_coparam",
    "tensor",
    "tensor_dist",
    "marginal_dist",
    "bayes_invert",
    "effect_add",
    "effect_precompose",
    "rows_expectation",
    "rows_relative_entropy",
    "relative_entropy_effect",
    "entropy",
    "almost_sure_eq",
]

#: tolerance for "entries sum to 1" checks at construction time
NORMALIZATION_ATOL = 1e-12
#: the most float64 entries (512 MiB) a composite or tensored channel, or a
#: seeded random draw, may hold; larger results raise ``ShapeError`` before
#: anything is allocated
MAX_ENTRIES = 2**26
#: default tolerance for entrywise kernel comparisons
COMPARE_ATOL = 1e-9

Label = Union[str, tuple]


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSpace:
    """A finite outcome space, possibly a product of atomic factors.

    ``factor_labels`` holds one tuple of outcome names per atomic factor.
    An atomic space has a single entry; products concatenate the entries of
    their factors, which makes the product strictly associative, and the
    one-point space with no entry its strict unit.  Points of a product are
    indexed in C order (first factor slowest).  ``size``, the number of
    points, is counted once, and is no field: a space is its labels.
    """

    factor_labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for fl in self.factor_labels:
            if len(fl) == 0:
                raise ShapeError("a factor needs at least one outcome")
            if len(set(fl)) != len(fl):
                raise ShapeError(f"duplicate labels in factor {fl!r}")
        object.__setattr__(self, "size", math.prod(map(len, self.factor_labels)))

    def __reduce__(self):
        return type(self), (self.factor_labels,)

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(len(fl) for fl in self.factor_labels)

    @property
    def n_factors(self) -> int:
        return len(self.factor_labels)

    @property
    def labels(self) -> tuple[Label, ...]:
        """Outcome names; tuples of atomic names for product spaces."""
        if self.n_factors == 1:
            return self.factor_labels[0]
        return tuple(itertools.product(*self.factor_labels))

    def index(self, label: Label) -> int:
        """Linear index of an outcome name: an atomic name, or a tuple of
        one name per factor (a 1-tuple on an atomic space).  A string is
        always one name, never a tuple of its characters."""
        parts = label if isinstance(label, Sequence) and not isinstance(label, str) else (label,)
        if len(parts) != self.n_factors:
            raise ShapeError(f"expected a {self.n_factors}-tuple, got {label!r}")
        idx = 0
        for fl, part in zip(self.factor_labels, parts):
            if part not in fl:
                raise ShapeError(f"no outcome {label!r} in {self!r}")
            idx = idx * len(fl) + fl.index(part)
        return idx

    def product(self, *others: "FiniteSpace") -> "FiniteSpace":
        """The product of this space and ``others``, in order, built once."""
        return FiniteSpace(sum((o.factor_labels for o in others), self.factor_labels))

    def subspace(self, factor_indices: Iterable[int]) -> "FiniteSpace":
        return FiniteSpace(tuple(self.factor_labels[i] for i in factor_indices))

    def __repr__(self):
        sizes = "x".join(str(s) for s in self.factor_sizes)
        return f"FiniteSpace({sizes})"


def space(labels: Iterable[str]) -> FiniteSpace:
    """Atomic space from outcome names."""
    return FiniteSpace((tuple(labels),))


def product_space(*spaces: FiniteSpace) -> FiniteSpace:
    return spaces[0].product(*spaces[1:])


def unit_space() -> FiniteSpace:
    """The one-point space, the empty product; the trivial coparameter,
    which adds no factor to a codomain."""
    return FiniteSpace(())


_UNIT = unit_space()


# ---------------------------------------------------------------------------
# states and channels
# ---------------------------------------------------------------------------


def _row_sums(r: np.ndarray) -> np.ndarray:
    """``np.add.reduce(r, axis=-1)`` bit for bit.  Where a kept axis of
    float64 rows is contiguous (an inversion's rows), numpy adds in memory
    order, one short loop over it at a time, and ``c_einsum`` in one strided
    pass; numpy sums the rest, contiguous rows pairwise, unlike einsum."""
    s = r.strides
    if s[-1] == 8 or 8 not in s or min(s) < 8 or r.shape[s.index(8)] < 2:
        return np.add.reduce(r, axis=-1)
    return _einsum("...j->...", r)


def _sum_to_last(x: np.ndarray, spec: str, axes: tuple) -> np.ndarray:
    """``np.add.reduce(x, axis=axes)`` bit for bit, for ``axes`` before the
    last; ``spec`` is the same sum as an einsum, used where the last axis is
    contiguous and kept, as in ``_row_sums``."""
    if x.strides[-1] != 8 or x.shape[-1] < 2 or min(x.strides) < 8:
        return np.add.reduce(x, axis=axes)
    return _einsum(spec, x)


def _check_rows(r: np.ndarray, what: str) -> None:
    """Raise unless every vector along the last axis of ``r`` is a
    probability vector; ``what`` is ``"distribution"`` or ``"row"``."""
    # ``not min >= 0`` also holds for NaN, in the same single pass; the
    # ufuncs reduce directly, as ``ndarray.min`` and ``sum`` add a call each
    if not np.minimum.reduce(r, axis=None) >= 0:
        raise ShapeError(f"{_which(~(r >= 0).all(axis=-1), what)} has a negative or NaN entry")
    sums = _row_sums(r)
    if sums.ndim == 0:  # a single vector: one float compare
        if abs(float(sums) - 1.0) > NORMALIZATION_ATOL:
            raise ShapeError(f"{what} sums to {float(sums)!r}, not 1")
    else:
        bad = np.abs(sums - 1.0) > NORMALIZATION_ATOL
        if np.count_nonzero(bad):
            at = tuple(np.argwhere(bad)[0])
            raise ShapeError(f"{_which(bad, what)} sums to {float(sums[at])!r}, not 1")


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution on a finite space (or a stack of them)."""

    space: FiniteSpace
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", m)
        if m.shape[-1:] != (self.space.size,):
            raise ShapeError(
                f"mass has shape {m.shape}, space has size {self.space.size}"
            )
        _check_rows(m, "distribution")
        m.setflags(write=False)

    def __reduce__(self):
        return type(self), (self.space, self.mass)


@dataclass(frozen=True, eq=False)
class CoparKernel:
    """A channel whose codomain is a designated product of a retained
    (coparameter) block and an output block.

    ``copar_side`` records where the coparameter sits in the codomain:
    ``"left"`` (leading; the forward convention) or ``"right"`` (trailing;
    the convention for Bayesian inversions).  ``rows`` is row-stochastic,
    rows indexed by ``dom`` and columns by ``cod`` (after any stack axes).
    """

    dom: FiniteSpace
    copar: FiniteSpace
    out: FiniteSpace
    rows: np.ndarray
    copar_side: str = "left"

    def __post_init__(self):
        if self.copar_side not in ("left", "right"):
            raise ShapeError(f"bad copar_side {self.copar_side!r}")
        r = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", r)
        shape = (self.dom.size, self.copar.size * self.out.size)
        if r.shape[-2:] != shape:
            raise ShapeError(f"rows have shape {r.shape}, expected {shape}")
        _check_rows(r, "row")
        r.setflags(write=False)

    def __reduce__(self):
        slots = {k: v for k, v in vars(self).items() if k not in self.__dataclass_fields__}
        return type(self), (self.dom, self.copar, self.out, self.rows, self.copar_side), slots

    @property
    def cod(self) -> FiniteSpace:
        cod = getattr(self, "_cod", None)  # built on first use, kept in a slot
        if cod is None:
            cod = self.copar.product(self.out) if self.copar_side == "left" else self.out.product(self.copar)
            object.__setattr__(self, "_cod", cod)
        return cod

    def _split(self) -> np.ndarray:
        """``rows`` with the codomain split into its leading and trailing blocks."""
        lead, trail = (self.copar, self.out) if self.copar_side == "left" else (self.out, self.copar)
        return self.rows.reshape(self.rows.shape[:-2] + (self.dom.size, lead.size, trail.size))


class FiniteKernel(CoparKernel):
    """A plain channel ``dom -> cod``: the coparameterized channel with the
    one-point coparameter, so that ``out`` is ``cod``."""

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, rows):
        super().__init__(dom, _UNIT, cod, rows)

    # the same validation, bound in this class's own namespace: the
    # benchmark's tracer (perfbench/tracer.py) wraps each class's
    # ``__dict__["__post_init__"]`` and counts plain channels through it
    __post_init__ = CoparKernel.__post_init__

    def __reduce__(self):
        cls, (dom, _, out, rows, _), slots = super().__reduce__()
        return cls, (dom, out, rows), slots


# ---------------------------------------------------------------------------
# constructors for common channels
# ---------------------------------------------------------------------------


def uniform(s: FiniteSpace) -> Dist:
    return Dist(s, np.full(s.size, 1.0 / s.size))


def point_mass(s: FiniteSpace, label_or_index) -> Dist:
    i = label_or_index if isinstance(label_or_index, int) else s.index(label_or_index)
    m = np.zeros(s.size)
    m[i] = 1.0
    return Dist(s, m)


def identity_kernel(s: FiniteSpace) -> FiniteKernel:
    return FiniteKernel(s, s, np.eye(s.size))


def discard_kernel(s: FiniteSpace) -> FiniteKernel:
    """The unique channel to the one-point space."""
    return FiniteKernel(s, unit_space(), np.ones((s.size, 1)))


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def push(k: CoparKernel, pi: Dist) -> Dist:
    """Apply a channel to a state (or to each of a stack): the pushforward."""
    if pi.space != k.dom:
        raise ShapeError("state space does not match kernel domain")
    # one-row products, so a prior's pushforward is the same in any stack
    return Dist(k.cod, (pi.mass[..., None, :] @ k.rows)[..., 0, :])


def compose(d: FiniteKernel, c: FiniteKernel) -> FiniteKernel:
    """Marginal (Chapman-Kolmogorov) composite: run ``c`` then ``d``."""
    if c.cod != d.dom:
        raise ShapeError("codomain of first does not match domain of second")
    return FiniteKernel(c.dom, d.cod, c.rows @ d.rows)


def copy_compose(d: FiniteKernel, c: FiniteKernel) -> CoparKernel:
    """Joint composite retaining the intermediate variable.

    Entry (a -> (b, z)) is ``d(z|b) * c(b|a)``; marginalizing the retained
    block recovers ``compose(d, c)``.  This is ``copy_compose_copar`` on
    plain channels.
    """
    return copy_compose_copar(d, c)


def copy_compose_copar(g: CoparKernel, f: CoparKernel) -> CoparKernel:
    """Horizontal composite of coparameterized channels: run ``f`` then ``g``.

    Both must carry their coparameter on the same side.  For the forward
    ("left") convention the composite's coparameter is
    ``f.copar (x) f.out (x) g.copar`` and the codomain is ordered
    ``[f.copar, f.out, g.copar, g.out]``; the mirrored ("right") convention
    gives ``[g.out, g.copar, f.out, f.copar]``.  Factor boundaries are
    preserved, already flattened, so plain channels (unit coparameters)
    compose to the coparameter ``f.out``.
    """
    if f.copar_side != g.copar_side:
        raise ShapeError("cannot compose channels of mixed coparameter side")
    if f.out != g.dom:
        raise ShapeError("output of first does not match domain of second")
    lead = f.rows.shape[:-2] or g.rows.shape[:-2]  # a single channel goes with a stack
    check_entries(math.prod(lead + f.rows.shape[-2:]) * g.rows.shape[-1], "copy-composite")
    # C order, not an inversion's strided layout: each entry is one product,
    # so no bits move, and a one-row slice sums as a stacked copy of it does
    if f.copar_side == "left":
        joint = np.einsum("...amb,...bnz->...ambnz", f._split(), g._split(), order="C")
        copar = f.copar.product(f.out, g.copar)
    else:  # f maps dom -> out (x) copar, g applied to f's out block
        joint = np.einsum("...abn,...bzm->...azmbn", f._split(), g._split(), order="C")
        copar = g.copar.product(f.out, f.copar)
    rows = joint.reshape(lead + (f.dom.size, -1))
    return CoparKernel(f.dom, copar, g.out, rows, f.copar_side)


def check_entries(n: int, what: str) -> None:
    """Refuse a result of ``n`` entries over ``MAX_ENTRIES``, before it is
    allocated."""
    if n > MAX_ENTRIES:
        raise ShapeError(
            f"the {what} would hold {n:,} entries ({8 * n:,} bytes), "
            f"over the limit of {MAX_ENTRIES:,}"
        )


def discard_coparam(f: CoparKernel) -> FiniteKernel:
    """Marginalize the retained block, recovering an ordinary channel."""
    r = f._split()
    rows = _sum_to_last(r, "...cmz->...cz", (-2,)) if f.copar_side == "left" else _row_sums(r)
    return FiniteKernel(f.dom, f.out, rows)


def tensor(k1: FiniteKernel, k2: FiniteKernel) -> CoparKernel:
    """Parallel composite of plain channels (Kronecker product): this is
    ``tensor_copar`` on one-point coparameters."""
    return tensor_copar(k1, k2)


def tensor_copar(f: CoparKernel, g: CoparKernel) -> CoparKernel:
    """Parallel composite of coparameterized channels.

    The Kronecker product of the rows would interleave the blocks
    ``[copar_f, out_f, copar_g, out_g]``; the result gathers coparameters
    together (``[copar_f, copar_g, out_f, out_g]`` for the forward
    convention, outputs first for inversions).
    """
    if f.copar_side != g.copar_side:
        raise ShapeError("cannot tensor channels of mixed coparameter side")
    lead = f.rows.shape[:-2] or g.rows.shape[:-2]
    check_entries(math.prod(lead + f.rows.shape[-2:] + g.rows.shape[-2:]), "tensor")
    # C order, as in ``copy_compose_copar``
    joint = np.einsum("...apq,...brs->...abprqs", f._split(), g._split(), order="C")
    rows = joint.reshape(lead + (f.dom.size * g.dom.size, -1))
    return CoparKernel(
        f.dom.product(g.dom),
        f.copar.product(g.copar),
        f.out.product(g.out),
        rows,
        f.copar_side,
    )


def tensor_dist(p1: Dist, p2: Dist) -> Dist:
    mass = p1.mass[..., :, None] * p2.mass[..., None, :]
    return Dist(p1.space.product(p2.space), mass.reshape(mass.shape[:-2] + (-1,)))


def marginal_dist(p: Dist, keep: Iterable[int]) -> Dist:
    """Marginal onto a subset of atomic factors (by factor index)."""
    keep = tuple(keep)
    sizes = p.space.factor_sizes
    lead = p.mass.shape[:-1]
    drop = tuple(len(lead) + i for i in range(len(sizes)) if i not in keep)
    shaped = p.mass.reshape(lead + sizes)
    summed = shaped.sum(axis=drop) if drop else shaped
    # reorder kept axes to the requested order
    order = [sorted(keep).index(i) for i in keep]
    if order != sorted(order):
        summed = summed.transpose(*range(len(lead)), *(len(lead) + j for j in order))
    return Dist(p.space.subspace(keep), summed.reshape(lead + (-1,)))


# ---------------------------------------------------------------------------
# Bayesian inversion
# ---------------------------------------------------------------------------


def bayes_invert(f: CoparKernel, pi: Dist) -> CoparKernel:
    """Exact Bayesian inversion of a coparameterized channel at a prior.

    Returns the backward channel ``out -> dom (x) copar`` (coparameter
    trailing) satisfying, for every observation ``b`` of positive
    pushforward mass ``p(b)``:

        rho(a, m | b) * p(b) = f(m, b | a) * pi(a)

    Rows at unsupported observations are uniform; a stack of priors gives a
    stack of channels.
    """
    if pi.space != f.dom:
        raise ShapeError("prior space does not match channel domain")
    if f.copar_side != "left":
        raise ShapeError("can only invert a forward (left-coparameter) channel")
    a, m, b = f.dom.size, f.copar.size, f.out.size
    lead = pi.mass.shape[:-1]
    k = len(lead)
    joint = f.rows.reshape(a, m, b) * pi.mass[..., :, None, None]  # (..., a, m, b)
    evidence = _sum_to_last(joint, "...amb->...b", (k, k + 1))  # p(b)
    supported = evidence > 0
    # backward rows: (..., b, a, m)
    back = joint.transpose(*range(k), k + 2, k, k + 1).reshape(lead + (b, a * m))  # joint is ours to overwrite
    # unsupported rows are zero: dividing them by one leaves them to be filled
    back /= np.where(supported, evidence, 1.0)[..., None]
    if np.count_nonzero(supported) < supported.size:
        back[~supported] = 1.0 / (a * m)
    return CoparKernel(f.out, f.copar, pi.space, back, copar_side="right")


# ---------------------------------------------------------------------------
# effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Effect:
    """An extended-nonnegative-real-valued observable on a finite space."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.size,):
            raise ShapeError("effect length does not match space size")
        if not v.min() >= 0:
            raise ShapeError("effect entries must be in [0, +inf]")
        v.setflags(write=False)

    def __reduce__(self):
        return type(self), (self.space, self.values)


def effect_add(g: Effect, g2: Effect) -> Effect:
    """Pointwise sum on a shared space (the copy-precomposed effect sum)."""
    if g.space != g2.space:
        raise ShapeError("effects live on different spaces")
    return Effect(g.space, g.values + g2.values)


def rows_expectation(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Expectation of ``values`` under each row of ``probs``, with the
    ``0 * inf = 0`` convention.

    ``values`` may contain ``+inf`` (or NaN); such entries count only in
    rows that give them strictly positive probability, where an infinite
    entry makes the expectation ``+inf``.  Leading axes broadcast.
    """
    pos = probs > 0
    out = (probs @ np.where(np.isfinite(values), values, 0.0)[..., None])[..., 0]
    out[(pos & np.isnan(values)[..., None, :]).any(axis=-1)] = np.nan
    out[(pos & np.isinf(values)[..., None, :]).any(axis=-1)] = np.inf
    return out


def effect_precompose(g: Effect, k: CoparKernel) -> Effect:
    """Expected effect value under each row of a channel."""
    cod = k.cod
    if cod != g.space:
        raise ShapeError("effect space does not match kernel codomain")
    return Effect(k.dom, rows_expectation(g.values, k.rows))


def rows_relative_entropy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy of each row of ``p`` from that of ``q`` (leading axes
    broadcast); ``0 log 0 = 0`` and ``p > 0, q = 0`` gives ``+inf``."""
    p, q = np.broadcast_arrays(p, q)
    with np.errstate(divide="ignore"):
        ratio = np.divide(p, q, out=np.ones_like(p), where=p > 0)
    return np.einsum("...j,...j->...", p, np.log(ratio, out=ratio))


def relative_entropy_effect(k1: CoparKernel, k2: CoparKernel) -> Effect:
    """Pointwise relative entropy of two parallel channels, as an effect
    on their common domain."""
    if k1.dom != k2.dom or k1.cod != k2.cod:
        raise ShapeError("channels are not parallel")
    return Effect(k1.dom, rows_relative_entropy(k1.rows, k2.rows))


def entropy(p: np.ndarray) -> float:
    """Shannon entropy of a mass vector, in nats."""
    pos = p > 0
    return float(0.0 - np.dot(p[pos], np.log(p[pos])))  # +0.0 for a point mass


# ---------------------------------------------------------------------------
# almost-sure comparison
# ---------------------------------------------------------------------------


def almost_sure_eq(
    k1: CoparKernel, k2: CoparKernel, ref: Dist, tol: float = COMPARE_ATOL
) -> bool:
    """Entrywise equality of rows at every domain point of positive
    reference mass.  Rows over null sets are ignored."""
    if k1.dom != k2.dom:
        raise ShapeError("kernels have different domains")
    if k1.rows.shape != k2.rows.shape:
        raise ShapeError("kernels have different codomain sizes")
    if ref.space != k1.dom:
        raise ShapeError("reference state is not on the common domain")
    rows = ref.mass > 0
    diff = np.abs(k1.rows[rows] - k2.rows[rows])
    return bool(diff.size == 0 or diff.max() <= tol)
