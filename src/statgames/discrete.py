"""Finite-discrete probability core.

A channel between finite spaces is a row-stochastic matrix.  Composition
normally marginalizes the intermediate variable (Chapman-Kolmogorov); here we
also provide *copy-composition*, which keeps it:

    (d o2 c)(b, z | a) = d(z | b) * c(b | a)

The retained block of the codomain is called the *coparameter*.  Forward
(copy-composite) channels carry their coparameter as the leading block of the
codomain; Bayesian inversions carry theirs as the trailing block.  All
product spaces are kept in flattened form (a tuple of atomic factors), so
re-bracketing a coparameter never changes the stored array and structural
equalities reduce to entrywise array comparisons.

Effects are extended-nonnegative-real valued vectors (``+inf`` is the value
of ``-log 0``); expectations use the measure-theoretic convention
``0 * inf = 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ShapeError

__all__ = [
    "FiniteSpace",
    "Dist",
    "FiniteKernel",
    "CoparKernel",
    "Effect",
    "SupportMask",
    "space",
    "product_space",
    "unit_space",
    "uniform",
    "point_mass",
    "identity_kernel",
    "discard_kernel",
    "lift_kernel",
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
    "expectation",
    "rows_expectation",
    "rows_relative_entropy",
    "relative_entropy_effect",
    "entropy",
    "almost_sure_eq",
]

#: default tolerance for "entries sum to 1" checks at construction time
NORMALIZATION_ATOL = 1e-12
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
    their factors, which makes the product strictly associative.  Points of
    a product are indexed in C order (first factor slowest).
    """

    factor_labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.factor_labels:
            raise ShapeError("a space needs at least one factor")
        for fl in self.factor_labels:
            if len(fl) == 0:
                raise ShapeError("a factor needs at least one outcome")
            if len(set(fl)) != len(fl):
                raise ShapeError(f"duplicate labels in factor {fl!r}")

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(len(fl) for fl in self.factor_labels)

    @property
    def size(self) -> int:
        n = 1
        for fl in self.factor_labels:
            n *= len(fl)
        return n

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
        """Linear index of an outcome name (atomic or tuple)."""
        if self.n_factors == 1:
            if not isinstance(label, str) and isinstance(label, Sequence):
                (label,) = label
            return self.factor_labels[0].index(label)
        if not isinstance(label, Sequence) or len(label) != self.n_factors:
            raise ShapeError(f"expected a {self.n_factors}-tuple, got {label!r}")
        idx = 0
        for fl, part in zip(self.factor_labels, label):
            idx = idx * len(fl) + fl.index(part)
        return idx

    def product(self, other: "FiniteSpace") -> "FiniteSpace":
        return FiniteSpace(self.factor_labels + other.factor_labels)

    def subspace(self, factor_indices: Iterable[int]) -> "FiniteSpace":
        return FiniteSpace(tuple(self.factor_labels[i] for i in factor_indices))

    def __repr__(self):
        sizes = "x".join(str(s) for s in self.factor_sizes)
        return f"FiniteSpace({sizes})"


def space(labels: Iterable[str]) -> FiniteSpace:
    """Atomic space from outcome names."""
    return FiniteSpace((tuple(labels),))


def product_space(*spaces: FiniteSpace) -> FiniteSpace:
    out = spaces[0]
    for s in spaces[1:]:
        out = out.product(s)
    return out


def unit_space() -> FiniteSpace:
    """The one-point space; the trivial coparameter."""
    return FiniteSpace((("*",),))


def _is_unit(s: FiniteSpace) -> bool:
    return s.size == 1


# ---------------------------------------------------------------------------
# states and channels
# ---------------------------------------------------------------------------


def _check_simplex(vec: np.ndarray, what: str, atol: float) -> None:
    # ``not min >= 0`` also holds for NaN, in the same single pass
    if not vec.min() >= 0:
        raise ShapeError(f"{what} has a negative or NaN entry")
    total = float(vec.sum())
    if abs(total - 1.0) > atol:
        raise ShapeError(f"{what} sums to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution on a finite space."""

    space: FiniteSpace
    mass: np.ndarray
    atol: float = NORMALIZATION_ATOL

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", m)
        if m.shape != (self.space.size,):
            raise ShapeError(
                f"mass has shape {m.shape}, space has size {self.space.size}"
            )
        _check_simplex(m, "distribution", self.atol)
        m.setflags(write=False)

    def support(self) -> "SupportMask":
        return SupportMask(self.space, self.mass > 0)


@dataclass(frozen=True, eq=False)
class SupportMask:
    """Marks the outcomes of strictly positive mass under a reference state."""

    space: FiniteSpace
    supported: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.supported, dtype=bool)
        object.__setattr__(self, "supported", s)
        if s.shape != (self.space.size,):
            raise ShapeError("mask length does not match space size")
        s.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FiniteKernel:
    """A row-stochastic matrix: rows indexed by ``dom``, columns by ``cod``."""

    dom: FiniteSpace
    cod: FiniteSpace
    rows: np.ndarray
    atol: float = NORMALIZATION_ATOL

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", r)
        if r.shape != (self.dom.size, self.cod.size):
            raise ShapeError(
                f"rows have shape {r.shape}, expected "
                f"({self.dom.size}, {self.cod.size})"
            )
        if not r.min() >= 0:
            raise ShapeError("kernel has a negative or NaN entry")
        sums = r.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > self.atol)[0]
        if bad.size:
            i = int(bad[0])
            raise ShapeError(f"row {i} sums to {sums[i]!r}, not 1")
        r.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CoparKernel:
    """A channel whose codomain is a designated product of a retained
    (coparameter) block and an output block.

    ``copar_side`` records where the coparameter sits in the codomain:
    ``"left"`` (leading; the forward convention) or ``"right"`` (trailing;
    the convention for Bayesian inversions).
    """

    dom: FiniteSpace
    copar: FiniteSpace
    out: FiniteSpace
    rows: np.ndarray
    copar_side: str = "left"
    atol: float = NORMALIZATION_ATOL

    def __post_init__(self):
        if self.copar_side not in ("left", "right"):
            raise ShapeError(f"bad copar_side {self.copar_side!r}")
        kernel = FiniteKernel(self.dom, self.cod, self.rows, atol=self.atol)
        object.__setattr__(self, "rows", kernel.rows)

    @property
    def cod(self) -> FiniteSpace:
        if self.copar_side == "left":
            return self.copar.product(self.out)
        return self.out.product(self.copar)

    def as_kernel(self) -> FiniteKernel:
        """Forget the coparameter designation."""
        return FiniteKernel(self.dom, self.cod, self.rows)

    def _split_shape(self) -> tuple[int, int, int]:
        """(dom, leading block, trailing block) sizes of ``rows``."""
        if self.copar_side == "left":
            return self.dom.size, self.copar.size, self.out.size
        return self.dom.size, self.out.size, self.copar.size


Kernelish = Union[FiniteKernel, CoparKernel]


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


def lift_kernel(k: FiniteKernel) -> CoparKernel:
    """Embed a plain channel as a coparameterized one with unit coparameter."""
    return CoparKernel(k.dom, unit_space(), k.cod, k.rows, copar_side="left")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def push(k: Kernelish, pi: Dist) -> Dist:
    """Apply a channel to a state: the pushforward distribution."""
    if pi.space != k.dom:
        raise ShapeError("state space does not match kernel domain")
    return Dist(k.cod, pi.mass @ k.rows)


def compose(d: FiniteKernel, c: FiniteKernel) -> FiniteKernel:
    """Marginal (Chapman-Kolmogorov) composite: run ``c`` then ``d``."""
    if c.cod != d.dom:
        raise ShapeError("codomain of first does not match domain of second")
    return FiniteKernel(c.dom, d.cod, c.rows @ d.rows)


def copy_compose(d: FiniteKernel, c: FiniteKernel) -> CoparKernel:
    """Joint composite retaining the intermediate variable.

    Entry (a -> (b, z)) is ``d(z|b) * c(b|a)``; marginalizing the retained
    block recovers ``compose(d, c)``.
    """
    if c.cod != d.dom:
        raise ShapeError("codomain of first does not match domain of second")
    joint = np.einsum("ab,bz->abz", c.rows, d.rows)
    return CoparKernel(
        c.dom,
        c.cod,
        d.cod,
        joint.reshape(c.dom.size, -1),
        copar_side="left",
    )


def copy_compose_copar(g: CoparKernel, f: CoparKernel) -> CoparKernel:
    """Horizontal composite of coparameterized channels: run ``f`` then ``g``.

    Both must carry their coparameter on the same side.  For the forward
    ("left") convention the composite's coparameter is
    ``f.copar (x) f.out (x) g.copar`` and the codomain is ordered
    ``[f.copar, f.out, g.copar, g.out]``; the mirrored ("right") convention
    gives ``[g.out, g.copar, f.out, f.copar]``.  Factor boundaries are
    preserved, already flattened.
    """
    if f.copar_side != g.copar_side:
        raise ShapeError("cannot compose channels of mixed coparameter side")
    if f.out != g.dom:
        raise ShapeError("output of first does not match domain of second")
    a = f.dom.size
    if f.copar_side == "left":
        fr = f.rows.reshape(a, f.copar.size, f.out.size)
        gr = g.rows.reshape(f.out.size, g.copar.size, g.out.size)
        joint = np.einsum("amb,bnz->ambnz", fr, gr)
        copar = f.copar.product(f.out).product(g.copar)
        return CoparKernel(f.dom, copar, g.out, joint.reshape(a, -1), "left")
    # right: f maps dom -> out (x) copar, g applied to f's out block
    fr = f.rows.reshape(a, f.out.size, f.copar.size)
    gr = g.rows.reshape(f.out.size, g.out.size, g.copar.size)
    joint = np.einsum("abn,bzm->azmbn", fr, gr)
    copar = g.copar.product(f.out).product(f.copar)
    return CoparKernel(f.dom, copar, g.out, joint.reshape(a, -1), "right")


def discard_coparam(f: CoparKernel) -> FiniteKernel:
    """Marginalize the retained block, recovering an ordinary channel."""
    a, lead, trail = f._split_shape()
    r = f.rows.reshape(a, lead, trail)
    if f.copar_side == "left":
        return FiniteKernel(f.dom, f.out, r.sum(axis=1))
    return FiniteKernel(f.dom, f.out, r.sum(axis=2))


def tensor(k1: FiniteKernel, k2: FiniteKernel) -> FiniteKernel:
    """Parallel composite of plain channels (Kronecker product)."""
    return FiniteKernel(
        k1.dom.product(k2.dom),
        k1.cod.product(k2.cod),
        np.kron(k1.rows, k2.rows),
    )


def _permute_columns(
    rows: np.ndarray, col_sizes: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Reorder the blocks of a factored column index."""
    n = rows.shape[0]
    shaped = rows.reshape(n, *col_sizes)
    shaped = shaped.transpose(0, *[p + 1 for p in perm])
    return shaped.reshape(n, -1)


def tensor_copar(f: CoparKernel, g: CoparKernel) -> CoparKernel:
    """Parallel composite of coparameterized channels.

    The raw Kronecker product interleaves the blocks
    ``[copar_f, out_f, copar_g, out_g]``; the result gathers coparameters
    together (``[copar_f, copar_g, out_f, out_g]`` for the forward
    convention, outputs first for inversions).
    """
    if f.copar_side != g.copar_side:
        raise ShapeError("cannot tensor channels of mixed coparameter side")
    raw = np.kron(f.rows, g.rows)
    if f.copar_side == "left":
        sizes = (f.copar.size, f.out.size, g.copar.size, g.out.size)
        rows = _permute_columns(raw, sizes, (0, 2, 1, 3))
    else:
        sizes = (f.out.size, f.copar.size, g.out.size, g.copar.size)
        rows = _permute_columns(raw, sizes, (0, 2, 1, 3))
    return CoparKernel(
        f.dom.product(g.dom),
        f.copar.product(g.copar),
        f.out.product(g.out),
        rows,
        f.copar_side,
    )


def tensor_dist(p1: Dist, p2: Dist) -> Dist:
    return Dist(p1.space.product(p2.space), np.kron(p1.mass, p2.mass))


def marginal_dist(p: Dist, keep: Iterable[int]) -> Dist:
    """Marginal onto a subset of atomic factors (by factor index)."""
    keep = tuple(keep)
    sizes = p.space.factor_sizes
    drop = tuple(i for i in range(len(sizes)) if i not in keep)
    shaped = p.mass.reshape(sizes)
    summed = shaped.sum(axis=drop) if drop else shaped
    # reorder kept axes to the requested order
    order = np.argsort(np.argsort(keep))
    if not np.array_equal(order, np.arange(len(keep))):
        summed = summed.transpose(np.argsort(np.argsort(keep)))
    return Dist(p.space.subspace(keep), summed.reshape(-1))


# ---------------------------------------------------------------------------
# Bayesian inversion
# ---------------------------------------------------------------------------


def bayes_invert(f: CoparKernel, pi: Dist) -> tuple[CoparKernel, SupportMask]:
    """Exact Bayesian inversion of a coparameterized channel at a prior.

    Returns the backward channel ``out -> dom (x) copar`` (coparameter
    trailing) satisfying, for every observation ``b`` of positive
    pushforward mass ``p(b)``:

        rho(a, m | b) * p(b) = f(m, b | a) * pi(a)

    Rows at unsupported observations are uniform; the mask records which
    observations are supported.
    """
    if pi.space != f.dom:
        raise ShapeError("prior space does not match channel domain")
    if f.copar_side != "left":
        raise ShapeError("can only invert a forward (left-coparameter) channel")
    a, m, b = f.dom.size, f.copar.size, f.out.size
    joint = f.rows.reshape(a, m, b) * pi.mass[:, None, None]  # (a, m, b)
    evidence = joint.sum(axis=(0, 1))  # p(b)
    supported = evidence > 0
    # backward rows: (b, a, m)
    back = np.transpose(joint, (2, 0, 1)).reshape(b, a * m)  # joint is ours to overwrite
    back[supported] /= evidence[supported, None]
    back[~supported] = 1.0 / (a * m)
    inv = CoparKernel(f.out, f.copar, pi.space, back, copar_side="right")
    return inv, SupportMask(f.out, supported)


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
    entry makes the expectation ``+inf``.
    """
    pos = probs > 0
    out = probs @ np.where(np.isfinite(values), values, 0.0)
    out[(pos & np.isnan(values)).any(axis=1)] = np.nan
    out[(pos & np.isinf(values)).any(axis=1)] = np.inf
    return out


def expectation(values: np.ndarray, probs: np.ndarray) -> float:
    """``rows_expectation`` for a single probability vector."""
    return float(rows_expectation(values, probs[None])[0])


def effect_precompose(g: Effect, k: Kernelish) -> Effect:
    """Expected effect value under each row of a channel."""
    cod = k.cod
    if cod != g.space:
        raise ShapeError("effect space does not match kernel codomain")
    return Effect(k.dom, rows_expectation(g.values, k.rows))


def rows_relative_entropy(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy of each row of ``p`` from the same row of ``q``;
    ``0 log 0 = 0`` and ``p > 0, q = 0`` gives ``+inf``."""
    with np.errstate(divide="ignore"):
        ratio = np.divide(p, q, out=np.ones_like(p), where=p > 0)
    return np.einsum("ij,ij->i", p, np.log(ratio))


def relative_entropy_effect(k1: Kernelish, k2: Kernelish) -> Effect:
    """Pointwise relative entropy of two parallel channels, as an effect
    on their common domain."""
    if k1.dom != k2.dom or k1.cod != k2.cod:
        raise ShapeError("channels are not parallel")
    return Effect(k1.dom, rows_relative_entropy(k1.rows, k2.rows))


def entropy(p: np.ndarray) -> float:
    """Shannon entropy of a mass vector, in nats."""
    pos = p > 0
    return float(-np.dot(p[pos], np.log(p[pos])))


# ---------------------------------------------------------------------------
# almost-sure comparison
# ---------------------------------------------------------------------------


def almost_sure_eq(
    k1: Kernelish, k2: Kernelish, ref: Dist, tol: float = COMPARE_ATOL
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
