"""Affine-Gaussian channels: the continuous instance of the channel calculus.

A channel here is ``x -> N(A x + b, noise)``; these are closed under
pushforward, copy-composition, tensoring, and exact (conjugate) Bayesian
inversion, so every law that the discrete instance certifies by enumeration
can be certified in closed form here.

Codomain block conventions mirror the discrete module: forward channels keep
their retained (coparameter) block leading, inversions keep it trailing.
Covariances must be symmetric PSD; eigenvalues in ``[-PSD_CLAMP, 0)`` are
treated as roundoff and clamped to zero, anything lower is an error.
Operations that need an inverse covariance raise ``SingularityError`` rather
than regularizing silently.

A *stack* of ``P`` states of one dimension ``d`` is a ``GaussState`` whose
``mean`` is ``(P, d)`` and whose ``cov`` is ``(P, d, d)``; its constructor
checks every entry as the entry's own construction would, in one pass.
Only ``g_kl`` takes a stack (as its first state), giving each entry's
divergence; every other operation raises ``ShapeError`` for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, SingularityError

__all__ = [
    "GaussState",
    "GaussChannel",
    "g_apply",
    "g_push",
    "g_compose",
    "g_copy_compose",
    "g_discard_coparam",
    "g_invert",
    "g_kl",
    "g_entropy",
    "g_logpdf",
    "g_tensor_state",
    "g_tensor_channel",
    "g_marginal_state",
    "g_identity",
    "gauss_expect_quadratic",
    "gauss_hermite_expect",
]

#: magnitude below which a negative covariance eigenvalue counts as roundoff
PSD_CLAMP = 1e-10
LOG_2PI = math.log(2.0 * math.pi)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, checked to hold finite numbers.  Constructors run this on
    every array, so it avoids ``ndarray.all``'s Python-level overhead: one
    ``math.isfinite`` for a single entry, a C-level count otherwise."""
    if not (math.isfinite(a.item()) if a.size == 1 else np.count_nonzero(np.isfinite(a)) == a.size):
        raise ShapeError(f"{what} must hold finite numbers")
    return a


def _as_psd(m, what: str) -> np.ndarray:
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim > 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} is not a square matrix: {a.shape}")
    if a.shape == (1, 1):
        v = _finite(a, what).item()
        if v < -PSD_CLAMP:
            raise ShapeError(f"{what} has eigenvalue {v:.3e} < 0")
        a = np.array([[max(v, 0.0)]])
        a.setflags(write=False)
        return a
    if a.size and np.max(np.abs(_finite(a, what) - a.T)) > PSD_CLAMP:
        raise ShapeError(f"{what} is not symmetric")
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    if w.size and w[0] < -PSD_CLAMP:
        raise ShapeError(f"{what} has eigenvalue {w[0]:.3e} < 0")
    if w.size and w[0] < 0:
        a = _project_psd(a)
    a.setflags(write=False)
    return a


def _project_psd(a: np.ndarray) -> np.ndarray:
    """A symmetric matrix with roundoff-scale negativity, projected onto
    the PSD cone."""
    vals, vecs = np.linalg.eigh(a)
    a = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (a + a.T)


def _entry(what: str, bad: np.ndarray) -> str:
    """``what``, naming the first stack entry ``bad`` marks."""
    return f"{what} of stack entry {(int(np.argmax(bad)),)}"


def _check_stack(mu: np.ndarray, cov) -> np.ndarray:
    """The covariances of the stack of means ``mu``, checked entry by entry
    as ``_as_psd`` checks one and stored as it stores one, in one pass over
    the stack; an error names the first entry that fails the check it
    reports."""
    cov = np.asarray(cov, dtype=float)
    if mu.ndim != 2 or not len(mu) or cov.shape != mu.shape + mu.shape[-1:]:
        raise ShapeError(
            "a stack of states needs means (P, d) and covariances (P, d, d) with P > 0, "
            f"not {mu.shape} and {cov.shape}"
        )
    for arr, what in ((mu, "mean"), (cov, "covariance")):
        bad = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
        if bad.any():
            raise ShapeError(f"{_entry(what, bad)} must hold finite numbers")
    d = mu.shape[1]
    if d == 1:
        low = cov[:, 0, 0]  # a 1x1 entry is its own eigenvalue
    else:
        flipped = cov.swapaxes(-1, -2)
        bad = np.max(np.abs(cov - flipped), axis=(-2, -1), initial=0.0) > PSD_CLAMP
        if bad.any():
            raise ShapeError(f"{_entry('covariance', bad)} is not symmetric")
        cov = 0.5 * (cov + flipped)
        low = np.linalg.eigvalsh(cov)[:, 0] if d else np.zeros(len(cov))
    bad = low < -PSD_CLAMP
    if bad.any():
        raise ShapeError(f"{_entry('covariance', bad)} has eigenvalue {low[bad.argmax()]:.3e} < 0")
    if d == 1:
        cov = np.where(cov < 0.0, 0.0, cov)  # as ``max(v, 0.0)``, which keeps a -0.0
    else:
        for i in np.flatnonzero(low < 0):
            cov[i] = _project_psd(cov[i])
    cov.setflags(write=False)
    return cov


def _single(s: "GaussState", op: str) -> "GaussState":
    """``s``, checked to be one state and not a stack: ``op`` takes one."""
    if s.mean.ndim != 1:
        raise ShapeError(f"{op} takes a single state, not a stack of {len(s.mean)}")
    return s


def _chol(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularityError(f"{what} is singular") from None


def _state_chol(s: "GaussState", what: str) -> np.ndarray:
    """The Cholesky factor of one state's covariance, computed on first use
    and kept in a slot of ``s`` for as long as it lives.  A singular
    covariance raises ``SingularityError`` naming ``what`` on every call and
    is not remembered."""
    slots = s.__dict__
    if "_cholesky" not in slots:
        slots["_cholesky"] = l = _chol(s.cov, what)
        l.setflags(write=False)
    return slots["_cholesky"]


@dataclass(frozen=True, eq=False)
class GaussState:
    """A Gaussian distribution: mean vector and symmetric PSD covariance
    (or a stack of them: means ``(P, d)``, covariances ``(P, d, d)``).

    A single state remembers the Cholesky factor of its covariance once a
    density, a divergence from it or its entropy has needed it."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float)
        if mu.ndim > 1:  # a stack, on its own branch: one state's checks cost no more
            cov = _check_stack(mu, self.cov)
        else:
            mu = _finite(np.atleast_1d(mu), "mean")
            cov = _as_psd(self.cov, "covariance")
            if cov.shape != (mu.size, mu.size):
                raise ShapeError("mean and covariance dimensions differ")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", cov)
        mu.setflags(write=False)

    @property
    def dim(self) -> int:
        """The dimension of the state (of each state of a stack)."""
        return self.mean.shape[-1]


@dataclass(frozen=True, eq=False)
class GaussChannel:
    """The affine-Gaussian channel ``x -> N(A x + b, noise)``.

    ``copar_dim`` marks the size of the retained block of the codomain;
    ``copar_side`` says whether it leads ("left", forward channels) or
    trails ("right", inversions).
    """

    A: np.ndarray
    b: np.ndarray
    noise: np.ndarray
    copar_dim: int = 0
    copar_side: str = "left"

    def __post_init__(self):
        A = _finite(np.atleast_2d(np.asarray(self.A, dtype=float)), "A")
        b = _finite(np.atleast_1d(np.asarray(self.b, dtype=float)), "b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "noise", _as_psd(self.noise, "channel noise"))
        if b.size != A.shape[0] or self.noise.shape != (A.shape[0], A.shape[0]):
            raise ShapeError("A, b, noise dimensions are inconsistent")
        if self.copar_side not in ("left", "right"):
            raise ShapeError(f"bad copar_side {self.copar_side!r}")
        if not 0 <= self.copar_dim <= A.shape[0]:
            raise ShapeError("copar_dim exceeds codomain dimension")
        A.setflags(write=False)
        b.setflags(write=False)

    @property
    def dom_dim(self) -> int:
        return self.A.shape[1]

    @property
    def cod_dim(self) -> int:
        return self.A.shape[0]

    @property
    def out_dim(self) -> int:
        return self.cod_dim - self.copar_dim


def g_identity(dim: int) -> GaussChannel:
    return GaussChannel(np.eye(dim), np.zeros(dim), np.zeros((dim, dim)))


def g_apply(c: GaussChannel, x) -> GaussState:
    """The conditional distribution at a single input point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size != c.dom_dim:
        raise ShapeError(f"input of shape {x.shape} is not a point of the channel's domain")
    return GaussState(c.A @ x + c.b, c.noise)


def g_push(c: GaussChannel, s: GaussState) -> GaussState:
    """Pushforward of a Gaussian state through the channel."""
    if _single(s, "g_push").dim != c.dom_dim:
        raise ShapeError("state dimension does not match channel domain")
    return GaussState(c.A @ s.mean + c.b, c.A @ s.cov @ c.A.T + c.noise)


def _out_rows(c: GaussChannel) -> slice:
    """Rows of the codomain holding the output block."""
    if c.copar_side == "left":
        return slice(c.copar_dim, c.cod_dim)
    return slice(0, c.out_dim)


def g_compose(d: GaussChannel, c: GaussChannel) -> GaussChannel:
    """Marginal composite: run ``c``, feed its output block to ``d``."""
    sel = np.eye(c.cod_dim)[_out_rows(c)]
    if sel.shape[0] != d.dom_dim:
        raise ShapeError("output of first does not match domain of second")
    A = d.A @ sel @ c.A
    b = d.A @ sel @ c.b + d.b
    noise = d.A @ sel @ c.noise @ sel.T @ d.A.T + d.noise
    return GaussChannel(A, b, noise, copar_dim=d.copar_dim, copar_side=d.copar_side)


def g_copy_compose(d: GaussChannel, c: GaussChannel) -> GaussChannel:
    """Joint composite retaining everything ``c`` produced.

    For forward channels the codomain is ordered
    ``[c.copar, c.out, d.copar, d.out]`` with everything before ``d.out``
    retained; for inversions ("right") it is ``[d.out, d.copar, c.out,
    c.copar]`` with everything after ``d.out`` retained.
    """
    if c.copar_side != d.copar_side:
        raise ShapeError("cannot compose channels of mixed coparameter side")
    sel = np.eye(c.cod_dim)[_out_rows(c)]
    if sel.shape[0] != d.dom_dim:
        raise ShapeError("output of first does not match domain of second")
    eye_c, zeros_c = np.eye(c.cod_dim), np.zeros(c.cod_dim)
    extra = np.zeros((c.cod_dim + d.cod_dim,) * 2)
    if c.copar_side == "left":
        stack, shift = np.vstack([eye_c, d.A @ sel]), np.concatenate([zeros_c, d.b])
        extra[c.cod_dim :, c.cod_dim :] = d.noise
    else:
        stack, shift = np.vstack([d.A @ sel, eye_c]), np.concatenate([d.b, zeros_c])
        extra[: d.cod_dim, : d.cod_dim] = d.noise
    copar_dim = c.cod_dim + d.copar_dim
    A = stack @ c.A
    b = stack @ c.b + shift
    noise = stack @ c.noise @ stack.T + extra
    return GaussChannel(A, b, noise, copar_dim=copar_dim, copar_side=c.copar_side)


def g_discard_coparam(c: GaussChannel) -> GaussChannel:
    """Drop the retained block, keeping only the output block."""
    rows = _out_rows(c)
    return GaussChannel(
        c.A[rows], c.b[rows], c.noise[rows, rows], copar_dim=0, copar_side="left"
    )


def g_invert(c: GaussChannel, prior: GaussState) -> GaussChannel:
    """Exact Bayesian inversion of a forward channel at a Gaussian prior.

    Conditions the joint of ``(x, coparameter)`` on the output block and
    returns the backward channel ``y -> N(.., ..)`` over
    ``dom (+) coparameter`` (coparameter trailing).  The output-block
    covariance of the joint must be nonsingular.
    """
    if c.copar_side != "left":
        raise ShapeError("can only invert a forward (left-coparameter) channel")
    if _single(prior, "g_invert").dim != c.dom_dim:
        raise ShapeError("prior dimension does not match channel domain")
    dm = c.copar_dim
    mean_cod = c.A @ prior.mean + c.b
    cov_x_cod = prior.cov @ c.A.T  # cov(x, (m, y))
    cov_cod = c.A @ prior.cov @ c.A.T + c.noise
    # z = (x, m), conditioned on y; the blocks are copied into place
    dx, dy = prior.dim, c.out_dim
    mean_z = np.concatenate([prior.mean, mean_cod[:dm]])
    mean_y = mean_cod[dm:]
    cov_zz = np.empty((dx + dm, dx + dm))
    cov_zz[:dx, :dx] = prior.cov
    cov_zz[:dx, dx:] = cov_x_cod[:, :dm]
    cov_zz[dx:, :dx] = cov_x_cod[:, :dm].T
    cov_zz[dx:, dx:] = cov_cod[:dm, :dm]
    cov_zy = np.empty((dx + dm, dy))
    cov_zy[:dx] = cov_x_cod[:, dm:]
    cov_zy[dx:] = cov_cod[:dm, dm:]
    cov_yy = cov_cod[dm:, dm:]
    try:
        gain = np.linalg.solve(cov_yy, cov_zy.T).T
    except np.linalg.LinAlgError:
        raise SingularityError("output covariance block is singular") from None
    if not np.all(np.isfinite(gain)):
        raise SingularityError("output covariance block is singular")
    post_cov = cov_zz - gain @ cov_zy.T
    return GaussChannel(
        gain,
        mean_z - gain @ mean_y,
        post_cov,
        copar_dim=dm,
        copar_side="right",
    )


def g_kl(p: GaussState, q: GaussState):
    """Relative entropy between Gaussians (nats); requires ``q`` nonsingular.

    A singular ``p`` is not absolutely continuous with respect to ``q`` and
    yields ``+inf``.  For a stack ``p`` of ``P`` states this is the ``(P,)``
    array of each entry's divergence from ``q``, bitwise equal to the
    entry's own call; a singular entry gives ``+inf`` on its own.
    """
    if p.dim != _single(q, "g_kl's second argument").dim:
        raise ShapeError("states have different dimensions")
    lq = _state_chol(q, "second covariance")
    # every step maps each entry alone (a stack of solves, of dot products)
    root = np.linalg.solve(lq, p.cov).swapaxes(-1, -2)
    trace = np.trace(np.linalg.solve(lq, root), axis1=-2, axis2=-1)
    delta = np.linalg.solve(lq, (q.mean - p.mean)[..., None])[..., 0]
    maha = np.vecdot(delta, delta)
    sign, logdet_p = np.linalg.slogdet(p.cov)
    logdet_q = 2.0 * float(np.log(np.diag(lq)).sum())
    kl = np.where(sign > 0, 0.5 * (trace + maha - p.dim + logdet_q - logdet_p), np.inf)
    return float(kl) if kl.ndim == 0 else kl


def g_entropy(s: GaussState) -> float:
    """Differential entropy ``0.5 * ln det(2 pi e cov)`` in nats."""
    l = _state_chol(_single(s, "g_entropy"), "covariance")
    logdet = 2.0 * float(np.log(np.diag(l)).sum())
    return 0.5 * (s.dim * (1.0 + LOG_2PI) + logdet)


def g_logpdf(s: GaussState, x) -> float:
    """Multivariate normal log-density at a point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size != _single(s, "g_logpdf").dim:
        raise ShapeError("point dimension does not match state")
    l = _state_chol(s, "covariance")
    logdet = 2.0 * float(np.log(np.diag(l)).sum())
    u = np.linalg.solve(l, x - s.mean)
    return -0.5 * (s.dim * LOG_2PI + logdet + float(u @ u))


# ---------------------------------------------------------------------------
# tensors and marginals
# ---------------------------------------------------------------------------


def g_tensor_state(s1: GaussState, s2: GaussState) -> GaussState:
    _single(s1, "g_tensor_state")
    _single(s2, "g_tensor_state")
    mean = np.concatenate([s1.mean, s2.mean])
    cov = np.zeros((s1.dim + s2.dim, s1.dim + s2.dim))
    cov[: s1.dim, : s1.dim] = s1.cov
    cov[s1.dim :, s1.dim :] = s2.cov
    return GaussState(mean, cov)


def g_marginal_state(s: GaussState, idx: Sequence[int]) -> GaussState:
    idx = np.asarray(idx, dtype=int)
    _single(s, "g_marginal_state")
    return GaussState(s.mean[idx], s.cov[np.ix_(idx, idx)])


def _tensor_perm(c1: GaussChannel, c2: GaussChannel) -> np.ndarray:
    """Codomain reordering that gathers the two retained blocks together."""
    n1, n2 = c1.cod_dim, c2.cod_dim
    # the leading blocks: coparameters of forward channels, outputs of inversions
    left = c1.copar_side == "left"
    k1, k2 = (c1.copar_dim, c2.copar_dim) if left else (c1.out_dim, c2.out_dim)
    order = [np.arange(k1), n1 + np.arange(k2), np.arange(k1, n1), n1 + np.arange(k2, n2)]
    return np.concatenate(order).astype(int)


def g_tensor_channel(c1: GaussChannel, c2: GaussChannel) -> GaussChannel:
    """Parallel composite; codomain blocks gathered as in the discrete case."""
    if c1.copar_side != c2.copar_side:
        raise ShapeError("cannot tensor channels of mixed coparameter side")
    d1, d2 = c1.dom_dim, c2.dom_dim
    A = np.zeros((c1.cod_dim + c2.cod_dim, d1 + d2))
    A[: c1.cod_dim, :d1] = c1.A
    A[c1.cod_dim :, d1:] = c2.A
    b = np.concatenate([c1.b, c2.b])
    noise = np.zeros((c1.cod_dim + c2.cod_dim,) * 2)
    noise[: c1.cod_dim, : c1.cod_dim] = c1.noise
    noise[c1.cod_dim :, c1.cod_dim :] = c2.noise
    perm = _tensor_perm(c1, c2)
    return GaussChannel(
        A[perm],
        b[perm],
        noise[np.ix_(perm, perm)],
        copar_dim=c1.copar_dim + c2.copar_dim,
        copar_side=c1.copar_side,
    )


# ---------------------------------------------------------------------------
# Gaussian expectations
# ---------------------------------------------------------------------------


def gauss_expect_quadratic(value_at_mean: float, hessian, cov) -> float:
    """Expectation of a quadratic function under a Gaussian.

    For phi with constant Hessian H, ``E[phi] = phi(mean) + tr(cov H) / 2``.
    """
    return float(value_at_mean) + 0.5 * float(np.trace(np.asarray(cov) @ np.asarray(hessian)))


def gauss_hermite_expect(
    s: GaussState, fn: Callable[[np.ndarray], float], order: int = 3
) -> float:
    """Expectation of ``fn`` under ``s`` by tensorized Gauss-Hermite
    quadrature.  Exact (to roundoff) for integrands of polynomial degree
    below ``2 * order`` in each coordinate, in particular for quadratics at
    the default order.  Handles singular covariances via an eigenfactor.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / math.sqrt(2.0 * math.pi)
    vals, vecs = np.linalg.eigh(_single(s, "gauss_hermite_expect").cov)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    total = 0.0
    d = s.dim
    for combo in np.ndindex(*([order] * d)):
        u = np.array([nodes[i] for i in combo])
        w = float(np.prod([weights[i] for i in combo]))
        total += w * float(fn(s.mean + factor @ u))
    return total
