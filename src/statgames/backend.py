"""One backend object per instance of the channel calculus.

The discrete and the affine-Gaussian instances support the same operations
(channel algebra, prior marginals, backward-channel comparison, the spaces
a lens's losses live on, model JSON, command-line observations and seeded
random draws); each has one backend object holding them, and ``backend_of``
picks it once from an object's type.  Backends reach the instance modules
through their attributes at call time (``ds.push``, ``gs.g_invert``) and
keep no function objects, so a wrapper installed on a module attribute sees
every call.
"""

from __future__ import annotations

import json
import numbers
from typing import Sequence

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import ModelParseError, ShapeError

__all__ = ["Discrete", "Gaussian", "DISCRETE", "GAUSSIAN", "BACKENDS", "backend_of"]

#: fraction of uniform mass mixed into generated rows; keeps every entry
#: bounded away from zero so almost-sure caveats never trigger by accident
POSITIVITY_MIX = 0.05


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _via(module, name: str):
    """A static method that calls ``module.<name>`` as bound at call time."""
    return staticmethod(lambda *args: getattr(module, name)(*args))


def _space(obj, key) -> ds.FiniteSpace:
    """Field ``key`` as a finite space: a list of labels is one factor, and
    a list of such lists a product of factors."""
    val = obj.get(key)
    nested = isinstance(val, list) and val and all(isinstance(f, list) for f in val)
    factors = val if nested else [val]
    if any(not isinstance(f, Sequence) or isinstance(f, str) or not f for f in factors):
        raise ModelParseError(f"field {key!r} must be a non-empty list of labels")
    return ds.FiniteSpace(tuple(tuple(str(x) for x in f) for f in factors))


def _holds_bool(val) -> bool:
    """Whether a parsed JSON value is, or nests, ``true`` or ``false``
    (which numpy would read as 1 and 0)."""
    return any(map(_holds_bool, val)) if isinstance(val, list) else isinstance(val, bool)


def _numbers(obj, key) -> np.ndarray:
    """Field ``key`` as a float array: a finite number or a rectangular
    nested list of finite numbers."""
    if key not in obj:
        raise ModelParseError(f"missing field {key!r}")
    if _holds_bool(obj[key]):
        raise ModelParseError(f"field {key!r} must hold numbers, not true or false")
    try:
        arr = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ModelParseError(
            f"field {key!r} must be a number or a rectangular list of numbers"
        ) from None
    finite = np.isfinite(arr)
    if not finite.all():
        first = tuple(np.argwhere(~np.atleast_1d(finite))[0])
        value = json.dumps(float(np.atleast_1d(arr)[first]))
        where = f"row {first[0]}" if arr.ndim > 1 else f"entry {first[0]}" if arr.ndim else "it"
        raise ModelParseError(f"field {key!r} must hold finite numbers; {where} holds {value}")
    return arr


def _built(make, *args, **kwargs):
    """A parsed value, with its constructor's ``ShapeError`` as a parse error."""
    try:
        return make(*args, **kwargs)
    except ShapeError as e:
        raise ModelParseError(str(e)) from None


def _floats(arr) -> list:
    return [_floats(row) for row in arr] if np.ndim(arr) > 1 else list(map(float, arr))


def _flat_labels(space: ds.FiniteSpace) -> list[str]:
    return ["|".join(l) if isinstance(l, tuple) else l for l in space.labels]


def _written(space: ds.FiniteSpace) -> list:
    """The labels of ``space`` in a model file: one list per factor of a
    product."""
    return [list(f) for f in space.factor_labels] if space.n_factors > 1 else _flat_labels(space)


def _describe_space(s: ds.FiniteSpace) -> str:
    return f"size {s.size}, factors {list(s.factor_sizes)}"


def _eigen_range(m: np.ndarray) -> str:
    eig = np.linalg.eigvalsh(m)
    return f"[{eig.min():.3e}, {eig.max():.3e}]"


def random_rows(rng, n_rows: int, n_cols: int) -> np.ndarray:
    """Seeded row-stochastic rows with strictly positive entries."""
    ds.check_entries(n_rows * n_cols, "random draw")
    raw = rng.gamma(1.0, size=(n_rows, n_cols))
    rows = raw / raw.sum(axis=1, keepdims=True)
    return (1.0 - POSITIVITY_MIX) * rows + POSITIVITY_MIX / n_cols


# ---------------------------------------------------------------------------
# the discrete instance
# ---------------------------------------------------------------------------


class Discrete:
    """Row-stochastic channels and distributions on finite spaces; an
    observation is an index into its space."""

    name = "discrete"
    #: the JSON key that marks a channel and a state of this instance
    channel_key, state_key = "dom", "space"

    discard = _via(ds, "discard_coparam")
    push = _via(ds, "push")
    copy_compose = _via(ds, "copy_compose_copar")
    tensor = _via(ds, "tensor_copar")
    tensor_state = _via(ds, "tensor_dist")
    invert = _via(ds, "bayes_invert")

    def doms(self, ch):
        """The spaces of the priors and observations of a lens on ``ch``."""
        return ch.dom, ch.out

    def ends(self, ch):
        """The domain, coparameter and output of ``ch``."""
        return ch.dom, ch.copar, ch.out

    def describe_space(self, s) -> str:
        return str(_flat_labels(s)) if s.n_factors else "the one-point space"

    def prior_marginals(self, omega, ch1, ch2):
        k1, k2 = ch1.dom.n_factors, ch2.dom.n_factors
        if omega.space != ch1.dom.product(ch2.dom):
            raise ShapeError("joint prior is not on the tensored domain")
        return ds.marginal_dist(omega, range(k1)), ds.marginal_dist(omega, range(k1, k1 + k2))

    def deviation(self, k1, k2, fwd, prior) -> float:
        """Largest entrywise difference of two backward channels of ``fwd``
        at ``prior``, over the observations of positive evidence."""
        supported = self.push(self.discard(fwd), prior).mass > 0
        if k1.rows.shape != k2.rows.shape:
            raise ShapeError("backward channels have different shapes")
        return float(np.max(np.abs(k1.rows[supported] - k2.rows[supported]), initial=0.0))

    def identity(self, dom):
        """The identity channel on ``dom``, and no family: its lens is exact."""
        return ds.identity_kernel(dom), None

    def per_prior(self, fn, prior):
        """The channel ``fn`` gives each prior of a stack, one at a time:
        that channel if it is the same for all, else the stack of them."""
        if prior.mass.ndim == 1:
            return fn(prior)
        chs = [fn(ds.Dist(prior.space, m)) for m in prior.mass.reshape(-1, prior.space.size)]
        if all(ch is chs[0] for ch in chs):
            return chs[0]
        rows = np.stack([ch.rows for ch in chs]).reshape(prior.mass.shape[:-1] + chs[0].rows.shape)
        return ds.CoparKernel(chs[0].dom, chs[0].copar, chs[0].out, rows, chs[0].copar_side)

    # -- model JSON --------------------------------------------------------

    def parse_channel(self, obj):
        dom, cod = _space(obj, "dom"), _space(obj, "cod")
        copar = _space(obj, "copar") if "copar" in obj else ds.unit_space()
        rows, shape = _numbers(obj, "rows"), (dom.size, copar.size * cod.size)
        if rows.ndim == 1 and rows.size != shape[0] * shape[1]:
            raise ModelParseError(f"'rows' has {rows.size} entries, expected {shape[0] * shape[1]}")
        if rows.ndim != 1 and rows.shape != shape:
            raise ModelParseError(f"'rows' has shape {rows.shape}, expected {shape}")
        side = obj.get("copar_side", "left")  # checked by the constructor
        return _built(ds.CoparKernel, dom, copar, cod, rows.reshape(shape), side)

    def parse_state(self, obj):
        mass = _numbers(obj, "mass")
        if mass.ndim != 1:  # a file holds one prior; stacks are built in memory
            raise ModelParseError(f"'mass' has shape {mass.shape}, expected a vector")
        return _built(ds.Dist, _space(obj, "space"), mass)

    def channel_to_obj(self, ch) -> dict:
        obj = {"dom": _written(ch.dom), "cod": _written(ch.out), "rows": _floats(ch.rows)}
        if ch.copar.n_factors:  # a one-outcome coparameter is a factor too
            obj["copar"] = _written(ch.copar)
        if ch.copar_side != "left":
            obj["copar_side"] = ch.copar_side
        return obj

    def state_to_obj(self, s) -> dict:
        return {"space": _written(s.space), "mass": _floats(s.mass)}

    def states_match(self, a, b) -> bool:
        return a.space == b.space and np.allclose(a.mass, b.mass, atol=1e-9)

    def content_key(self, s) -> tuple:
        """A key equal for two states (or stacks) exactly when they are
        bitwise equal: the space, the shape and the bytes of the mass."""
        return s.space, s.mass.shape, s.mass.tobytes()

    # -- the command line --------------------------------------------------

    def parse_obs(self, ch, literal: str) -> int:
        """An observation of ``ch`` given as an index, a label, or a
        ``|``-joined product label."""
        out = ch.out
        try:
            parsed = json.loads(literal)
        except json.JSONDecodeError:
            parsed = literal
        if isinstance(parsed, bool):
            parsed = literal
        if isinstance(parsed, int) and 0 <= parsed < out.size:
            return parsed
        label = tuple(parsed) if isinstance(parsed, list) else parsed
        if isinstance(label, str) and "|" in label and out.n_factors > 1:
            label = tuple(label.split("|"))
        try:
            return out.index(label)
        except ShapeError:
            raise ModelParseError(
                f"observation {literal!r} is not an outcome of the codomain"
            ) from None

    def describe_channel(self, ch) -> list[str]:
        sums = ch.rows.sum(axis=1)
        return [
            f"{self.name} channel",
            f"  dom:   {_describe_space(ch.dom)}",
            f"  copar: {_describe_space(ch.copar)} ({ch.copar_side})",
            f"  out:   {_describe_space(ch.out)}",
            f"  audit: row sums in [{float(sums.min())!r}, {float(sums.max())!r}], "
            f"max deviation {np.abs(sums - 1.0).max():.3e}",
        ]

    def describe_state(self, s) -> list[str]:
        return [
            f"{self.name} state",
            f"  space: {_describe_space(s.space)}",
            f"  mass sums to {float(s.mass.sum())!r}",
        ]

    # -- seeded generation -------------------------------------------------

    def space(self, prefix: str, n: int):
        return ds.space([f"{prefix}{i}" for i in range(n)])

    def random_channel(self, rng, dom, copar, out):
        return ds.CoparKernel(dom, copar, out, random_rows(rng, dom.size, copar.size * out.size))

    def random_state(self, rng, dom):
        return ds.Dist(dom, random_rows(rng, 1, dom.size)[0])

    def random_obs(self, rng, out) -> int:
        return int(rng.integers(0, out.size))

    def obs_index(self, out, y) -> int:
        """The observation ``y`` of ``out``, checked to be an index into it."""
        if isinstance(y, bool) or not isinstance(y, numbers.Integral) or not 0 <= y < out.size:
            raise ShapeError(f"observation {y!r} is not an index into a space of size {out.size}")
        return int(y)

    def joint_obs(self, ch1, ch2, y, y2) -> int:
        """The observation ``(y, y2)`` of the tensor of lenses on ``ch1``
        and ``ch2``."""
        return self.obs_index(ch1.out, y) * ch2.out.size + self.obs_index(ch2.out, y2)

    def digest_arrays(self, ch1, ch2, state) -> tuple:
        """The arrays that identify a trial on two channels and a state."""
        return ch1.rows, ch2.rows, state.mass


# ---------------------------------------------------------------------------
# the affine-Gaussian instance
# ---------------------------------------------------------------------------


class Gaussian:
    """Affine-Gaussian channels and Gaussian states; a space is named by its
    dimension, and an observation is a vector."""

    name = "gaussian"
    channel_key, state_key = "A", "mean"

    discard = _via(gs, "g_discard_coparam")
    push = _via(gs, "g_push")
    invert = _via(gs, "g_invert")
    copy_compose = _via(gs, "g_copy_compose")
    tensor = _via(gs, "g_tensor_channel")
    tensor_state = _via(gs, "g_tensor_state")

    def doms(self, ch):
        return ch.dom_dim, ch.out_dim

    def ends(self, ch):
        return ch.dom_dim, ch.copar_dim, ch.out_dim

    def describe_space(self, n) -> str:
        return f"of dimension {n}"

    def prior_marginals(self, omega, ch1, ch2):
        d1, d2 = ch1.dom_dim, ch2.dom_dim
        if omega.dim != d1 + d2:
            raise ShapeError("joint prior is not on the tensored domain")
        return (
            gs.g_marginal_state(omega, range(d1)),
            gs.g_marginal_state(omega, range(d1, d1 + d2)),
        )

    def deviation(self, k1, k2, fwd, prior) -> float:
        """Largest difference of two backward channels' parameters."""
        diffs = (np.abs(getattr(k1, p) - getattr(k2, p)) for p in ("A", "b", "noise"))
        return float(max(np.max(d, initial=0.0) for d in diffs))

    def identity(self, dim):
        """The identity channel and its point-mass backward channel."""
        dim = int(dim)
        point = gs.GaussChannel(np.eye(dim), np.zeros(dim), np.zeros((dim, dim)), 0, "right")

        def bwd(pi):
            gs._single(pi, "a Gaussian backward family")
            return point

        return gs.g_identity(dim), bwd

    def per_prior(self, fn, prior):
        return fn(gs._single(prior, "a Gaussian backward family"))

    # -- model JSON --------------------------------------------------------

    def parse_channel(self, obj):
        A, b, noise = (_numbers(obj, key) for key in ("A", "b", "noise"))
        copar_dim = obj.get("copar_dim", 0)
        if not isinstance(copar_dim, int) or isinstance(copar_dim, bool):
            raise ModelParseError(
                f"field 'copar_dim' must be an integer, not {copar_dim!r}"
            )
        side = obj.get("copar_side", "left")
        return _built(gs.GaussChannel, A, b, noise, copar_dim=copar_dim, copar_side=side)

    def parse_state(self, obj):
        mean = _numbers(obj, "mean")
        if mean.ndim != 1:  # as for a discrete prior: a file holds one state
            raise ModelParseError(f"'mean' has shape {mean.shape}, expected a vector")
        return _built(gs.GaussState, mean, _numbers(obj, "cov"))

    def channel_to_obj(self, ch) -> dict:
        obj = {key: _floats(getattr(ch, key)) for key in ("A", "b", "noise")}
        obj["copar_dim"] = int(ch.copar_dim)
        if ch.copar_side != "left":
            obj["copar_side"] = ch.copar_side
        return obj

    def state_to_obj(self, s) -> dict:
        gs._single(s, "a model file")
        return {"mean": _floats(s.mean), "cov": _floats(s.cov)}

    def states_match(self, a, b) -> bool:
        pairs = ((a.mean, b.mean), (a.cov, b.cov))
        return a.dim == b.dim and all(np.allclose(u, v, atol=1e-9) for u, v in pairs)

    def content_key(self, s) -> tuple:
        gs._single(s, "a content key")
        return s.mean.shape, s.mean.tobytes(), s.cov.shape, s.cov.tobytes()

    # -- the command line --------------------------------------------------

    def parse_obs(self, ch, literal: str) -> np.ndarray:
        """An observation of ``ch``: a JSON number or list, or
        comma-separated numbers."""
        try:
            val = json.loads(literal)
        except json.JSONDecodeError:
            val = literal.split(",")
        try:
            arr = None if _holds_bool(val) else np.atleast_1d(np.asarray(val, dtype=float))
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.ndim != 1:
            raise ModelParseError(f"cannot parse observation {literal!r}")
        if arr.size != ch.out_dim:
            raise ModelParseError(f"observation has dimension {arr.size}, expected {ch.out_dim}")
        if not np.all(np.isfinite(arr)):
            raise ModelParseError(f"observation {literal!r} must hold finite numbers")
        return arr

    def describe_channel(self, ch) -> list[str]:
        return [
            f"{self.name} channel",
            f"  dom dim:   {ch.dom_dim}",
            f"  copar dim: {ch.copar_dim} ({ch.copar_side})",
            f"  out dim:   {ch.out_dim}",
            f"  noise eigenvalue range: {_eigen_range(ch.noise)}",
        ]

    def describe_state(self, s) -> list[str]:
        return [
            f"{self.name} state",
            f"  dim: {s.dim}",
            f"  covariance eigenvalue range: {_eigen_range(s.cov)}",
        ]

    # -- seeded generation -------------------------------------------------

    def space(self, prefix: str, n: int) -> int:
        return n

    def random_channel(self, rng, dom, copar, out, noise_floor=1e-6):
        """A channel ``dom -> copar (+) out`` with strictly PD noise."""
        ds.check_entries((copar + out) * (dom + 1 + copar + out), "random channel")
        A = rng.uniform(-2.0, 2.0, size=(copar + out, dom))
        b = rng.uniform(-1.0, 1.0, size=copar + out)
        l = rng.uniform(-1.0, 1.0, size=(copar + out, copar + out))
        noise = l @ l.T + noise_floor * np.eye(copar + out)
        return gs.GaussChannel(A, b, noise, copar_dim=copar)

    def random_state(self, rng, dim):
        ds.check_entries(dim * (dim + 1), "random state")
        mean = rng.uniform(-1.0, 1.0, size=dim)
        l = rng.uniform(-1.0, 1.0, size=(dim, dim))
        return gs.GaussState(mean, l @ l.T + 0.1 * np.eye(dim))

    def random_obs(self, rng, out) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=out)

    def joint_obs(self, ch1, ch2, y, y2) -> np.ndarray:
        parts = [np.atleast_1d(np.asarray(v, float)) for v in (y, y2)]
        for part, ch in zip(parts, (ch1, ch2)):
            if part.shape != (ch.out_dim,):
                raise ShapeError(f"observation has shape {part.shape}, expected ({ch.out_dim},)")
        return np.concatenate(parts)

    def digest_arrays(self, ch1, ch2, state) -> tuple:
        return ch1.A, ch2.A, state.mean, state.cov


# ---------------------------------------------------------------------------
# the selector
# ---------------------------------------------------------------------------

DISCRETE = Discrete()
GAUSSIAN = Gaussian()
#: the backends by instance name
BACKENDS = {b.name: b for b in (DISCRETE, GAUSSIAN)}
_TYPES = (
    (DISCRETE, (ds.CoparKernel, ds.Dist, ds.FiniteSpace)),
    (GAUSSIAN, (gs.GaussChannel, gs.GaussState, numbers.Integral)),
)


def backend_of(obj, *more):
    """The backend of the instance ``obj`` lives in.

    ``obj`` is a channel, a state, or the space a lens's priors or
    observations live on (a finite space, or a dimension).  Raises
    ``ShapeError`` for anything else, and when an object in ``more`` lives
    in another instance."""
    backend = _select(obj)
    for other in map(_select, more):
        if other is not backend:
            raise ShapeError(f"mixed instances: {backend.name} and {other.name}")
    return backend


def _select(obj):
    for backend, types in _TYPES:
        if isinstance(obj, types):
            return backend
    raise ShapeError(f"not a channel, state or space: {type(obj).__name__}")
