"""JSON model formats for channels, states, and lens bundles.

Discrete kernel::

    {"dom": [labels], "cod": [labels], "copar": [labels]?, "rows": [...]}

``rows`` is row-major, one row per domain point, flat or nested; ``copar``
marks the leading block of the codomain (pass ``"copar_side": "right"`` for
a trailing block, as inversions have).  A distribution is
``{"space": [labels], "mass": [numbers]}``.

Gaussian channel::

    {"A": matrix, "b": vector, "noise": matrix, "copar_dim": int?}

and a state is ``{"mean": vector, "cov": matrix}``.

A lens bundle is ``{"fwd": <channel>, "bwd": "exact"}`` for exact
inversion, or ``{"fwd": ..., "bwd": [{"prior": <state>, "channel":
<channel>}, ...]}`` tabulating backward channels for named priors (the
evaluation prior must match a tabulated one).

Parsers reject non-stochastic input with a diagnostic naming the offending
row.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import ModelParseError, ShapeError
from .lens import BayesLens, exact_lens, instance_of

__all__ = [
    "load_json",
    "parse_channel",
    "parse_state",
    "parse_lens",
    "channel_to_obj",
    "state_to_obj",
]

ROW_SUM_ATOL = 1e-9


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ModelParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as e:
        raise ModelParseError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None


def _labels(obj, key) -> tuple[str, ...]:
    val = obj.get(key)
    if not isinstance(val, Sequence) or isinstance(val, str) or not val:
        raise ModelParseError(f"field {key!r} must be a non-empty list of labels")
    return tuple(str(x) for x in val)


def _rows(obj, n_rows, n_cols):
    raw = obj.get("rows")
    if raw is None:
        raise ModelParseError("missing field 'rows'")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size != n_rows * n_cols:
            raise ModelParseError(
                f"'rows' has {arr.size} entries, expected {n_rows * n_cols}"
            )
        arr = arr.reshape(n_rows, n_cols)
    elif arr.shape != (n_rows, n_cols):
        raise ModelParseError(
            f"'rows' has shape {arr.shape}, expected ({n_rows}, {n_cols})"
        )
    # ``not min >= 0`` also holds for NaN, in the same single pass
    if not arr.min() >= 0:
        bad = int(np.nonzero(~(arr >= 0).all(axis=1))[0][0])
        raise ModelParseError(f"row {bad} of 'rows' has a negative or NaN entry")
    sums = arr.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_ATOL
    if off.any():
        bad = int(np.nonzero(off)[0][0])
        raise ModelParseError(f"row {bad} of 'rows' sums to {sums[bad]!r}, not 1")
    return arr


def _parse_discrete_channel(obj) -> ds.CoparKernel:
    dom = ds.space(_labels(obj, "dom"))
    cod = ds.space(_labels(obj, "cod"))
    copar = ds.space(_labels(obj, "copar")) if "copar" in obj else ds.unit_space()
    side = obj.get("copar_side", "left")
    if side not in ("left", "right"):
        raise ModelParseError(f"bad 'copar_side' {side!r}")
    rows = _rows(obj, dom.size, copar.size * cod.size)
    try:
        return ds.CoparKernel(dom, copar, cod, rows, side)
    except ShapeError as e:
        raise ModelParseError(str(e)) from None


def _parse_gauss_channel(obj) -> gs.GaussChannel:
    try:
        A = np.asarray(obj["A"], dtype=float)
        b = np.asarray(obj["b"], dtype=float)
        noise = np.asarray(obj["noise"], dtype=float)
    except KeyError as e:
        raise ModelParseError(f"missing field {e.args[0]!r}") from None
    except (TypeError, ValueError):
        raise ModelParseError("fields 'A', 'b', 'noise' must be numeric") from None
    copar_dim = int(obj.get("copar_dim", 0))
    side = obj.get("copar_side", "left")
    try:
        return gs.GaussChannel(A, b, noise, copar_dim=copar_dim, copar_side=side)
    except ShapeError as e:
        raise ModelParseError(str(e)) from None


def parse_channel(obj) -> ds.CoparKernel | gs.GaussChannel:
    if not isinstance(obj, dict):
        raise ModelParseError("a channel must be a JSON object")
    if "dom" in obj:
        return _parse_discrete_channel(obj)
    if "A" in obj:
        return _parse_gauss_channel(obj)
    raise ModelParseError("channel object has neither 'dom' (discrete) nor 'A' (Gaussian)")


def parse_state(obj) -> ds.Dist | gs.GaussState:
    if not isinstance(obj, dict):
        raise ModelParseError("a state must be a JSON object")
    if "space" in obj:
        sp = ds.space(_labels(obj, "space"))
        mass = np.asarray(obj.get("mass"), dtype=float)
        try:
            return ds.Dist(sp, mass)
        except ShapeError as e:
            raise ModelParseError(str(e)) from None
    if "mean" in obj:
        try:
            return gs.GaussState(
                np.asarray(obj["mean"], dtype=float),
                np.asarray(obj["cov"], dtype=float),
            )
        except KeyError as e:
            raise ModelParseError(f"missing field {e.args[0]!r}") from None
        except ShapeError as e:
            raise ModelParseError(str(e)) from None
    raise ModelParseError("state object has neither 'space' (discrete) nor 'mean' (Gaussian)")


def _states_match(a, b) -> bool:
    if instance_of(a) != instance_of(b):
        return False
    if isinstance(a, ds.Dist):
        return a.space == b.space and np.allclose(a.mass, b.mass, atol=1e-9)
    return (
        a.dim == b.dim
        and np.allclose(a.mean, b.mean, atol=1e-9)
        and np.allclose(a.cov, b.cov, atol=1e-9)
    )


def parse_lens(obj) -> BayesLens:
    if not isinstance(obj, dict) or "fwd" not in obj:
        raise ModelParseError("a lens bundle needs a 'fwd' channel")
    fwd = parse_channel(obj["fwd"])
    bwd_spec = obj.get("bwd", "exact")
    if bwd_spec == "exact":
        return exact_lens(fwd)
    if not isinstance(bwd_spec, list):
        raise ModelParseError("'bwd' must be \"exact\" or a list of prior/channel pairs")
    table = []
    for i, entry in enumerate(bwd_spec):
        if not isinstance(entry, dict) or "prior" not in entry or "channel" not in entry:
            raise ModelParseError(f"'bwd' entry {i} needs 'prior' and 'channel'")
        prior = parse_state(entry["prior"])
        ch = parse_channel(entry["channel"])
        if isinstance(ch, ds.CoparKernel) and ch.copar_side != "right":
            ch = ds.CoparKernel(ch.dom, ch.copar, ch.out, ch.rows, "right")
        elif isinstance(ch, gs.GaussChannel) and ch.copar_side != "right":
            ch = gs.GaussChannel(ch.A, ch.b, ch.noise, ch.copar_dim, "right")
        table.append((prior, ch))

    def bwd(pi):
        for prior, ch in table:
            if _states_match(pi, prior):
                return ch
        raise ShapeError("no backward channel tabulated for this prior")

    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


def _flat_labels(space: ds.FiniteSpace) -> list[str]:
    return ["|".join(l) if isinstance(l, tuple) else l for l in space.labels]


def channel_to_obj(ch) -> dict:
    if isinstance(ch, ds.CoparKernel):
        obj = {
            "dom": _flat_labels(ch.dom),
            "cod": _flat_labels(ch.out),
            "rows": [list(map(float, row)) for row in ch.rows],
        }
        if ch.copar.size > 1:
            obj["copar"] = _flat_labels(ch.copar)
        if ch.copar_side != "left":
            obj["copar_side"] = ch.copar_side
        return obj
    return {
        "A": [list(map(float, row)) for row in ch.A],
        "b": list(map(float, ch.b)),
        "noise": [list(map(float, row)) for row in ch.noise],
        "copar_dim": int(ch.copar_dim),
    }


def state_to_obj(s) -> dict:
    if isinstance(s, ds.Dist):
        return {
            "space": _flat_labels(s.space),
            "mass": list(map(float, s.mass)),
        }
    return {
        "mean": list(map(float, s.mean)),
        "cov": [list(map(float, row)) for row in s.cov],
    }
