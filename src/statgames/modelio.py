"""JSON model formats for channels, states, and lens bundles.

Discrete kernel::

    {"dom": [labels], "cod": [labels], "copar": [labels]?, "rows": [...]}

``rows`` is row-major, one row per domain point, flat or nested; ``copar``
marks the leading block of the codomain (pass ``"copar_side": "right"`` for
a trailing block, as inversions have).  A distribution is
``{"space": [labels], "mass": [numbers]}``.  A product space is written as
one list of labels per factor, ``[[labels], [labels], ...]``, and read back
with its factors; a flat list of labels is one factor.

Gaussian channel::

    {"A": matrix, "b": vector, "noise": matrix, "copar_dim": int?}

and a state is ``{"mean": vector, "cov": matrix}``; an inversion carries
``"copar_side": "right"`` here too.

A lens bundle is ``{"fwd": <channel>, "bwd": "exact"}`` for exact
inversion, or ``{"fwd": ..., "bwd": [{"prior": <state>, "channel":
<channel>}, ...]}`` tabulating backward channels for one or more named
priors (the evaluation prior, or each prior of a discrete stack, must
match a tabulated one).

Parsers reject non-stochastic input with a diagnostic naming the offending
row.
"""

from __future__ import annotations

import dataclasses
import json

from .backend import BACKENDS, backend_of
from .errors import ModelParseError, ShapeError
from .lens import BayesLens, exact_lens

__all__ = [
    "load_json",
    "parse_channel",
    "parse_state",
    "parse_lens",
    "channel_to_obj",
    "state_to_obj",
]


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ModelParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as e:
        raise ModelParseError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None


def _backend_for(obj, kind: str, key: str):
    """The backend whose ``key`` (its channel or state key) marks ``obj``."""
    if not isinstance(obj, dict):
        raise ModelParseError(f"a {kind} must be a JSON object")
    for backend in BACKENDS.values():
        if getattr(backend, key) in obj:
            return backend
    marks = " nor ".join(f"{getattr(b, key)!r} ({b.name})" for b in BACKENDS.values())
    raise ModelParseError(f"{kind} object has neither {marks}")


def parse_channel(obj):
    return _backend_for(obj, "channel", "channel_key").parse_channel(obj)


def parse_state(obj):
    return _backend_for(obj, "state", "state_key").parse_state(obj)


def parse_lens(obj) -> BayesLens:
    if not isinstance(obj, dict) or "fwd" not in obj:
        raise ModelParseError("a lens bundle needs a 'fwd' channel")
    fwd = parse_channel(obj["fwd"])
    bwd_spec = obj.get("bwd", "exact")
    if bwd_spec == "exact":
        return exact_lens(fwd)
    if not isinstance(bwd_spec, list) or not bwd_spec:
        raise ModelParseError("'bwd' must be \"exact\" or a non-empty list of prior/channel pairs")
    table = []
    for i, entry in enumerate(bwd_spec):
        if not isinstance(entry, dict) or "prior" not in entry or "channel" not in entry:
            raise ModelParseError(f"'bwd' entry {i} needs 'prior' and 'channel'")
        prior = parse_state(entry["prior"])
        # backward channels carry their coparameter trailing
        ch = dataclasses.replace(parse_channel(entry["channel"]), copar_side="right")
        _check_backward(fwd, ch, i)
        table.append((prior, ch))

    def lookup(pi):
        backend = backend_of(pi)
        for prior, ch in table:
            if backend_of(prior) is backend and backend.states_match(pi, prior):
                return ch
        raise ShapeError("no backward channel tabulated for this prior")

    return BayesLens(fwd=fwd, bwd=lambda pi: backend_of(pi).per_prior(lookup, pi))


def _check_backward(fwd, ch, i: int) -> None:
    """Raise unless ``ch`` runs from the output of ``fwd`` to its domain
    and coparameter (the same spaces, labels included, or dimensions)."""
    backend, other = backend_of(fwd), backend_of(ch)
    if other is not backend:
        raise ModelParseError(
            f"'bwd' entry {i}: a {other.name} channel for a {backend.name} forward"
        )
    roles = ("domain", "output"), ("coparameter", "coparameter"), ("codomain", "domain")
    dom, copar, out = backend.ends(fwd)
    for (role, of), got, want in zip(roles, backend.ends(ch), (out, copar, dom)):
        if got != want:
            raise ModelParseError(
                f"'bwd' entry {i}: the channel's {role} is {backend.describe_space(got)}, "
                f"but the forward's {of} is {backend.describe_space(want)}"
            )


def channel_to_obj(ch) -> dict:
    return backend_of(ch).channel_to_obj(ch)


def state_to_obj(s) -> dict:
    return backend_of(s).state_to_obj(s)
