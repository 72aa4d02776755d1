"""Exception types shared across the package, and the one way a check's
message names the entry of a stack that fails it.

The split matters for callers: shape/instance mismatches are caller bugs,
support and singularity errors are properties of the data that suites must
be able to catch, count, and skip.
"""

import numpy as np


class ShapeError(ValueError):
    """Domains, codomains, or factor structures do not line up."""


class SupportError(ValueError):
    """An observation with zero probability mass was queried where a
    conditional is only defined almost surely."""


class SingularityError(ValueError):
    """A covariance or Hessian block that must be invertible is singular."""


class InstanceError(TypeError):
    """A discrete-only or Gaussian-only operation got the other instance."""


class CompositionError(ValueError):
    """Two cells or witnesses were chained whose endpoints do not match."""


class ModelParseError(ValueError):
    """A JSON model file is malformed; message names the offending field."""


def _which(bad: np.ndarray, what: str) -> str:
    """``what``, naming the first vector or matrix ``bad`` marks by its stack
    entry (nothing for an unstacked one) and, for a ``"row"``, its row."""
    at = [int(j) for j in np.argwhere(bad)[0]]
    if what == "row":
        what = f"row {at.pop()}"
    return what + (f" of stack entry {tuple(at)}" if at else "")
