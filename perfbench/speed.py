"""Machine-speed probe: rescales measured round times to a fixed speed.

On a shared host the speed of one core drifts by a quarter or more over
minutes (neighbours on the same physical core, frequency changes), while
the process keeps its core: its CPU time equals its wall time.  No
statistic over the rounds of one run removes drift that outlasts the run.
The probe measures the drift instead.  While a round runs, a real-time
interval timer interrupts it every ``INTERVAL_S`` and times a small fixed
reference computation (tight loops over small objects and arrays, and code
spread over many functions: the kinds of work the library does).  The
round's time without those samples, divided by the median sample and
multiplied by ``NOMINAL_REF_S``, is the round's time at the speed where
the reference takes ``NOMINAL_REF_S``: roughly a 2-vCPU Xeon guest when
its host is quiet.  The reference depends on nothing in statgames, so a
change to the library moves the rescaled time exactly as it moves the
wall time.

The timer runs the reference between bytecodes of the main thread, never
inside a C call, and the previous ``SIGALRM`` handler and timer are
restored when the round ends.
"""

from __future__ import annotations

import json
import math
import re
import signal
import statistics
import time

import numpy as np

#: seconds between two samples
INTERVAL_S = 0.03
#: seconds the reference takes at the nominal speed
NOMINAL_REF_S = 8e-4

_MATRIX = np.arange(9.0).reshape(3, 3) + 5.0 * np.eye(3)
_VECTOR = np.ones(3)
_LONG = np.linspace(0.0, 1.0, 16384)
_LONG_REV = _LONG[::-1].copy()
_NAME = re.compile(r"^(\w+)_(\d+)$")


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c=None):
        self.a, self.b, self.c = a, b, c


class _State:
    """A validated Gaussian state, as the library's constructors build."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("shape mismatch")
        if not (np.isfinite(mean).all() and np.allclose(cov, cov.T)):
            raise ValueError("not a covariance")
        self.mean, self.cov = mean, cov


def _logpdf(state: _State, x: np.ndarray) -> float:
    d = x - state.mean
    logdet = np.linalg.slogdet(state.cov)[1]
    quad = float(d @ np.linalg.solve(state.cov, d))
    return -0.5 * (quad + logdet + d.size * math.log(2.0 * math.pi))


def _tight_loops() -> float:
    """Small objects, dicts, 3x3 linear algebra, a pass over 128 KiB and
    short-lived allocations, each in a short loop."""
    s = 0.0
    rows = []
    for i in range(40):
        p = _Point(i, b=2 * i, c=(i, i))
        d = {"x": p.a, "y": p.b}
        rows.append((d["x"] + d["y"], p.c[0]))
    s += len([r for r in rows if r[0] % 3])
    for _ in range(2):
        a = np.asarray(_MATRIX, dtype=float)
        s += bool(np.isfinite(a).all()) + bool(np.allclose(a, a.T))
        chol = np.linalg.cholesky(a @ a.T)
        s += np.linalg.slogdet(a)[1] + float(np.einsum("ij,j->i", chol, _VECTOR).sum())
    s += float((_LONG * _LONG_REV + _LONG).sum())
    for _ in range(2):
        s += len([(i, str(i)) for i in range(60)])
    return s


def _wide_code() -> float:
    """Many different functions, each run once or twice: validating
    constructors, densities, an exception, regexes, sorting, JSON and
    formatting.  Code spread this wide slows more on a shared core than
    tight loops do, as the library's own call-heavy paths do."""
    s = 0.0
    for k in range(3):
        n = 1 + k
        state = _State(np.arange(n, dtype=float), np.eye(n) * (1.0 + k))
        s += _logpdf(state, np.ones(n))
        w, v = np.linalg.eigh(state.cov)
        s += float(np.clip(w, 0.1, None).sum()) + float(np.where(v > 0, v, 0.0).sum())
    p = np.array([0.2, 0.3, 0.5])
    q = np.concatenate([p[1:], p[:1]])
    s += float(np.sum(p * (np.log(p) - np.log(q)))) + float(np.logaddexp.reduce(np.log(p)))
    s += float(np.outer(p, q).sum(axis=1).max())
    try:
        _State([1.0, 2.0], np.eye(3))
    except ValueError:
        s += 1.0
    names = [f"s{i}_{i % 4}" for i in range(24)]
    s += sum(int(m.group(2)) for m in map(_NAME.match, names) if m)
    table = {name: i for i, name in enumerate(sorted(names, key=lambda t: (t[-1], t)))}
    s += len(set(table) & {"s1_1", "s2_2", "x"})
    blob = json.dumps({"rows": [[0.25, 0.75], [0.5, 0.5]], "names": names[:4]})
    s += len(json.loads(blob)["rows"]) + len("{:.6g}".format(s))
    return s


def reference() -> float:
    """A fixed computation, about ``NOMINAL_REF_S`` long on a quiet core.

    It mixes the kinds of work the workloads do: tight loops over small
    objects and arrays, and code spread over many functions.  Each kind
    slows differently when the core is shared, so the mix follows the
    workloads better than either alone.
    """
    return _tight_loops() + _wide_code()


class SpeedSampler:
    """Context manager: samples the reference's time every ``INTERVAL_S``
    seconds of real time while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def sampled_s(self) -> float:
        """Seconds spent in the samples themselves."""
        return sum(self.samples)

    def rescale(self, seconds: float) -> float:
        """``seconds`` of the block, less the samples, at the nominal speed."""
        return (seconds - self.sampled_s) * NOMINAL_REF_S / statistics.median(self.samples)
