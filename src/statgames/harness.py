"""Seeded instance generation and the verification-suite driver.

Every compositional law in this package has a registered suite here: a
trial function that draws one random instance and evaluates both sides of
the law, run by one driver that seeds each trial and builds its record.
One table names each suite once, with its trial and its defaults (trials,
maximum dimension, tolerance) at each instance it runs on; ``SuiteConfig``
alone resolves a run's instance and fills in and checks its settings from
that table, for the library and the command line alike.
Oracle sides are computed with plain index loops in this module, sharing
nothing with the operations under test beyond primitive arithmetic.

Trials are keyed by ``(seed, trial_index)`` through a splittable seed
sequence, so they are order-independent and a report is reproducible
byte-for-byte (wall time aside) from its configuration.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import discrete as ds
from .backend import BACKENDS, DISCRETE, GAUSSIAN, random_rows
from .errors import ShapeError
from .games import NONNEG_FLOOR, laxness_witness, laxness_witnesses
from .lens import (
    BayesLens,
    buco_residual,
    exact_lens,
    lens_compose,
    lens_tensor,
)
from .loss import (
    LossModel,
    energy_entropy_decomp,
    fe_joint_form,
    fe_loss,
    kl_loss,
    laplace_sigma,
    laxator_loss,
    lfe_loss,
    loss_compose,
    loss_for,
    mle_loss,
)

__all__ = [
    "SuiteConfig",
    "SuiteReport",
    "SUITES",
    "SUITE_DEFAULTS",
    "run_suite",
    "suites_with",
]

#: probes evaluated per lens pair in the strictness/laxness suites
PROBES_PER_PAIR = 20


@dataclass(frozen=True)
class SuiteConfig:
    """One suite's run; settings left at ``None`` take the defaults of the
    suite's row at its instance (by default the first in ``SUITE_DEFAULTS``)."""

    suite: str
    trials: int | None = None
    seed: int = 0
    max_dim: int | None = None
    tolerance: float | None = None
    instance: str | None = None

    def __post_init__(self):
        if self.suite not in SUITE_DEFAULTS:
            known = ", ".join(sorted(SUITE_DEFAULTS))
            raise ShapeError(f"unknown suite {self.suite!r}; registered suites: {known}")
        rows = SUITE_DEFAULTS[self.suite]
        object.__setattr__(self, "instance", next(iter(rows)) if self.instance is None else self.instance)
        if self.instance not in BACKENDS:
            raise ShapeError(f"unknown instance {self.instance!r}")
        if self.instance not in rows:
            raise ShapeError(
                f"suite {self.suite!r} has no {self.instance} instance; suites with one: "
                + ", ".join(suites_with(self.instance))
            )
        for key, default in rows[self.instance].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        for key in ("trials", "seed", "max_dim", "tolerance"):
            value, real = getattr(self, key), key == "tolerance"
            if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Integral):
                raise ShapeError(f"{key} must be {'a real number' if real else 'an integer'}, not {value!r}")
            try:  # kept as plain numbers, which a report writes as JSON
                object.__setattr__(self, key, float(value) if real else int(value))
            except OverflowError:  # an integer tolerance beyond every float
                raise ShapeError("tolerance must be positive and finite") from None
        if self.trials < 1:
            raise ShapeError("trials must be >= 1")
        if self.seed < 0:
            raise ShapeError("seed must be >= 0")
        if self.max_dim < 2:
            raise ShapeError("max_dim must be >= 2")
        if not 0 < self.tolerance < math.inf:
            raise ShapeError("tolerance must be positive and finite")


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _perturbed_lens_from_rng(rng, fwd, eps=0.3) -> BayesLens:
    """A lens with a fixed non-exact backward mixture."""
    noise = random_rows(rng, fwd.out.size, fwd.dom.size * fwd.copar.size)
    inverse = exact_lens(fwd).bwd

    def bwd(pi):
        rows = (1 - eps) * inverse(pi).rows + eps * noise
        return ds.CoparKernel(fwd.out, fwd.copar, fwd.dom, rows, "right")

    return BayesLens(fwd=fwd, bwd=bwd)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:12]


@dataclass
class SuiteReport:
    suite: str
    config: SuiteConfig
    records: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if not r["pass"])

    @property
    def worst_abs_err(self) -> float:
        """The largest error; NaN if any record's is, wherever it stands."""
        return max((r["abs_err"] for r in self.records), key=lambda e: (e != e, e), default=0.0)

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.suite}: trials={len(self.records)} "
            f"failures={self.n_failures} worst_abs_err={self.worst_abs_err:.3e} "
            f"time={self.wall_time_s:.2f}s"
        )

    def to_json(self) -> str:
        body = {
            "suite": self.suite,
            "config": asdict(self.config),
            "n_trials": len(self.records),
            "n_failures": self.n_failures,
            "worst_abs_err": self.worst_abs_err,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
            "records": sorted(self.records, key=lambda r: r["trial"]),
        }
        return json.dumps(body, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        lines = ["suite,trial,inputs-digest,lhs,rhs,abs_err,pass"]
        for r in sorted(self.records, key=lambda x: x["trial"]):
            lines.append(
                f"{r['suite']},{r['trial']},{r['inputs-digest']},"
                f"{r['lhs']!r},{r['rhs']!r},{r['abs_err']!r},{r['pass']}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracle helpers (plain loops only)
# ---------------------------------------------------------------------------


def _oracle_kl_rows(p: np.ndarray, q: np.ndarray) -> float:
    total = 0.0
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi > 0:
            if qi == 0:
                return math.inf
            total += pi * math.log(pi / qi)
    return total


def _oracle_pushforward(rows: np.ndarray, mass: np.ndarray) -> list:
    out = [0.0] * rows.shape[1]
    for m, row in zip(mass.tolist(), rows.tolist()):
        for b, r in enumerate(row):
            out[b] += m * r
    return out


def _oracle_mle_witness(c: BayesLens, d: BayesLens, pi: ds.Dist, z: int) -> float:
    """Expected inner code length under ``d``'s backward at the pushed
    prior: the MLE laxness witness, everything including the Bayes rule by
    explicit loops over Python floats."""
    sy = c.fwd.out.size
    smd = c.fwd.copar.size
    push_mid = _oracle_pushforward(c.fwd.rows, pi.mass)
    mid_mass = [0.0] * sy
    for b in range(sy):
        for m in range(smd):
            mid_mass[b] += push_mid[m * sy + b]
    dr = d.fwd.rows.tolist()
    sn = d.fwd.copar.size
    szd = d.fwd.out.size
    evidence = 0.0
    for b in range(sy):
        for n in range(sn):
            evidence += dr[b][n * szd + z] * mid_mass[b]
    want = 0.0
    for b in range(sy):
        wb = 0.0
        for n in range(sn):
            wb += dr[b][n * szd + z] * mid_mass[b] / evidence
        if wb > 0:
            want += wb * (-math.log(mid_mass[b]))
    return want


# ---------------------------------------------------------------------------
# trials: each draws one instance from its rng and evaluates both sides
# ---------------------------------------------------------------------------


class Outcome(NamedTuple):
    """One trial: the digest of its inputs and the two sides of its law.

    A trial passes when ``|lhs - rhs| <= tolerance`` and ``ok`` holds;
    ``abs_err``, when given, is reported in place of ``|lhs - rhs|``.
    """

    digest: str
    lhs: float
    rhs: float
    ok: bool = True
    abs_err: float | None = None


def _worst_pair(pairs) -> tuple[float, float]:
    """The ``(lhs, rhs)`` pair of largest ``|lhs - rhs|``, NaN the largest but
    for equal infinities (as in ``_run_trials``); ties go to the later pair."""
    worst, pair = 0.0, (0.0, 0.0)
    for lhs, rhs in pairs:
        diff = abs(lhs - rhs)
        if diff >= worst or (diff != diff and lhs != rhs):
            worst, pair = diff, (lhs, rhs)
    return pair


def _sizes(rng, cfg: SuiteConfig, n: int, low: int = 1):
    return tuple(int(v) for v in rng.integers(low, cfg.max_dim + 1, size=n))


def _random_channel(rng, backend, *spaces):
    """A random channel on ``(prefix, size)`` domain, coparameter and output;
    a discrete draw over the limit is refused before any label is built."""
    if backend is DISCRETE:
        ds.check_entries(math.prod(n for _, n in spaces), "random draw")
    return backend.random_channel(rng, *(backend.space(*p) for p in spaces))


def _exact_pair_from_rng(rng, cfg, backend=DISCRETE):
    sx, sm, sy, sn, sz = _sizes(rng, cfg, 5)
    c = exact_lens(_random_channel(rng, backend, ("x", sx), ("m", sm), ("y", sy)))
    d = exact_lens(_random_channel(rng, backend, ("y", sy), ("n", sn), ("z", sz)))
    return c, d, sz


def _probes(rng, c, sz):
    """Priors and final observations at which a lens pair is probed."""
    for _ in range(PROBES_PER_PAIR):
        pi = DISCRETE.random_state(rng, c.fwd.dom)
        yield pi, int(rng.integers(0, sz))


def _buco_trial(rng, cfg: SuiteConfig) -> Outcome:
    backend = BACKENDS[cfg.instance]
    c, d, _ = _exact_pair_from_rng(rng, cfg, backend)
    pi = backend.random_state(rng, backend.doms(c.fwd)[0])
    digest = _digest(*backend.digest_arrays(c.fwd, d.fwd, pi))
    return Outcome(digest, buco_residual(c, d, pi), 0.0)


def _chain_rule_trial(rng, cfg: SuiteConfig) -> Outcome:
    sa, sb, sc = _sizes(rng, cfg, 3)
    # the rows are drawn before the spaces are labelled: a draw over the
    # limit is refused before any label is built
    drawn = [random_rows(rng, m, n) for m, n in ((sa, sb), (sa, sb), (sb, sc), (sb, sc))]
    A, B, C = (DISCRETE.space(p, n) for p, n in zip("abc", (sa, sb, sc)))
    alpha, alpha2 = (ds.FiniteKernel(A, B, r) for r in drawn[:2])
    beta, beta2 = (ds.FiniteKernel(B, C, r) for r in drawn[2:])
    # law side: divergence between copy-composites
    lhs_eff = ds.relative_entropy_effect(
        ds.copy_compose(beta, alpha),
        ds.copy_compose(beta2, alpha2),
    )
    pairs = []
    for a in range(sa):
        # oracle side: chain-rule form by explicit loops
        inner = 0.0
        for b in range(sb):
            inner += alpha.rows[a, b] * _oracle_kl_rows(beta.rows[b], beta2.rows[b])
        rhs = inner + _oracle_kl_rows(alpha.rows[a], alpha2.rows[a])
        pairs.append((lhs_eff.values[a], rhs))
    digest = _digest(alpha.rows, alpha2.rows, beta.rows, beta2.rows)
    return Outcome(digest, *_worst_pair(pairs))


def _kl_strict_trial(rng, cfg: SuiteConfig) -> Outcome:
    c, d, sz = _exact_pair_from_rng(rng, cfg)
    witnesses = laxness_witnesses(LossModel.KL, d, c, list(_probes(rng, c, sz)))
    worst = max(0.0, *(abs(k) for k in witnesses))
    return Outcome(_digest(c.fwd.rows, d.fwd.rows), worst, 0.0)


def _mle_lax_trial(rng, cfg: SuiteConfig) -> Outcome:
    c, d, sz = _exact_pair_from_rng(rng, cfg)
    probes = list(_probes(rng, c, sz))
    witnesses = laxness_witnesses(LossModel.MLE, d, c, probes)
    pairs = [
        (k, _oracle_mle_witness(c, d, pi, z)) for k, (pi, z) in zip(witnesses, probes)
    ]
    nonneg_ok = not any(k < NONNEG_FLOOR for k, _ in pairs)
    return Outcome(_digest(c.fwd.rows, d.fwd.rows), *_worst_pair(pairs), ok=nonneg_ok)


def _random_lens(rng, cfg):
    """A perturbed lens, a prior on its domain and the size of its output."""
    sx, sm, sy = _sizes(rng, cfg, 3)
    fwd = _random_channel(rng, DISCRETE, ("x", sx), ("m", sm), ("y", sy))
    return _perturbed_lens_from_rng(rng, fwd), DISCRETE.random_state(rng, fwd.dom), sy


def _fe_sum_trial(rng, cfg: SuiteConfig) -> Outcome:
    lens, pi, sy = _random_lens(rng, cfg)
    y = int(rng.integers(0, sy))
    lhs = fe_loss(lens)(pi, y)
    rhs = kl_loss(lens)(pi, y) + mle_loss(lens)(pi, y)
    return Outcome(_digest(lens.fwd.rows, pi.mass), lhs, rhs)


def _fe_joint_trial(rng, cfg: SuiteConfig) -> Outcome:
    lens, pi, sy = _random_lens(rng, cfg)
    joint, fe = fe_joint_form(lens), fe_loss(lens)
    pairs = [(joint(pi, y), fe(pi, y)) for y in range(sy)]
    return Outcome(_digest(lens.fwd.rows, pi.mass), *_worst_pair(pairs))


def _thermo_trial(rng, cfg: SuiteConfig) -> Outcome:
    lens, pi, sy = _random_lens(rng, cfg)
    y = int(rng.integers(0, sy))
    energy, entropy = energy_entropy_decomp(lens, pi, y)
    return Outcome(_digest(lens.fwd.rows, pi.mass), energy - entropy, fe_loss(lens)(pi, y))


def _laplace_style_lens(fwd, cov):
    """The lens whose backward channel at a prior is the exact inversion of
    ``fwd`` there, with its covariance replaced by ``cov``."""
    inverse = exact_lens(fwd).bwd
    return BayesLens(fwd=fwd, bwd=lambda pi: replace(inverse(pi), noise=cov))


def _laplace_trial(rng, cfg: SuiteConfig) -> Outcome:
    dx, dm, dy = (
        int(rng.integers(1, cfg.max_dim)),
        int(rng.integers(0, 2)),
        int(rng.integers(1, cfg.max_dim)),
    )
    # conditioning: the gap identity is checked at an absolute
    # tolerance, so keep precision-matrix magnitudes moderate here
    fwd = GAUSSIAN.random_channel(rng, dx, dm, dy, noise_floor=0.05)
    pi = GAUSSIAN.random_state(rng, dx)
    y = rng.uniform(-1.0, 1.0, size=dy)
    nz = dx + dm
    l = rng.uniform(-1.0, 1.0, size=(nz, nz))
    cov = l @ l.T + 0.1 * np.eye(nz)

    def gap(cov):
        lens = _laplace_style_lens(fwd, cov)
        return fe_loss(lens)(pi, y) - lfe_loss(lens)(pi, y)

    # gap equals half the trace of (cov x Hessian)
    sigma = laplace_sigma(_laplace_style_lens(fwd, cov), pi, y)
    want = 0.5 * float(np.trace(np.linalg.solve(sigma, cov)))
    gap0 = gap(cov)
    # scaling: one decade in covariance scales the gap by ten
    gaps = [gap(eps * cov) for eps in (1e-1, 1e-2, 1e-3)]
    ratio_err = max(abs(gaps[0] / gaps[1] - 10.0), abs(gaps[1] / gaps[2] - 10.0))
    # the self-consistent covariance makes the gap exactly dim/2
    err3 = abs(gap(sigma) - nz / 2.0)
    return Outcome(
        _digest(fwd.A, pi.mean, cov, y),
        gap0,
        want,
        ok=ratio_err <= 0.1 and err3 <= 1e-9,
        abs_err=max(abs(gap0 - want), err3),
    )


def _laxator_pairs(rng, backend, sizes, model):
    """``(lhs, rhs)`` of the laxator law for each model on one random
    tensored pair, the defects at a product prior, and the trial digest.
    ``model`` is one model or a tuple of discrete ones, whose losses and
    laxator are each evaluated once for all of them."""
    sx, sm, sy, sx2, sm2, sy2 = (int(v) for v in sizes)
    c = exact_lens(_random_channel(rng, backend, ("x", sx), ("m", sm), ("y", sy)))
    d = exact_lens(_random_channel(rng, backend, ("u", sx2), ("v", sm2), ("w", sy2)))
    t = lens_tensor(c, d)
    (dom, out), (dom2, out2) = backend.doms(c.fwd), backend.doms(d.fwd)
    omega = backend.random_state(rng, backend.doms(t.fwd)[0])
    prod = backend.tensor_state(backend.random_state(rng, dom), backend.random_state(rng, dom2))
    y, y2 = backend.random_obs(rng, out), backend.random_obs(rng, out2)
    joint_obs = backend.joint_obs(c.fwd, d.fwd, y, y2)
    w1, w2 = t.marginals(omega)

    def rows(value):
        return value if isinstance(model, tuple) else (value,)

    defect = laxator_loss(model, c, d)
    lhs, first, second, at_omega, at_prod = (
        rows(v)
        for v in (
            loss_for(model, t)(omega, joint_obs),
            loss_for(model, c)(w1, y),
            loss_for(model, d)(w2, y2),
            defect(omega, joint_obs),
            defect(prod, joint_obs),
        )
    )
    pairs = [(l, a + b + k) for l, a, b, k in zip(lhs, first, second, at_omega)]
    return pairs, list(at_prod), _digest(*backend.digest_arrays(c.fwd, d.fwd, omega))


def _laxators_trial(rng, cfg: SuiteConfig) -> Outcome:
    product_tol = 1e-12
    # discrete models on a correlated and a product prior; the Gaussian
    # instance carries the Laplace model
    pairs, product_defects, digest = _laxator_pairs(
        rng, DISCRETE, _sizes(rng, cfg, 6, low=2),
        (LossModel.KL, LossModel.MLE, LossModel.FE),
    )
    gauss_pairs, gauss_defects, _ = _laxator_pairs(
        rng, GAUSSIAN, rng.integers(1, cfg.max_dim, size=6), LossModel.LFE
    )
    ok = all(abs(lam0) <= product_tol for lam0 in product_defects + gauss_defects)
    return Outcome(digest, *_worst_pair(pairs + gauss_pairs), ok=ok)


def _lax_naturality_trial(rng, cfg: SuiteConfig) -> Outcome:
    # two composable columns: c then e, and d then f
    sx, sy, sz, sm = _sizes(rng, cfg, 4, low=2)
    c = exact_lens(_random_channel(rng, DISCRETE, ("x", sx), ("m", 2), ("y", sy)))
    e = exact_lens(_random_channel(rng, DISCRETE, ("y", sy), ("n", 2), ("z", sz)))
    d = exact_lens(_random_channel(rng, DISCRETE, ("u", 2), ("v", 2), ("w", sm)))
    f = exact_lens(_random_channel(rng, DISCRETE, ("w", sm), ("q", 2), ("r", 2)))
    omega = DISCRETE.random_state(rng, c.fwd.dom.product(d.fwd.dom))
    z = int(rng.integers(0, sz))
    z2 = int(rng.integers(0, 2))
    digest = _digest(c.fwd.rows, d.fwd.rows, e.fwd.rows, f.fwd.rows, omega.mass)
    cd = lens_tensor(c, d)
    ef = lens_tensor(e, f)
    w1, w2 = cd.marginals(omega)
    ec, fd = lens_compose(e, c), lens_compose(f, d)
    joint_obs = DISCRETE.joint_obs(e.fwd, f.fwd, z, z2)
    # every term is one loss for the three models, evaluated once
    models = (LossModel.KL, LossModel.MLE, LossModel.FE)
    of_composites = laxator_loss(models, ec, fd)(omega, joint_obs)
    # each column's witness next: ``e`` and ``f`` were just inverted at the
    # pushforwards of ``w1`` and ``w2``, which the tensored terms below
    # reach as marginals of a joint pushforward, equal but not bitwise
    along_c = laxness_witness(models, e, c, w1, z)
    along_d = laxness_witness(models, f, d, w2, z2)
    across = laxness_witness(models, ef, cd, omega, joint_obs)
    # the laxators compose as losses on the tensored lenses
    first, second = laxator_loss(models, c, d), laxator_loss(models, e, f)
    terms = zip(
        of_composites,
        across,
        loss_compose(second, first, ef, cd)(omega, joint_obs),
        along_c,
        along_d,
    )
    pairs = [(lax + k, lax_composed + k1 + k2) for lax, k, lax_composed, k1, k2 in terms]
    return Outcome(digest, *_worst_pair(pairs))


def _dyadic(rng, size, scale=2**20):
    return rng.integers(0, 3 * scale, size=size).astype(float) / scale


def _bilinear_trial(rng, cfg: SuiteConfig) -> Outcome:
    sa, sb = _sizes(rng, cfg, 2)
    drawn = random_rows(rng, sa, sb)
    A, B = DISCRETE.space("a", sa), DISCRETE.space("b", sb)
    f = ds.FiniteKernel(A, B, drawn)
    g = ds.Effect(B, rng.uniform(0.0, 3.0, size=sb))
    g2 = ds.Effect(B, rng.uniform(0.0, 3.0, size=sb))
    lhs_eff = ds.effect_precompose(ds.effect_add(g, g2), f)
    rhs_eff = ds.effect_add(ds.effect_precompose(g, f), ds.effect_precompose(g2, f))
    err = float(np.max(np.abs(lhs_eff.values - rhs_eff.values)))
    # monoid laws, exact: dyadic values make float addition lossless
    h1 = ds.Effect(B, _dyadic(rng, sb))
    h2 = ds.Effect(B, _dyadic(rng, sb))
    h3 = ds.Effect(B, _dyadic(rng, sb))
    zero = ds.Effect(B, np.zeros(sb))
    monoid_ok = (
        np.array_equal(ds.effect_add(h1, zero).values, h1.values)
        and np.array_equal(
            ds.effect_add(h1, h2).values, ds.effect_add(h2, h1).values
        )
        and np.array_equal(
            ds.effect_add(ds.effect_add(h1, h2), h3).values,
            ds.effect_add(h1, ds.effect_add(h2, h3)).values,
        )
    )
    return Outcome(
        _digest(f.rows, g.values, g2.values),
        float(lhs_eff.values[0]),
        float(rhs_eff.values[0]),
        ok=err <= cfg.tolerance and monoid_ok,
        abs_err=err,
    )


def _stochasticity_trial(rng, cfg: SuiteConfig) -> Outcome:
    sa, sb, sc, sm = _sizes(rng, cfg, 4)
    drawn = random_rows(rng, sa, sb), random_rows(rng, sb, sc)
    fcop = _random_channel(rng, DISCRETE, ("a", sa), ("m", sm), ("b", sb))
    A, B, C = fcop.dom, fcop.out, DISCRETE.space("c", sc)
    c, d = ds.FiniteKernel(A, B, drawn[0]), ds.FiniteKernel(B, C, drawn[1])
    pi = DISCRETE.random_state(rng, A)
    arrays = [
        ds.push(c, pi).mass[None, :],
        ds.compose(d, c).rows,
        ds.copy_compose(d, c).rows,
        ds.tensor(c, d).rows,
        ds.bayes_invert(fcop, pi).rows,
    ]
    worst = max(float(np.max(np.abs(a.sum(axis=1) - 1.0))) for a in arrays)
    return Outcome(_digest(c.rows, d.rows, fcop.rows, pi.mass), worst, 0.0)


# ---------------------------------------------------------------------------
# registry and driver
# ---------------------------------------------------------------------------

#: each suite's trial and its defaults per instance it supports: trial
#: counts sized so the default run is the full certification, tolerances as
#: tight as the arithmetic supports.  A suite runs only on the instances
#: listed here, and by default on the first.
_SUITE_TABLE: dict[str, tuple[Callable, dict[str, dict]]] = {
    "buco": (_buco_trial, {
        "discrete": dict(trials=500, max_dim=5, tolerance=1e-9),
        "gaussian": dict(trials=100, max_dim=3, tolerance=1e-8),
    }),
    "chain-rule": (_chain_rule_trial, {"discrete": dict(trials=500, max_dim=4, tolerance=1e-9)}),
    "kl-strict": (_kl_strict_trial, {"discrete": dict(trials=200, max_dim=4, tolerance=1e-9)}),
    "mle-lax": (_mle_lax_trial, {"discrete": dict(trials=200, max_dim=4, tolerance=1e-9)}),
    "fe-sum": (_fe_sum_trial, {"discrete": dict(trials=100, max_dim=4, tolerance=1e-12)}),
    "fe-joint": (_fe_joint_trial, {"discrete": dict(trials=100, max_dim=4, tolerance=1e-9)}),
    "thermo": (_thermo_trial, {"discrete": dict(trials=100, max_dim=4, tolerance=1e-9)}),
    "laplace": (_laplace_trial, {"gaussian": dict(trials=100, max_dim=4, tolerance=1e-8)}),
    "laxators": (_laxators_trial, {"discrete": dict(trials=200, max_dim=3, tolerance=1e-8)}),
    "lax-naturality": (_lax_naturality_trial, {"discrete": dict(trials=100, max_dim=3, tolerance=1e-8)}),
    "bilinear": (_bilinear_trial, {"discrete": dict(trials=500, max_dim=4, tolerance=1e-12)}),
    "stochasticity": (_stochasticity_trial, {"discrete": dict(trials=200, max_dim=4, tolerance=1e-12)}),
}
SUITE_DEFAULTS: dict[str, dict[str, dict]] = {name: rows for name, (_, rows) in _SUITE_TABLE.items()}


def suites_with(instance: str | None = None) -> list[str]:
    """The sorted names of the suites that run on ``instance``; with none
    given, of every suite."""
    return sorted(s for s, rows in SUITE_DEFAULTS.items() if instance in (None, *rows))


def _run_trials(suite: str, trial: Callable, cfg: SuiteConfig) -> list[dict]:
    """The one trial loop: trial ``t`` draws from its own ``(seed, t)``
    stream, so a longer run extends a shorter one record for record."""
    records = []
    for t in range(cfg.trials):
        out = trial(_rng(cfg.seed, t), cfg)
        lhs, rhs = float(out.lhs), float(out.rhs)
        if math.isinf(lhs) or math.isinf(rhs):
            err = 0.0 if lhs == rhs else math.inf
        else:
            err = abs(lhs - rhs)
        records.append({
            "suite": suite,
            "trial": t,
            "inputs-digest": out.digest,
            "lhs": lhs,
            "rhs": rhs,
            "abs_err": err if out.abs_err is None else out.abs_err,
            "pass": bool(err <= cfg.tolerance and out.ok),
        })
    return records


SUITES: dict[str, Callable] = {
    name: functools.partial(_run_trials, name, trial) for name, (trial, _) in _SUITE_TABLE.items()
}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute one registered suite and collect its records."""
    start = time.perf_counter()
    records = SUITES[cfg.suite](cfg)
    return SuiteReport(
        suite=cfg.suite,
        config=cfg,
        records=records,
        wall_time_s=time.perf_counter() - start,
    )
