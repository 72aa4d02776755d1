"""The benchmark's four workloads.

Each workload draws its inputs from the workload seed in ``setup`` and runs
one fixed-size *round* of operations per ``run_round`` call, through the
public statgames API only.  A round rebuilds every library object from the
generated inputs (or from files), so no library state carries over from one
round to the next.  ``run_round`` returns ``(ops, failed)``: the operations
attempted and how many failed their correctness check, judged by the
library's own thresholds.  ``input_digest`` hashes the generated inputs,
never values the library computes from them, so an honest change in the
library's arithmetic leaves it unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re

import numpy as np

#: first SeedSequence word of benchmark-generated inputs, so the streams
#: differ from the library's own ``(seed, trial)`` streams
SEED_TAG = 0x5747


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED_TAG, seed]))


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class Workload:
    name = ""
    #: what one operation is, for the printed report
    op_unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs; repeatable, and part of ``setup_s``."""

    def run_round(self) -> tuple[int, int]:
        raise NotImplementedError

    def input_digest(self) -> str:
        """Digest of the inputs of the round last run (or of ``setup``)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^(PASS|FAIL) (\S+): trials=(\d+) failures=(\d+) ")
#: trials per suite in one round: a quarter of each suite's default count in
#: ``statgames verify --suite all`` (2800 trials, about 13 s), so a round keeps
#: the default mix of suites but lasts about 3 s and a run holds several
VERIFY_TRIALS = {
    "bilinear": 125,
    "buco": 125,
    "chain-rule": 125,
    "fe-joint": 25,
    "fe-sum": 25,
    "kl-strict": 50,
    "laplace": 25,
    "laxators": 50,
    "lax-naturality": 25,
    "mle-lax": 50,
    "stochasticity": 50,
    "thermo": 25,
}


class VerifyAll(Workload):
    """``statgames verify --suite <s> --trials <n>`` for every registered
    suite: the default certification at a quarter of its trials."""

    name = "verify-all"
    op_unit = "trials"

    def setup(self) -> None:
        self.report_dir = os.path.join(self.workdir, "reports")
        os.makedirs(self.report_dir, exist_ok=True)

    def run_round(self) -> tuple[int, int]:
        from statgames import cli

        os.environ["STATGAMES_REPORT_DIR"] = self.report_dir
        ops = failed = 0
        self.suites = []
        for suite, trials in VERIFY_TRIALS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(
                    ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(self.seed)]
                )
            m = _SUMMARY.match(out.getvalue())
            if m is None:
                ops += trials
                failed += trials
                continue
            self.suites.append(m.group(2))
            ops += int(m.group(3))
            bad = int(m.group(4))
            failed += max(bad, 1) if rc != 0 or m.group(1) != "PASS" else bad
        return ops, failed

    def input_digest(self) -> str:
        """Hash of the per-suite ``inputs-digest`` report columns."""
        h = hashlib.sha256()
        for suite in self.suites:
            with open(os.path.join(self.report_dir, f"{suite}.csv"), newline="") as fh:
                for row in csv.DictReader(fh):
                    h.update(f"{row['suite']},{row['trial']},{row['inputs-digest']}\n".encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# gauss-compose
# ---------------------------------------------------------------------------

#: every (dx, dy, dz, dm, dn) with dimensions 1-3 and coparameters 0-1 once
#: per round, so the seed changes values but not the amount of work
GAUSS_SHAPES = tuple(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (0, 1), (0, 1)))
#: noise and prior covariances are at least this times the identity, which
#: keeps every density below 1, so the MLE/FE witnesses (expected code
#: lengths of the intermediate observation) are nonnegative as the
#: NONNEG_FLOOR check assumes, and the inversions are well conditioned
GAUSS_COV_FLOOR = 0.5
BUCO_TOL = 1e-8


def _gauss_channel_arrays(rng, dom: int, cod: int):
    a = rng.uniform(-1.0, 1.0, size=(cod, dom))
    b = rng.uniform(-1.0, 1.0, size=cod)
    l = rng.uniform(-1.0, 1.0, size=(cod, cod))
    return a, b, l @ l.T / cod + GAUSS_COV_FLOOR * np.eye(cod)


class GaussCompose(Workload):
    """KL/MLE/FE laxness witnesses and the buco residual on 108
    affine-Gaussian lens pairs: the Gaussian ``loss_compose`` branch."""

    name = "gauss-compose"
    op_unit = "witnesses"

    def setup(self) -> None:
        rng = _rng(self.seed)
        self.pairs = []
        for dx, dy, dz, dm, dn in GAUSS_SHAPES:
            c = _gauss_channel_arrays(rng, dx, dm + dy)
            d = _gauss_channel_arrays(rng, dy, dn + dz)
            l = rng.uniform(-1.0, 1.0, size=(dx, dx))
            prior = (rng.uniform(-1.0, 1.0, size=dx), l @ l.T / dx + GAUSS_COV_FLOOR * np.eye(dx))
            z = rng.uniform(-1.0, 1.0, size=dz)
            self.pairs.append((c, dm, d, dn, prior, z))

    def run_round(self) -> tuple[int, int]:
        from statgames import GaussChannel, GaussState, buco_residual, exact_lens
        from statgames.games import NONNEG_FLOOR, STRICT_TOL, laxness_witness
        from statgames.loss import LossModel

        checks = {
            LossModel.KL: lambda k: abs(k) <= STRICT_TOL,
            LossModel.MLE: lambda k: k >= NONNEG_FLOOR,
            LossModel.FE: lambda k: k >= NONNEG_FLOOR,
        }
        ops = failed = 0
        for c, dm, d, dn, prior, z in self.pairs:
            lc = exact_lens(GaussChannel(*c, copar_dim=dm))
            ld = exact_lens(GaussChannel(*d, copar_dim=dn))
            pi = GaussState(*prior)
            witnesses_ok = [check(laxness_witness(m, ld, lc, pi, z)) for m, check in checks.items()]
            residual_ok = buco_residual(lc, ld, pi) <= BUCO_TOL
            ops += len(witnesses_ok)
            failed += len(witnesses_ok) if not residual_ok else witnesses_ok.count(False)
        return ops, failed

    def input_digest(self) -> str:
        arrays = []
        for c, dm, d, dn, prior, z in self.pairs:
            arrays += [*c, [dm], *d, [dn], *prior, z]
        return _hash_arrays(arrays)


# ---------------------------------------------------------------------------
# demo-descent
# ---------------------------------------------------------------------------

DEMO_STEPS = 2000
#: closed form of the demo's target: the evidence is N(0, 2), observed at 1
DEMO_NEG_LOG_EVIDENCE = 0.5 * math.log(2 * math.pi * 2.0) + 1.0 / 4.0
DEMO_SLACK = 1e-6
DEMO_GOAL = 1e-2


class DemoDescent(Workload):
    """``statgames demo``: finite-difference descent on the free energy of a
    1-D conjugate model, the optimisation-loop use of the loss models."""

    name = "demo-descent"
    op_unit = "accepted steps"

    def setup(self) -> None:
        self.csv_path = os.path.join(self.workdir, "demo.csv")

    def run_round(self) -> tuple[int, int]:
        from statgames import cli

        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(
                ["demo", "--steps", str(DEMO_STEPS), "--seed", str(self.seed), "--out", self.csv_path]
            )
        with open(self.csv_path) as fh:
            self.rows = [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]
        fe = [r[1] for r in self.rows]
        rises = sum(1 for a, b in zip(fe, fe[1:]) if b > a + DEMO_SLACK)
        converged = (
            len(self.rows) == DEMO_STEPS + 1
            and self.rows[-1][2] < DEMO_GOAL
            and abs(fe[-1] - DEMO_NEG_LOG_EVIDENCE) < DEMO_GOAL
        )
        return DEMO_STEPS, DEMO_STEPS if rc != 0 or not converged else rises

    def input_digest(self) -> str:
        """Hash of the starting parameters (gain, offset, logvar) the demo
        draws from the seed."""
        return _hash_arrays([self.rows[0][4:]])


# ---------------------------------------------------------------------------
# deep-chain
# ---------------------------------------------------------------------------

CHAIN_DEPTH = 7
CHAIN_STATES = 3
CHAIN_COPAR = 2
#: share of uniform mass mixed into generated rows, so every entry is
#: bounded away from zero as in the library's own generators
CHAIN_MIX = 0.05


def _stochastic(rng, n_rows: int, n_cols: int) -> np.ndarray:
    raw = rng.gamma(1.0, size=(n_rows, n_cols))
    rows = raw / raw.sum(axis=1, keepdims=True)
    return (1.0 - CHAIN_MIX) * rows + CHAIN_MIX / n_cols


class DeepChain(Workload):
    """A depth-7 chain of 3-state discrete lenses with 2-point coparameters,
    loaded from model files, composed, and scored by KL/MLE/FE both on the
    materialised composite and by folding ``loss_compose`` over the stages."""

    name = "deep-chain"
    op_unit = "composite loss evaluations"

    def setup(self) -> None:
        rng = _rng(self.seed)
        self.stage_rows = [
            _stochastic(rng, CHAIN_STATES, CHAIN_COPAR * CHAIN_STATES) for _ in range(CHAIN_DEPTH)
        ]
        self.prior_mass = _stochastic(rng, 1, CHAIN_STATES)[0]
        self.stage_paths = []
        for i, rows in enumerate(self.stage_rows):
            fwd = {
                "dom": [f"s{i}_{k}" for k in range(CHAIN_STATES)],
                "copar": [f"m{i}_{k}" for k in range(CHAIN_COPAR)],
                "cod": [f"s{i + 1}_{k}" for k in range(CHAIN_STATES)],
                "rows": rows.tolist(),
            }
            self.stage_paths.append(self._write(f"stage{i}.json", {"fwd": fwd, "bwd": "exact"}))
        prior = {"space": [f"s0_{k}" for k in range(CHAIN_STATES)], "mass": self.prior_mass.tolist()}
        self.prior_path = self._write("prior.json", prior)

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def run_round(self) -> tuple[int, int]:
        from statgames import lens_compose, loss_compose
        from statgames.games import NONNEG_FLOOR, STRICT_TOL
        from statgames.loss import LossModel, loss_for
        from statgames.modelio import load_json, parse_lens, parse_state

        stages = [parse_lens(load_json(p)) for p in self.stage_paths]
        prior = parse_state(load_json(self.prior_path))
        composites = [stages[0]]
        for stage in stages[1:]:
            composites.append(lens_compose(stage, composites[-1]))
        ops = failed = 0
        for model in (LossModel.KL, LossModel.MLE, LossModel.FE):
            folded = loss_for(model, stages[0])
            for stage, before in zip(stages[1:], composites):
                folded = loss_compose(loss_for(model, stage), folded, stage, before)
            direct = loss_for(model, composites[-1])
            for z in range(CHAIN_STATES):
                k = folded(prior, z) - direct(prior, z)
                ok = abs(k) <= STRICT_TOL if model is LossModel.KL else k >= NONNEG_FLOOR
                ops += 1
                failed += not ok
        return ops, failed

    def input_digest(self) -> str:
        return _hash_arrays([*self.stage_rows, self.prior_mass])


WORKLOADS = {w.name: w for w in (VerifyAll, GaussCompose, DemoDescent, DeepChain)}
