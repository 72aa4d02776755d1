"""Command-line front end.

Subcommands:

* ``verify``    -- run registered verification suites, write reports
* ``eval-loss`` -- evaluate a loss model on a JSON lens bundle
* ``demo``      -- minimize the free energy of a 1-D conjugate model by
  finite-difference gradient descent, writing the trajectory as CSV
* ``inspect``   -- print the structure and stochasticity audit of a model

Exit codes: 0 success, 1 numeric failure (failed suite, unsupported
observation, singular covariance, divergent demo), 2 usage or parse error,
an output location that cannot be written included.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import gaussian as gs
from .backend import BACKENDS, backend_of
from .errors import (
    InstanceError,
    ModelParseError,
    ShapeError,
    SingularityError,
    SupportError,
)
from .harness import SuiteConfig, run_suite, suites_with
from .lens import exact_lens
from .loss import (
    LossModel,
    energy_entropy_decomp,
    loss_for,
    mle_loss,
)
from .modelio import load_json, parse_channel, parse_lens, parse_state


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in it."""
    p = argparse.ArgumentParser(
        prog="statgames",
        description="compositional approximate inference: verification and evaluation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", required=True, help="suite name or 'all'")
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-dim", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--instance", choices=sorted(BACKENDS), help="default: each suite's first")
    v.add_argument("--report", default=None, help="write a combined JSON report here")

    e = sub.add_parser("eval-loss", help="evaluate a loss on a JSON model")
    e.add_argument("--model", required=True, help="lens bundle JSON file")
    e.add_argument("--loss", required=True, choices=["kl", "mle", "fe", "lfe"])
    e.add_argument("--prior", required=True, help="state JSON file")
    e.add_argument("--obs", required=True, help="observation literal")
    e.add_argument("--decompose", action="store_true", help="also print the energy/entropy split")
    e.add_argument("--json", action="store_true", help="emit a JSON object instead of plain lines")

    d = sub.add_parser("demo", help="free-energy minimization on a 1-D conjugate model")
    d.add_argument("--steps", type=int, default=2000)
    d.add_argument("--lr", type=float, default=1e-2)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None, help="trajectory CSV path (default: stdout)")

    i = sub.add_parser("inspect", help="print model structure and stochasticity audit")
    i.add_argument("--model", required=True)
    return p


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = suites_with(args.instance) if args.suite == "all" else [args.suite]
    # every configuration is checked before any suite runs or writes
    configs = [
        SuiteConfig(name, args.trials, args.seed, args.max_dim, args.tol, args.instance)
        for name in names
    ]
    report_dir = os.environ.get("STATGAMES_REPORT_DIR", "reports")
    written = [os.path.join(report_dir, f"{n}.{ext}") for n in names for ext in ("json", "csv")]
    for path in written if args.report is None else [args.report]:
        _check_writable(path, makes_dirs=args.report is None)
    reports = []
    all_pass = True
    for name, cfg in zip(names, configs):
        report = run_suite(cfg)
        reports.append(report)
        print(report.summary_line())
        all_pass = all_pass and report.passed
        if args.report is None:
            os.makedirs(report_dir, exist_ok=True)
            with open(os.path.join(report_dir, f"{name}.json"), "w") as fh:
                fh.write(report.to_json())
            with open(os.path.join(report_dir, f"{name}.csv"), "w") as fh:
                fh.write(report.to_csv())
    if args.report is not None:
        with open(args.report, "w") as fh:
            json.dump(
                [json.loads(r.to_json()) for r in reports], fh, sort_keys=True, indent=1
            )
    return 0 if all_pass else 1


def _check_writable(path: str, makes_dirs: bool = False) -> None:
    """Raise, before any work, the ``OSError`` that writing ``path`` would
    (after making its missing directories, with ``makes_dirs``), and leave
    nothing behind: a file that is there is left as it is."""
    folder = os.path.dirname(path) or "."
    while makes_dirs and not os.path.exists(folder):
        folder, path = os.path.dirname(folder) or ".", None
    if path is None:  # the writer makes the missing directories under ``folder``
        os.scandir(folder).close()
        return
    there = os.path.exists(path)
    with open(path, "a"):
        pass
    if not there:
        os.remove(path)


# ---------------------------------------------------------------------------
# eval-loss
# ---------------------------------------------------------------------------


def cmd_eval_loss(args) -> int:
    model = LossModel(args.loss)
    if args.decompose and model not in (LossModel.FE, LossModel.LFE):
        print("error: --decompose applies to fe and lfe only", file=sys.stderr)
        return 2
    lens = parse_lens(load_json(args.model))
    prior = parse_state(load_json(args.prior))
    if backend_of(prior) is not lens.backend:
        raise ModelParseError("prior and model are from different instances")
    obs = lens.backend.parse_obs(lens.fwd, args.obs)
    value = loss_for(model, lens)(prior, obs)
    lines = [("loss", value)]
    if args.decompose:
        energy, entropy = energy_entropy_decomp(lens, prior, obs)
        if model is LossModel.LFE:
            energy = value + entropy  # the Laplace energy, at the posterior mean
        lines += [("energy", energy), ("entropy", entropy)]
    if args.json:
        # strict JSON: an infinite loss is written as the string "inf" or "-inf"
        body = {k: v if math.isfinite(v) else str(v) for k, v in lines}
        print(json.dumps(body, sort_keys=True, allow_nan=False))
    else:
        for key, val in lines:
            print(f"{key} = {val!r}")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

DEMO_OBSERVATION = 1.0
DEMO_SLACK = 1e-6
DEMO_FD_STEP = 1e-5
DEMO_MAX_REJECTS = 50


#: the candidate's row, then +h and -h along (gain, offset, logvar) in turn;
#: -0.0 elsewhere, as adding it keeps every bit (-0.0 + 0.0 is +0.0)
_DEMO_OFFSETS = np.full((7, 3), -0.0)
np.fill_diagonal(_DEMO_OFFSETS[1::2], DEMO_FD_STEP)
np.fill_diagonal(_DEMO_OFFSETS[2::2], -DEMO_FD_STEP)
_DEMO_OFFSETS.setflags(write=False)


def _demo_kl(points: np.ndarray, exact: gs.GaussState) -> np.ndarray:
    """The KL term at each row ``(gain, offset, logvar)`` of ``points``: the
    divergence of the approximate posterior ``N(gain * y + offset,
    exp(logvar))`` from ``exact``, by one ``g_kl`` call on the stack of
    them; ``+inf`` where the mean or the variance is not a finite number."""
    gain, offset, logvar = points.T
    mean = gain * DEMO_OBSERVATION + offset
    # ``math.exp`` per entry: ``np.exp`` differs from it in the last bit on
    # some inputs, which would move the trajectory
    var = np.array([math.exp(v) for v in logvar.tolist()])
    try:  # the stack's constructor checks every entry: the one finiteness check
        return gs.g_kl(gs.GaussState(mean[:, None], var[:, None, None]), exact)
    except ShapeError:  # ``exp`` is never negative, so some entry is not finite
        kl = np.full(len(points), math.inf)
        ok = np.isfinite(mean) & np.isfinite(var)
        if ok.any():
            kl[ok] = gs.g_kl(gs.GaussState(mean[ok, None], var[ok, None, None]), exact)
        return kl


def cmd_demo(args) -> int:
    for flag, value in (("--seed", args.seed), ("--steps", args.steps)):
        if value < 0:
            raise ShapeError(f"{flag} must be >= 0, not {value}")
    if not (math.isfinite(args.lr) and args.lr >= 0):
        raise ShapeError(f"--lr must be a finite number >= 0, not {args.lr}")
    prior = gs.GaussState([0.0], [[1.0]])
    y = np.array([DEMO_OBSERVATION])
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    params = rng.uniform(-0.1, 0.1, size=3)
    # the forward channel and the prior are fixed, so the exact posterior
    # and the observation's code length are computed once
    lens = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
    exact = gs.g_apply(lens.bwd(prior), y)
    neg_log_evidence = mle_loss(lens)(prior, y)

    def probed(p):
        """The free energy and the KL term at ``p``, and the free energy's
        gradient there by central differences, from one ``g_kl`` call."""
        kl = _demo_kl(p + _DEMO_OFFSETS, exact)
        fe = kl + neg_log_evidence
        return float(fe[0]), float(kl[0]), (fe[1::2] - fe[2::2]) / (2 * DEMO_FD_STEP)

    # opened before the first step: a location that cannot be written costs no descent
    sink = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w")
    # a step too long overflows; its objective is then +inf or NaN, which
    # is a rise like any other, so the overflow is expected and silent
    with sink as out, np.errstate(over="ignore", invalid="ignore"):
        def write(step, *vals):  # one row of Python floats, written as it is accepted
            out.write(f"{step}," + ",".join(map(repr, vals)) + "\n")

        out.write("step,fe,kl_term,mle_term,gain,offset,logvar\n")
        fe, kl, grad = probed(params)
        write(0, fe, kl, neg_log_evidence, *params.tolist())
        for step in range(1, args.steps + 1):
            candidate = params - args.lr * grad
            cand_fe, cand_kl, cand_grad = probed(candidate)
            if not cand_fe <= fe + DEMO_SLACK:
                # a rejection changes nothing, so each of the allowed retries
                # would repeat this candidate and its rise: one try decides
                print(
                    f"diverged: objective rose for {DEMO_MAX_REJECTS} consecutive steps; "
                    f"last state step={step - 1} fe={fe!r} params={params.tolist()!r}",
                    file=sys.stderr,
                )
                return 1
            # the accepted candidate's probes give the next gradient
            params, fe, kl, grad = candidate, cand_fe, cand_kl, cand_grad
            write(step, fe, kl, neg_log_evidence, *params.tolist())

    print(
        f"final fe={fe!r} kl_term={kl!r} mle_term={neg_log_evidence!r} "
        f"neg_log_evidence={neg_log_evidence!r}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    obj = load_json(args.model)
    if not isinstance(obj, dict):
        raise ModelParseError("model file must hold a JSON object")
    if "fwd" in obj:
        lens = parse_lens(obj)
        print("lens bundle", *lens.backend.describe_channel(lens.fwd), sep="\n")
        bwd = obj.get("bwd", "exact")
        kind = "exact inversion" if bwd == "exact" else f"table of {len(bwd)} priors"
        print(f"  backward: {kind}")
        return 0
    if any(b.channel_key in obj for b in BACKENDS.values()):
        ch = parse_channel(obj)
        print(*backend_of(ch).describe_channel(ch), sep="\n")
        return 0
    if any(b.state_key in obj for b in BACKENDS.values()):
        state = parse_state(obj)
        print(*backend_of(state).describe_state(state), sep="\n")
        return 0
    raise ModelParseError("unrecognized model object; expected a channel, state, or lens bundle")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eval-loss":
            return cmd_eval_loss(args)
        if args.command == "demo":
            return cmd_demo(args)
        return cmd_inspect(args)
    except ModelParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SupportError, SingularityError, InstanceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
