"""Command-line front end.

Subcommands:

* ``verify``    -- run registered verification suites, write reports
* ``eval-loss`` -- evaluate a loss model on a JSON lens bundle
* ``demo``      -- minimize the free energy of a 1-D conjugate model by
  finite-difference gradient descent, writing the trajectory as CSV
* ``inspect``   -- print the structure and stochasticity audit of a model

Exit codes: 0 success, 1 numeric failure (failed suite, unsupported
observation, singular covariance, divergent demo), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import discrete as ds
from . import gaussian as gs
from .errors import (
    InstanceError,
    ModelParseError,
    ShapeError,
    SingularityError,
    SupportError,
)
from .harness import SUITE_DEFAULTS, SUITES, SuiteConfig, check_suite, run_suite
from .lens import BayesLens, apply_channel, exact_lens, instance_of
from .loss import (
    LossModel,
    energy_entropy_decomp,
    loss_for,
    mle_loss,
)
from .modelio import load_json, parse_channel, parse_lens, parse_state


def build_parser() -> argparse.ArgumentParser:
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
    v.add_argument("--instance", choices=["discrete", "gaussian"], default="discrete")
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


def _suite_config(name: str, args) -> SuiteConfig:
    defaults = SUITE_DEFAULTS[name][args.instance]
    given = dict(trials=args.trials, max_dim=args.max_dim, tolerance=args.tol)
    return SuiteConfig(
        suite=name,
        seed=args.seed,
        instance=args.instance,
        **{k: defaults[k] if v is None else v for k, v in given.items()},
    )


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        check_suite(name, args.instance)
    # every configuration is checked before any suite runs or writes
    configs = [_suite_config(name, args) for name in names]
    report_dir = os.environ.get("STATGAMES_REPORT_DIR", "reports")
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


# ---------------------------------------------------------------------------
# eval-loss
# ---------------------------------------------------------------------------


def _parse_obs(lens: BayesLens, literal: str):
    if lens.instance == "gaussian":
        try:
            val = json.loads(literal)
        except json.JSONDecodeError:
            try:
                val = [float(x) for x in literal.split(",")]
            except ValueError:
                raise ModelParseError(f"cannot parse observation {literal!r}") from None
        arr = np.atleast_1d(np.asarray(val, dtype=float))
        if arr.size != lens.fwd.out_dim:
            raise ModelParseError(
                f"observation has dimension {arr.size}, expected {lens.fwd.out_dim}"
            )
        return arr
    out = lens.fwd.out
    try:
        parsed = json.loads(literal)
    except json.JSONDecodeError:
        parsed = literal
    if isinstance(parsed, int) and 0 <= parsed < out.size:
        return parsed
    label = tuple(parsed) if isinstance(parsed, list) else parsed
    if isinstance(label, str) and "|" in label and out.n_factors > 1:
        label = tuple(label.split("|"))
    try:
        return out.index(label)
    except (ValueError, ShapeError):
        raise ModelParseError(f"observation {literal!r} is not an outcome of the codomain") from None


def cmd_eval_loss(args) -> int:
    lens = parse_lens(load_json(args.model))
    prior = parse_state(load_json(args.prior))
    if instance_of(prior) != lens.instance:
        raise ModelParseError("prior and model are from different instances")
    obs = _parse_obs(lens, args.obs)
    model = LossModel(args.loss)
    value = loss_for(model, lens)(prior, obs)
    lines = [("loss", value)]
    if args.decompose:
        if model not in (LossModel.FE, LossModel.LFE):
            print("--decompose applies to fe and lfe only", file=sys.stderr)
            return 2
        if model is LossModel.FE:
            energy, entropy = energy_entropy_decomp(lens, prior, obs)
        else:
            entropy = gs.g_entropy(apply_channel(lens.bwd(prior), obs))
            energy = value + entropy
        lines += [("energy", energy), ("entropy", entropy)]
    if args.json:
        print(json.dumps({k: v for k, v in lines}, sort_keys=True))
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


def _demo_posterior(params, y) -> gs.GaussState:
    """The approximate posterior at ``y``: ``N(gain * y + offset, exp(logvar))``."""
    gain, offset, logvar = (float(v) for v in params)
    return gs.g_apply(gs.GaussChannel([[gain]], [offset], [[math.exp(logvar)]]), y)


def cmd_demo(args) -> int:
    prior = gs.GaussState([0.0], [[1.0]])
    y = np.array([DEMO_OBSERVATION])
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    params = rng.uniform(-0.1, 0.1, size=3)
    # the forward channel and the prior are fixed, so the exact posterior
    # and the observation's code length are computed once
    lens = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
    exact = apply_channel(lens.bwd(prior), y)
    neg_log_evidence = mle_loss(lens)(prior, y)

    def terms(p) -> tuple[float, float, float]:
        kl = float(gs.g_kl(_demo_posterior(p, y), exact))
        return kl + neg_log_evidence, kl, neg_log_evidence

    def gradient(p):
        g = np.zeros_like(p)
        for i in range(p.size):
            up, down = p.copy(), p.copy()
            up[i] += DEMO_FD_STEP
            down[i] -= DEMO_FD_STEP
            g[i] = (terms(up)[0] - terms(down)[0]) / (2 * DEMO_FD_STEP)
        return g

    rows = []
    fe, kl, mle = terms(params)
    rows.append((0, fe, kl, mle, *params))
    rejects = 0
    step = 0
    while step < args.steps:
        candidate = params - args.lr * gradient(params)
        cand_fe, cand_kl, cand_mle = terms(candidate)
        if cand_fe <= fe + DEMO_SLACK:
            params = candidate
            fe, kl, mle = cand_fe, cand_kl, cand_mle
            step += 1
            rows.append((step, fe, kl, mle, *params))
            rejects = 0
        else:
            rejects += 1
            if rejects >= DEMO_MAX_REJECTS:
                print(
                    f"diverged: objective rose for {rejects} consecutive steps; "
                    f"last state step={step} fe={fe!r} params={params.tolist()!r}",
                    file=sys.stderr,
                )
                _write_demo_csv(args.out, rows)
                return 1

    _write_demo_csv(args.out, rows)
    print(
        f"final fe={fe!r} kl_term={kl!r} mle_term={mle!r} "
        f"neg_log_evidence={neg_log_evidence!r}",
        file=sys.stderr,
    )
    return 0


def _write_demo_csv(path, rows) -> None:
    lines = ["step,fe,kl_term,mle_term,gain,offset,logvar"]
    for row in rows:
        step, *vals = row
        lines.append(str(step) + "," + ",".join(repr(float(v)) for v in vals))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def _describe_space(s: ds.FiniteSpace) -> str:
    return f"size {s.size}, factors {list(s.factor_sizes)}"


def _audit_rows(rows: np.ndarray) -> str:
    sums = rows.sum(axis=1)
    return (
        f"row sums in [{sums.min()!r}, {sums.max()!r}], "
        f"max deviation {np.abs(sums - 1.0).max():.3e}"
    )


def _inspect_channel(ch) -> None:
    if isinstance(ch, ds.CoparKernel):
        print("discrete channel")
        print(f"  dom:   {_describe_space(ch.dom)}")
        print(f"  copar: {_describe_space(ch.copar)} ({ch.copar_side})")
        print(f"  out:   {_describe_space(ch.out)}")
        print(f"  audit: {_audit_rows(ch.rows)}")
    else:
        print("gaussian channel")
        print(f"  dom dim:   {ch.dom_dim}")
        print(f"  copar dim: {ch.copar_dim} ({ch.copar_side})")
        print(f"  out dim:   {ch.out_dim}")
        print(f"  noise eigenvalue range: "
              f"[{np.linalg.eigvalsh(ch.noise).min():.3e}, "
              f"{np.linalg.eigvalsh(ch.noise).max():.3e}]")


def cmd_inspect(args) -> int:
    obj = load_json(args.model)
    if not isinstance(obj, dict):
        raise ModelParseError("model file must hold a JSON object")
    if "fwd" in obj:
        lens = parse_lens(obj)
        print("lens bundle")
        _inspect_channel(lens.fwd)
        bwd = obj.get("bwd", "exact")
        kind = "exact inversion" if bwd == "exact" else f"table of {len(bwd)} priors"
        print(f"  backward: {kind}")
        return 0
    if "dom" in obj or "A" in obj:
        _inspect_channel(parse_channel(obj))
        return 0
    if "space" in obj or "mean" in obj:
        state = parse_state(obj)
        if isinstance(state, ds.Dist):
            print("discrete state")
            print(f"  space: {_describe_space(state.space)}")
            print(f"  mass sums to {state.mass.sum()!r}")
        else:
            print("gaussian state")
            print(f"  dim: {state.dim}")
            print(f"  covariance eigenvalue range: "
                  f"[{np.linalg.eigvalsh(state.cov).min():.3e}, "
                  f"{np.linalg.eigvalsh(state.cov).max():.3e}]")
        return 0
    raise ModelParseError("unrecognized model object; expected a channel, state, or lens bundle")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except ShapeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SupportError, SingularityError, InstanceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
