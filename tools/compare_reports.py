"""Compare what ``statgames verify``, ``demo``, ``eval-loss`` and ``inspect`` write at two revisions.

Usage (from the root of a git checkout)::

    python3 tools/compare_reports.py --parent <rev> --change <rev> \\
        --workdir <empty scratch dir> --seeds 0 1 7 42

Both revisions are exported with ``git archive`` into ``<workdir>/parent``
and ``<workdir>/change``, as ``tools/bench_pairs.py`` exports them.  At each
seed, each copy runs five commands from its own ``src``: ``python3 -m
statgames.cli verify --suite all --seed <seed>``, the same with
``--instance gaussian``, the same with ``--max-dim 7 --trials 10`` (whose
composite inversions have rows of thousands of entries, where the default
sizes stay below numpy's 128-entry pairwise block),
``demo --seed <seed>``, and the same demo at
``--lr 1e308 --steps 20``, which diverges (at seed 0 its first candidate's
stack of posteriors is refused, so the demo's masked path runs).  Each runs
in ``<workdir>/reports/<side>/<seed>/<command>`` and writes its reports
(the demo its trajectory, ``demo.csv``) there.  Every CSV report that is
not byte-identical, every JSON report that is unequal once its
``wall_time_s`` is removed, every summary line that is unequal once its
``time=`` field is removed, every unequal stderr line (the demo's
``final`` or ``diverged:`` line) and a differing exit code is printed.

Once per revision, not per seed, each copy also reads the fixed models of
``MODELS``, which are written into ``<workdir>/models``: a discrete lens
bundle with a coparameter, a Gaussian one with ``copar_dim`` 1 (each with a
tabulated, not exact, backward channel) and a prior for each.  It runs
``eval-loss --json`` on each for every loss model its instance supports
(with ``--decompose`` for ``fe`` and ``lfe``) and ``inspect`` on every
file, in ``<workdir>/reports/<side>/models/<command>``, and their outputs
are compared as above.  The exit code is 1 if anything differs, 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from itertools import zip_longest

from bench_pairs import export

SIDES = ("parent", "change")


def commands(seed: int) -> dict:
    """The commands compared at ``seed``, by name."""
    verify = ["verify", "--suite", "all", "--seed", str(seed)]
    return {
        "verify": verify,
        "verify-gaussian": [*verify, "--instance", "gaussian"],
        "verify-wide": [*verify, "--max-dim", "7", "--trials", "10"],
        "demo": ["demo", "--seed", str(seed), "--out", "demo.csv"],
        "demo-diverging": ["demo", "--seed", str(seed), "--lr", "1e308", "--steps", "20", "--out", "demo.csv"],
    }


#: per instance: a lens bundle, a prior, an observation and the loss models
#: ``eval-loss`` reads them with
MODELS = {
    "discrete": (
        {
            "fwd": {
                "dom": ["x0", "x1"],
                "copar": ["m0", "m1"],
                "cod": ["y0", "y1", "y2"],
                "rows": [[0.1, 0.2, 0.1, 0.2, 0.3, 0.1], [0.05, 0.15, 0.3, 0.25, 0.1, 0.15]],
            },
            "bwd": [
                {
                    "prior": {"space": ["x0", "x1"], "mass": [0.25, 0.75]},
                    "channel": {
                        "dom": ["y0", "y1", "y2"],
                        "copar": ["m0", "m1"],
                        "cod": ["x0", "x1"],
                        "rows": [[0.25, 0.25, 0.25, 0.25], [0.1, 0.4, 0.3, 0.2], [0.4, 0.1, 0.2, 0.3]],
                    },
                }
            ],
        },
        {"space": ["x0", "x1"], "mass": [0.25, 0.75]},
        "y1",
        ("kl", "mle", "fe"),
    ),
    "gaussian": (
        {
            "fwd": {"A": [[1.0], [0.5]], "b": [0.0, 0.25], "noise": [[1.0, 0.2], [0.2, 0.5]], "copar_dim": 1},
            "bwd": [
                {
                    "prior": {"mean": [0.5], "cov": [[2.0]]},
                    "channel": {"A": [[0.4], [0.3]], "b": [0.1, -0.2], "noise": [[0.5, 0.1], [0.1, 0.4]], "copar_dim": 1},
                }
            ],
        },
        {"mean": [0.5], "cov": [[2.0]]},
        "0.75",
        ("kl", "mle", "fe", "lfe"),
    ),
}


def model_commands(folder: str) -> dict:
    """Write the files of ``MODELS`` into the new directory ``folder``: the
    commands compared on them, by name."""
    os.makedirs(folder)
    out = {}
    for instance, (lens, prior, obs, losses) in MODELS.items():
        paths = {}
        for kind, obj in (("lens", lens), ("prior", prior)):
            paths[kind] = os.path.abspath(os.path.join(folder, f"{instance}-{kind}.json"))
            with open(paths[kind], "w") as fh:
                json.dump(obj, fh, indent=1)
        for loss in losses:
            args = ["eval-loss", "--model", paths["lens"], "--prior", paths["prior"]]
            args += ["--loss", loss, "--obs", obs, "--json"]
            out[f"eval-loss-{instance}-{loss}"] = args + ["--decompose"] * (loss in ("fe", "lfe"))
        for kind, path in paths.items():
            out[f"inspect-{instance}-{kind}"] = ["inspect", "--model", path]
    return out


def run(root: str, args: list, report_dir: str) -> tuple[int, list, list]:
    """The command-line ``args`` from the copy at ``root``, run in
    ``report_dir``, where it writes its reports: its exit code, its
    summary lines and its stderr lines."""
    report_dir = os.path.abspath(report_dir)
    os.makedirs(report_dir, exist_ok=True)
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ, PYTHONPATH=src, STATGAMES_REPORT_DIR=report_dir)
    cmd = [sys.executable, "-m", "statgames.cli", *args]
    proc = subprocess.run(cmd, cwd=report_dir, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.splitlines()


def _untimed_line(line: str) -> str:
    return re.sub(r" time=\S*", "", line)


def _untimed_report(text: bytes):
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return report


def _read(folder: str, name: str):
    path = os.path.join(folder, name)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _names(folder: str) -> set:
    return set(os.listdir(folder)) if os.path.isdir(folder) else set()


def differences(parent: tuple, change: tuple) -> list:
    """What differs between two runs, each ``(exit code, summary lines,
    stderr lines, report directory)``, apart from their timings."""
    (rc, lines, err, folder), (rc2, lines2, err2, folder2) = parent, change
    out = [f"exit code {rc} -> {rc2}"] if rc != rc2 else []
    untimed = zip_longest(map(_untimed_line, lines), map(_untimed_line, lines2))
    for i, (a, b) in enumerate(untimed, 1):
        if a != b:
            out.append(f"summary line {i}: {a!r} -> {b!r}")
    for i, (a, b) in enumerate(zip_longest(err, err2), 1):
        if a != b:
            out.append(f"stderr line {i}: {a!r} -> {b!r}")
    for name in sorted(_names(folder) | _names(folder2)):
        a, b = _read(folder, name), _read(folder2, name)
        if a is None or b is None:
            out.append(f"{name}: written at one revision only")
        elif (_untimed_report(a) != _untimed_report(b)) if name.endswith(".json") else a != b:
            out.append(f"{name} differs")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workdir", required=True, help="a directory that does not exist yet")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)

    roots = {side: os.path.join(args.workdir, side) for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        export(rev, roots[side])
    batches = [(f"seed {seed}", str(seed), commands(seed)) for seed in args.seeds]
    batches.append(("models", "models", model_commands(os.path.join(args.workdir, "models"))))
    found = 0
    for label, key, batch in batches:
        for name, command in batch.items():
            runs = []
            for side in SIDES:
                folder = os.path.join(args.workdir, "reports", side, key, name)
                runs.append((*run(roots[side], command, folder), folder))
            diffs = differences(*runs)
            for line in diffs or ["no difference"]:
                print(f"{label} {name}: {line}", flush=True)
            found += len(diffs)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
