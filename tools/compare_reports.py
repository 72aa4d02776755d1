"""Compare what ``statgames verify --suite all`` writes at two revisions.

Usage (from the root of a git checkout)::

    python3 tools/compare_reports.py --parent <rev> --change <rev> \\
        --workdir <empty scratch dir> --seeds 0 1 7 42

Both revisions are exported with ``git archive`` into ``<workdir>/parent``
and ``<workdir>/change``, as ``tools/bench_pairs.py`` exports them.  At each
seed, each copy runs ``python3 -m statgames.cli verify --suite all --seed
<seed>`` from its own ``src``, with its reports written to
``<workdir>/reports/<side>/<seed>``.  Every CSV report that is not
byte-identical, every JSON report that is unequal once its ``wall_time_s``
is removed, every summary line that is unequal once its ``time=`` field is
removed, and a differing exit code is printed.  The exit code is 1 if
anything differs, 0 otherwise.
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


def verify(root: str, seed: int, report_dir: str) -> tuple[int, list]:
    """``verify --suite all`` at ``seed`` from the copy at ``root``: its exit
    code and its summary lines."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), STATGAMES_REPORT_DIR=report_dir)
    cmd = [sys.executable, "-m", "statgames.cli", "verify", "--suite", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


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
    report directory)``, apart from their timings."""
    (rc, lines, folder), (rc2, lines2, folder2) = parent, change
    out = [f"exit code {rc} -> {rc2}"] if rc != rc2 else []
    untimed = zip_longest(map(_untimed_line, lines), map(_untimed_line, lines2))
    for i, (a, b) in enumerate(untimed, 1):
        if a != b:
            out.append(f"summary line {i}: {a!r} -> {b!r}")
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
    found = 0
    for seed in args.seeds:
        runs = []
        for side in SIDES:
            folder = os.path.join(args.workdir, "reports", side, str(seed))
            runs.append((*verify(roots[side], seed, folder), folder))
        diffs = differences(*runs)
        for line in diffs or ["no difference"]:
            print(f"seed {seed}: {line}", flush=True)
        found += len(diffs)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
