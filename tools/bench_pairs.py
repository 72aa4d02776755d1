"""Alternating parent/change pairs of the benchmark, summarised as a
``BENCH_<n>.json`` record.

Usage (from the root of a git checkout)::

    python3 tools/bench_pairs.py --parent <rev> --change <rev> \\
        --workdir <empty scratch dir> --seed 20 --out BENCH_9.json

Both revisions are exported with ``git archive`` into ``<workdir>/parent``
and ``<workdir>/change``, so the two sides run from fresh copies of their
committed files.  For every workload in ``BENCHMARK.json``, pair ``i`` (of
ten) runs ``python3 perfbench/run.py --workload W --seed <seed + i>
--seconds S --trace 0`` once in each copy, with ``S`` the benchmark's
``run_seconds``, the parent first in even pairs and the change first in
odd ones.  The record holds every run, and for each workload and
end-to-end metric the median and quartiles of both sides and the pairs the
change won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev`` in a new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its provenance and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout.splitlines()
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return {"provenance": prov, **json.loads(lines[-1])}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list, metrics: list) -> dict:
    """Per workload and metric: both sides' quartiles, and the pairs in which
    the change's value was better (ties count for neither side)."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        value = {(r["pair"], r["side"]): r["metrics"] for r in mine}
        out[workload] = {"failed_ops": {s: sum(r["failed"] for r in mine if r["side"] == s) for s in ("parent", "change")}}
        for m in metrics:
            sign = 1 if m["better"] == "lower" else -1
            got = {s: [value[p, s][m["name"]]["value"] for p in pairs] for s in ("parent", "change")}
            wins = sum(sign * (c - p) < 0 for p, c in zip(got["parent"], got["change"]))
            out[workload][m["name"]] = {
                "unit": m["unit"],
                "parent": quartiles(got["parent"]),
                "change": quartiles(got["change"]),
                "change_over_parent": statistics.median(got["change"]) / statistics.median(got["parent"]),
                "change_wins": f"{wins}/{len(pairs)}",
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workdir", required=True, help="a directory that does not exist yet")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [args.seed + i for i in range(PAIRS)]
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    roots = {side: os.path.join(args.workdir, side) for side in shas}
    for side, root in roots.items():
        export(shas[side], root)

    runs = []
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(roots[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": i, "seed": seed, "side": side,
                             "first": side == order[0], **result})
                print(f"{workload} pair {i} {side}: wall_s_nominal="
                      f"{result['metrics']['wall_s_nominal']['value']:.4f}", flush=True)

    prov = runs[0]["provenance"]
    record = {
        "command": bench["command"],
        "run_seconds": seconds,
        "shas": shas,
        "pairs": PAIRS,
        "seeds": seeds,
        "order": "parent first in even pairs, change first in odd ones",
        "machine": {k: prov[k] for k in ("machine", "nproc", "python", "numpy", "blas", "blas_threads")},
        "summary": summarise(runs, bench["end_to_end"]),
        "runs": [{k: v for k, v in r.items() if k != "provenance"} for r in runs],
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
