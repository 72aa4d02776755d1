"""statgames benchmark: one workload per run, closed loop, one thread.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 28 --trace 0

The library is imported from ``src/`` of the checkout.  After set-up, the run
repeats fixed-size rounds of the workload, each starting when the previous
one returned.  The first round is a warm-up (lazy imports, first-call
caches): its outputs are checked, but it is not timed.  Rounds go on while
another one fits in ``--seconds``, counted from the warm-up (at least
``MIN_ROUNDS`` timed rounds), and the run reports the median timed round,
rescaled to a fixed machine speed by ``speed.SpeedSampler`` (the time as
measured is printed too).  ``--trace 1`` then runs one more round with every
traced statgames function wrapped and reports the per-layer metrics
instead; the wrappers are removed before the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance and every metric by name and unit.  Files are written only
under ``.bench_work/`` (removed at exit) and ``.bench_out/`` (the result with
its provenance, and the spans of a traced run) in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
#: numbers should measure the library, not BLAS threads competing for cores
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
MIN_ROUNDS = 3
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import statgames.cli; "
    "print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def import_seconds() -> float:
    """A fresh interpreter's import of ``statgames.cli``."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    uname = os.uname()
    return {
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read without running git; ``unknown`` when the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_recorded_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def measure_setup(workload) -> tuple[float, float]:
    """Median of ``SETUP_REPEATS`` set-ups (fresh import plus input
    generation), and the median import alone."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        totals.append(imp + time.perf_counter() - t0)
        imports.append(imp)
    return statistics.median(totals), statistics.median(imports)


def timed_round(workload) -> tuple[float, int, int]:
    """(seconds, ops, failed) of one round."""
    t0 = time.perf_counter()
    ops, failed = workload.run_round()
    return time.perf_counter() - t0, ops, failed


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "statgames", "__init__.py")):
        print(f"error: no statgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import statgames

    if not os.path.abspath(statgames.__file__).startswith(SRC + os.sep):
        print(f"error: statgames imported from {statgames.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def run(args, workload) -> int:
    from speed import SpeedSampler

    os.makedirs(OUT_DIR, exist_ok=True)
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    setup_s, import_s = measure_setup(workload)

    times, nominal, attempted, failed = [], [], 0, 0
    digests = set()
    started = time.perf_counter()
    while len(times) < MIN_ROUNDS + 1 or time.perf_counter() - started + times[-1] <= args.seconds:
        with SpeedSampler() as sampler:
            secs, ops, bad = timed_round(workload)
        # the probe's own samples are not the workload's time
        times.append(secs - sampler.sampled_s)
        nominal.append(sampler.rescale(secs))
        attempted += ops
        failed += bad
        digests.add(workload.input_digest())
    warmup_s, times, nominal = times[0], times[1:], nominal[1:]
    ops_per_round = attempted / (len(times) + 1)

    digest = digests.pop() if len(digests) == 1 else None
    recorded = load_recorded_digests().get(workload.name, {}).get(str(args.seed))
    if digest is None:
        digest_status = "inputs differed between rounds"
    elif recorded is None:
        digest_status = f"{digest} (no digest recorded for seed {args.seed})"
    elif digest != recorded:
        digest_status = f"{digest} MISMATCH: recorded {recorded}"
    else:
        digest_status = f"{digest} matches the recorded digest"
    digest_ok = digest is not None and (recorded is None or digest == recorded)
    print(f"input digest: {digest_status}")

    wall_s = statistics.median(times)
    wall_s_nominal = statistics.median(nominal)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s_nominal": (wall_s_nominal, "s"),
        "ops_per_s_nominal": (ops_per_round / wall_s_nominal, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(
        f"workload {workload.name}: {len(times)} rounds of {ops_per_round:g} "
        f"{workload.op_unit} after a {warmup_s:.4f} s warm-up"
    )
    print("round seconds: " + " ".join(f"{t:.4f}" for t in times))
    print("round seconds at nominal speed: " + " ".join(f"{t:.4f}" for t in nominal))
    print(f"wall_s = {wall_s!r} s (as measured less the samples, not rescaled)")
    print(f"ops_per_s = {ops_per_round / wall_s!r} 1/s (as measured, not rescaled)")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {failed / attempted!r} (failed {failed} of {attempted} {workload.op_unit})")

    metrics = e2e
    if args.trace:
        from tracer import Tracer, per_layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced_s, ops, bad = timed_round(workload)
        finally:
            tracer.restore()
        attempted += ops
        failed += bad
        spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.npz")
        tracer.save(spans)
        metrics = per_layer_metrics(tracer, ops, traced_s, wall_s, import_s)
        print(f"traced round: {traced_s!r} s, spans written to {os.path.relpath(spans, ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value!r} {unit}")

    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result,
        provenance=prov,
        input_digest=digest_status,
        round_seconds=times,
        round_seconds_nominal=nominal,
    )
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    sys.exit(main())
