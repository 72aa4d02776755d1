"""Record the input digest of every workload for seeds 0..SEEDS-1.

Usage (from the root of a source checkout)::

    python3 perfbench/record_digests.py [workload ...]

Runs one round per (workload, seed), refuses to record a round that fails
its correctness check, and rewrites ``perfbench/digests.json``.  The
benchmark fails any run whose input digest differs from the one recorded
here for its seed, so re-record only when a change to the workload's inputs
is intended.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import run

SEEDS = 32


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    recorded = run.load_recorded_digests()
    scratch = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        digests = {}
        for seed in range(SEEDS):
            with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                workload = WORKLOADS[name](seed, workdir)
                workload.setup()
                t0 = time.perf_counter()
                ops, failed = workload.run_round()
                secs = time.perf_counter() - t0
                if failed:
                    print(f"{name} seed {seed}: {failed} of {ops} ops failed", file=sys.stderr)
                    return 1
                digests[str(seed)] = workload.input_digest()
            print(f"{name} seed {seed}: {digests[str(seed)]} ({secs:.3f} s)", flush=True)
        recorded[name] = digests
        with open(run.DIGESTS, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    os.environ.update(run.PINNED_THREADS)
    sys.exit(main(sys.argv[1:]))
