"""Tests of the benchmark itself: span arithmetic, tracer hygiene, repeatable
per-layer counts, pinned workload inputs and the machine-speed probe.

Run from the root of a source checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import statgames.cli  # noqa: E402,F401  (loads every statgames module)
from statgames import harness  # noqa: E402

import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import DeepChain, GaussCompose  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = tr.self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(end[0] - start[0])


def _statgames_bindings():
    """Identity of everything the tracer may patch."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "statgames" or name.startswith("statgames."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for modname, cname, meth in tr.METHODS:
        cls = getattr(sys.modules[modname], cname)
        snap[(modname, cname, meth)] = id(cls.__dict__[meth])
    snap.update({("SUITES", k): id(v) for k, v in harness.SUITES.items()})
    return snap


def _traced_round(workload):
    tracer = tr.Tracer()
    tracer.install()
    try:
        ops, failed = workload.run_round()
    finally:
        tracer.restore()
    return tracer, ops, failed


def test_every_wrapper_is_removed_after_a_traced_round(tmp_path):
    before = _statgames_bindings()
    workload = GaussCompose(0, str(tmp_path))
    workload.setup()
    tracer = tr.Tracer()
    tracer.install()
    try:
        during = _statgames_bindings()
    finally:
        tracer.restore()
    patched = {k for k in before if during[k] != before[k]}
    assert len(patched) > len(tr.FUNCTIONS) + len(tr.METHODS)
    assert _statgames_bindings() == before

    tracer, _, _ = _traced_round(workload)
    assert _statgames_bindings() == before
    spans = len(tracer.start)
    workload.run_round()
    assert len(tracer.start) == spans


def test_per_layer_counts_repeat_exactly_for_one_seed(tmp_path):
    workload = GaussCompose(3, str(tmp_path))
    workload.setup()
    runs = []
    for _ in range(2):
        tracer, ops, failed = _traced_round(workload)
        assert failed == 0
        metrics = tr.per_layer_metrics(tracer, ops, 1.0, 1.0, 0.1)
        runs.append({k: v for k, (v, unit) in metrics.items() if unit != "s" and k != "trace.overhead_frac"})
    assert runs[0] == runs[1]
    # the Gaussian workload bypasses the discrete layer and uses quadrature
    assert all(v == 0 for k, v in runs[0].items() if k.startswith("discrete.") and k.endswith("_calls"))
    assert runs[0]["gaussian.hermite_points"] > 0


def test_report_bytes_repeat_although_reports_embed_wall_time(tmp_path, monkeypatch):
    monkeypatch.setenv("STATGAMES_REPORT_DIR", str(tmp_path))
    counts = []
    for _ in range(2):
        tracer = tr.Tracer()
        tracer.install()
        try:
            statgames.cli.main(["verify", "--suite", "fe-sum", "--trials", "3"])
        finally:
            tracer.restore()
        counts.append(tracer.counters["harness.report_bytes"])
    assert counts[0] == counts[1] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    produced = tr.per_layer_metrics(tr.Tracer(), 1, 1.0, 1.0, 0.1)
    assert declared == {k: unit for k, (v, unit) in produced.items()}


@pytest.mark.parametrize("workload_cls", [GaussCompose, DeepChain])
def test_input_digest_is_pinned_and_changes_with_the_seed(workload_cls, tmp_path):
    def digest(seed):
        workload = workload_cls(seed, str(tmp_path))
        workload.setup()
        return workload.input_digest()

    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)[workload_cls.name]
    assert digest(0) == digest(0) == recorded["0"]
    assert digest(1) == recorded["1"]
    assert digest(0) != digest(1)


def test_speed_sampler_samples_and_restores_the_alarm(tmp_path):
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with speed.SpeedSampler() as sampler:
            workload = GaussCompose(0, str(tmp_path))
            workload.setup()
            t0 = time.perf_counter()
            ops, failed = workload.run_round()
            secs = time.perf_counter() - t0
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert failed == 0 and len(sampler.samples) > 10
    assert 0.0 < sampler.sampled_s < secs
    assert sampler.rescale(secs) > 0.0


def test_rescale_removes_samples_and_divides_by_their_median():
    sampler = speed.SpeedSampler()
    sampler.samples = [1e-3, 2e-3, 6e-3]
    expected = (1.0 - 9e-3) * speed.NOMINAL_REF_S / 2e-3
    assert sampler.rescale(1.0) == pytest.approx(expected)
