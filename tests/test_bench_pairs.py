"""Tests for the summary that ``tools/bench_pairs.py`` writes into a
``BENCH_<n>.json`` record, on hand-made runs; nothing here runs the
benchmark or starts a process."""

import importlib.util
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "ops", "unit": "1/s", "better": "higher"},
]


def runs_of(workload, parent, change, failed=(0, 0)):
    """Runs of one workload: pair ``i`` has the values ``parent[i]`` and
    ``change[i]``, each ``(wall_s, ops)``."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, (wall, ops), fails in (("parent", p, failed[0]), ("change", c, failed[1])):
            out.append({
                "workload": workload, "pair": i, "side": side, "failed": fails,
                "metrics": {"wall_s": {"value": wall}, "ops": {"value": ops}},
            })
    return out


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}


def test_summary_counts_wins_by_direction_and_ties_for_neither(bench_pairs):
    # wall_s (lower is better): pairs 0 and 1 won, pair 2 tied, pair 3 lost;
    # ops (higher is better): pair 0 won, pairs 1 and 2 tied, pair 3 lost
    parent = [(2.0, 10.0), (2.0, 10.0), (2.0, 10.0), (2.0, 10.0)]
    change = [(1.0, 20.0), (1.5, 10.0), (2.0, 10.0), (3.0, 5.0)]
    summary = bench_pairs.summarise(runs_of("w", parent, change, failed=(1, 2)), METRICS)
    assert set(summary) == {"w"}
    wall, ops = summary["w"]["wall_s"], summary["w"]["ops"]
    assert wall["change_wins"] == "2/4" and ops["change_wins"] == "1/4"
    assert wall["unit"] == "s" and ops["unit"] == "1/s"
    assert wall["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert wall["change"] == bench_pairs.quartiles([1.0, 1.5, 2.0, 3.0])
    assert summary["w"]["failed_ops"] == {"parent": 4, "change": 8}


def test_change_over_parent_is_the_ratio_of_medians(bench_pairs):
    parent = [(4.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
    change = [(1.0, 6.0), (3.0, 2.0), (2.0, 4.0)]
    summary = bench_pairs.summarise(runs_of("w", parent, change) + runs_of("v", change, parent), METRICS)
    assert summary["w"]["wall_s"]["change_over_parent"] == pytest.approx(2.0 / 3.0)
    assert summary["w"]["ops"]["change_over_parent"] == pytest.approx(4.0 / 2.0)
    # the other workload is summarised on its own, with the sides swapped
    assert summary["v"]["wall_s"]["change_over_parent"] == pytest.approx(3.0 / 2.0)
    assert summary["v"]["wall_s"]["change_wins"] == "1/3"
