"""Tests for the comparison ``tools/compare_reports.py`` makes of two
``verify`` runs, on hand-made report directories; nothing here exports a
revision or starts a process."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"

LINES = [
    "PASS buco: trials=500 failures=0 worst_abs_err=1.110e-16 time=0.52s",
    "PASS thermo: trials=100 failures=0 worst_abs_err=0.000e+00 time=0.10s",
]


@pytest.fixture
def compare_reports(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the comparison started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports(folder, wall_time=0.5, csv="trial,lhs\n0,1.0\n", **extra):
    """A report directory with one suite's JSON and CSV reports."""
    folder.mkdir(parents=True)
    body = {"suite": "buco", "passed": True, "wall_time_s": wall_time, **extra}
    (folder / "buco.json").write_text(json.dumps(body, sort_keys=True, indent=1))
    (folder / "buco.csv").write_text(csv)
    return folder


def test_runs_that_differ_only_in_their_timings_agree(compare_reports, tmp_path):
    parent = (0, LINES, reports(tmp_path / "p", wall_time=0.5))
    retimed = [line.replace("time=0.", "time=9.") for line in LINES]
    change = (0, retimed, reports(tmp_path / "c", wall_time=12.25))
    assert compare_reports.differences(parent, change) == []


def test_every_other_difference_is_reported(compare_reports, tmp_path):
    parent = (0, LINES, reports(tmp_path / "p"))
    changed = tmp_path / "c"
    reports(changed, csv="trial,lhs\n0,1.0000000000000002\n", worst_abs_err=1.0)
    (changed / "laxators.csv").write_text("trial\n")
    lines = [LINES[0].replace("failures=0", "failures=1")]
    got = compare_reports.differences(parent, (1, lines, changed))
    first, second, first_now = (line.split(" time=")[0] for line in (*LINES, lines[0]))
    assert got == [
        "exit code 0 -> 1",
        f"summary line 1: {first!r} -> {first_now!r}",
        f"summary line 2: {second!r} -> None",
        "buco.csv differs",
        "buco.json differs",
        "laxators.csv: written at one revision only",
    ]


def test_a_run_that_wrote_no_reports_differs_by_every_file(compare_reports, tmp_path):
    parent = (0, LINES, reports(tmp_path / "p"))
    got = compare_reports.differences(parent, (2, [], tmp_path / "none"))
    assert got[0] == "exit code 0 -> 2"
    assert got[-2:] == ["buco.csv: written at one revision only", "buco.json: written at one revision only"]
