"""Tests for the comparison ``tools/compare_reports.py`` makes of two
``verify`` runs, on hand-made report directories, and of the commands it
runs; nothing here exports a revision or starts a process."""

import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess

import pytest

from statgames import cli

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
    parent = (0, LINES, [], reports(tmp_path / "p", wall_time=0.5))
    retimed = [line.replace("time=0.", "time=9.") for line in LINES]
    change = (0, retimed, [], reports(tmp_path / "c", wall_time=12.25))
    assert compare_reports.differences(parent, change) == []


def test_every_other_difference_is_reported(compare_reports, tmp_path):
    parent = (0, LINES, ["final fe=1.5"], reports(tmp_path / "p"))
    changed = tmp_path / "c"
    reports(changed, csv="trial,lhs\n0,1.0000000000000002\n", worst_abs_err=1.0)
    (changed / "laxators.csv").write_text("trial\n")
    lines = [LINES[0].replace("failures=0", "failures=1")]
    got = compare_reports.differences(parent, (1, lines, ["final fe=1.25", "warning"], changed))
    first, second, first_now = (line.split(" time=")[0] for line in (*LINES, lines[0]))
    assert got == [
        "exit code 0 -> 1",
        f"summary line 1: {first!r} -> {first_now!r}",
        f"summary line 2: {second!r} -> None",
        "stderr line 1: 'final fe=1.5' -> 'final fe=1.25'",
        "stderr line 2: None -> 'warning'",
        "buco.csv differs",
        "buco.json differs",
        "laxators.csv: written at one revision only",
    ]


def test_a_run_that_wrote_no_reports_differs_by_every_file(compare_reports, tmp_path):
    parent = (0, LINES, [], reports(tmp_path / "p"))
    got = compare_reports.differences(parent, (2, [], [], tmp_path / "none"))
    assert got[0] == "exit code 0 -> 2"
    assert got[-2:] == ["buco.csv: written at one revision only", "buco.json: written at one revision only"]


def test_each_seed_compares_both_certifications_and_the_demo(compare_reports, tmp_path, monkeypatch, capsys):
    # at each seed both revisions run verify on the default suites, verify on
    # the Gaussian instance, the demo and a diverging demo, each in its own
    # report directory; a demo trajectory or a stderr line that differs
    # fails the comparison
    workdir, calls = tmp_path / "work", []

    def fake_run(root, args, report_dir):
        folder = pathlib.Path(report_dir)
        calls.append((pathlib.Path(root).name, args, folder.relative_to(workdir / "reports").parts))
        folder.mkdir(parents=True)
        if args[0] != "demo":
            return 0, LINES, []
        change, seed = pathlib.Path(root).name == "change", args[2]
        if "--lr" in args:
            (folder / args[-1]).write_text("step,fe\n0,0.25\n")
            return 1, [], ["diverged: fe=0.25" if not (change and seed == "0") else "diverged: fe=0.5"]
        (folder / args[-1]).write_text("step,fe\n0,0.25\n" if not (change and seed == "42") else "step,fe\n0,0.5\n")
        return 0, [], ["final fe=0.25"]

    monkeypatch.setattr(compare_reports, "export", lambda rev, dest: None)
    monkeypatch.setattr(compare_reports, "run", fake_run)
    argv = ["--parent", "p", "--change", "c", "--workdir", str(workdir), "--seeds", "0", "42"]
    assert compare_reports.main(argv) == 1
    commands = {
        "verify": ["verify", "--suite", "all", "--seed", "{}"],
        "verify-gaussian": ["verify", "--suite", "all", "--seed", "{}", "--instance", "gaussian"],
        "verify-wide": ["verify", "--suite", "all", "--seed", "{}", "--max-dim", "7", "--trials", "10"],
        "demo": ["demo", "--seed", "{}", "--out", "demo.csv"],
        "demo-diverging": ["demo", "--seed", "{}", "--lr", "1e308", "--steps", "20", "--out", "demo.csv"],
    }
    # the runs on the fixed models are checked by the test below
    assert [call for call in calls if call[2][1] != "models"] == [
        (side, [a.format(seed) for a in args], (side, seed, name))
        for seed in ("0", "42")
        for name, args in commands.items()
        for side in ("parent", "change")
    ]
    assert capsys.readouterr().out.splitlines() == [
        "seed 0 verify: no difference",
        "seed 0 verify-gaussian: no difference",
        "seed 0 verify-wide: no difference",
        "seed 0 demo: no difference",
        "seed 0 demo-diverging: stderr line 1: 'diverged: fe=0.25' -> 'diverged: fe=0.5'",
        "seed 42 verify: no difference",
        "seed 42 verify-gaussian: no difference",
        "seed 42 verify-wide: no difference",
        "seed 42 demo: demo.csv differs",
        "seed 42 demo-diverging: no difference",
    ] + [f"models {name}: no difference" for name in MODEL_RUNS]


#: the runs on the fixed models, in order, and the fields of each
#: ``eval-loss --json`` output
MODEL_RUNS = {
    "eval-loss-discrete-kl": {"loss"},
    "eval-loss-discrete-mle": {"loss"},
    "eval-loss-discrete-fe": {"loss", "energy", "entropy"},
    "inspect-discrete-lens": None,
    "inspect-discrete-prior": None,
    "eval-loss-gaussian-kl": {"loss"},
    "eval-loss-gaussian-mle": {"loss"},
    "eval-loss-gaussian-fe": {"loss", "energy", "entropy"},
    "eval-loss-gaussian-lfe": {"loss", "energy", "entropy"},
    "inspect-gaussian-lens": None,
    "inspect-gaussian-prior": None,
}


def test_the_fixed_models_are_compared_once_per_revision(compare_reports, tmp_path, monkeypatch, capsys):
    # the commands on the fixed models run in process here, at this revision:
    # once per revision whatever the seeds, each exiting 0, and a loss that
    # moves at one revision fails the comparison
    workdir, runs = tmp_path / "work", []

    def fake_run(root, args, report_dir):
        side, (key, name) = pathlib.Path(root).name, pathlib.Path(report_dir).parts[-2:]
        if key != "models":
            return 0, [], []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(args)
        runs.append((side, name, rc, out.getvalue(), err.getvalue()))
        if side == "change" and name == "eval-loss-gaussian-lfe":
            return rc, [out.getvalue().replace('"loss": ', '"loss": 1')], []
        return rc, out.getvalue().splitlines(), err.getvalue().splitlines()

    monkeypatch.setattr(compare_reports, "export", lambda rev, dest: None)
    monkeypatch.setattr(compare_reports, "run", fake_run)
    argv = ["--parent", "p", "--change", "c", "--workdir", str(workdir), "--seeds", "0", "42"]
    assert compare_reports.main(argv) == 1
    assert [run[:3] for run in runs] == [(side, name, 0) for name in MODEL_RUNS for side in ("parent", "change")]
    assert not any(run[4] for run in runs)  # nothing on stderr
    for _, name, _, text, _ in runs:
        fields = MODEL_RUNS[name]
        if fields is None:
            assert text.split("\n")[0] in ("lens bundle", "discrete state", "gaussian state")
        else:
            assert set(json.loads(text)) == fields
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("models ")]
    assert [line.split(": ")[0] for line in lines] == [f"models {name}" for name in MODEL_RUNS]
    for name, line in zip(MODEL_RUNS, lines):
        moved = name == "eval-loss-gaussian-lfe"
        assert line.startswith(f"models {name}: summary line 1: ") if moved else line.endswith("no difference")
