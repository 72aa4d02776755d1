"""Tests for the command-line interface, invoked in-process."""

import json
import math

import pytest

from statgames.cli import main

KERNEL = {
    "dom": ["x0", "x1"],
    "cod": ["y0", "y1"],
    "rows": [[0.75, 0.25], [0.75, 0.25]],
}


@pytest.fixture()
def report_dir(tmp_path, monkeypatch):
    d = tmp_path / "reports"
    monkeypatch.setenv("STATGAMES_REPORT_DIR", str(d))
    return d


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestVerify:
    def test_single_suite_passes(self, report_dir, capsys):
        rc = main(
            ["verify", "--suite", "buco", "--trials", "20", "--seed", "42",
             "--max-dim", "5", "--tol", "1e-9"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS buco") == 1
        assert (report_dir / "buco.json").exists()
        assert (report_dir / "buco.csv").exists()

    def test_unknown_suite_exits_2(self, capsys):
        rc = main(["verify", "--suite", "nonsense"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "buco" in err and "chain-rule" in err

    def test_failure_exits_1(self, report_dir, capsys):
        # an unattainable tolerance forces failures
        rc = main(
            ["verify", "--suite", "buco", "--trials", "5", "--tol", "1e-30"]
        )
        assert rc == 1
        assert "FAIL buco" in capsys.readouterr().out

    def test_combined_report_file(self, tmp_path, capsys):
        path = tmp_path / "combined.json"
        rc = main(
            ["verify", "--suite", "stochasticity", "--trials", "5",
             "--report", str(path)]
        )
        assert rc == 0
        body = json.loads(path.read_text())
        assert isinstance(body, list) and body[0]["suite"] == "stochasticity"

    def test_gaussian_instance(self, report_dir, capsys):
        rc = main(
            ["verify", "--suite", "buco", "--trials", "10",
             "--instance", "gaussian"]
        )
        assert rc == 0

    def test_gaussian_buco_defaults(self, report_dir, capsys):
        assert main(["verify", "--suite", "buco", "--instance", "gaussian"]) == 0
        body = json.loads((report_dir / "buco.json").read_text())
        assert body["n_trials"] == 100
        assert body["config"]["max_dim"] == 3
        assert body["config"]["tolerance"] == 1e-8
        assert body["config"]["instance"] == "gaussian"

    @pytest.mark.parametrize("suite", ["kl-strict", "all"])
    def test_unsupported_instance_exits_2(self, report_dir, capsys, suite):
        rc = main(["verify", "--suite", suite, "--instance", "gaussian"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "buco" in captured.err and captured.out == ""
        assert not report_dir.exists()

    @pytest.mark.parametrize(
        "flag", [["--trials", "0"], ["--max-dim", "1"], ["--tol", "0"]]
    )
    @pytest.mark.parametrize("suite", ["buco", "all"])
    def test_bad_config_is_a_usage_error(self, report_dir, capsys, suite, flag):
        rc = main(["verify", "--suite", suite, *flag])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not report_dir.exists()

    def test_reports_are_reproducible(self, report_dir):
        args = ["verify", "--suite", "bilinear", "--trials", "10", "--seed", "3"]
        main(args)
        first = json.loads((report_dir / "bilinear.json").read_text())
        main(args)
        second = json.loads((report_dir / "bilinear.json").read_text())
        first.pop("wall_time_s"), second.pop("wall_time_s")
        assert first == second


class TestEvalLoss:
    def test_exact_kl_is_zero(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", {"fwd": KERNEL, "bwd": "exact"})
        prior = write(
            tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        )
        rc = main(
            ["eval-loss", "--model", model, "--loss", "kl",
             "--prior", prior, "--obs", "y0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_mle(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", {"fwd": KERNEL, "bwd": "exact"})
        prior = write(
            tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        )
        rc = main(
            ["eval-loss", "--model", model, "--loss", "mle",
             "--prior", prior, "--obs", "y1", "--json"]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["loss"] == pytest.approx(-math.log(0.25), abs=1e-9)

    def test_gaussian_lfe_decompose(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "m.json",
            {"fwd": {"A": [[1.0]], "b": [0.0], "noise": [[1.0]]}, "bwd": "exact"},
        )
        prior = write(tmp_path, "p.json", {"mean": [0.0], "cov": [[1.0]]})
        rc = main(
            ["eval-loss", "--model", model, "--loss", "lfe",
             "--prior", prior, "--obs", "1.0", "--decompose", "--json"]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["energy"] - body["entropy"] == pytest.approx(
            body["loss"], abs=1e-12
        )

    def test_unsupported_observation_exits_1(self, tmp_path, capsys):
        deterministic = {
            "dom": ["x0", "x1"],
            "cod": ["y0", "y1"],
            "rows": [[1.0, 0.0], [1.0, 0.0]],
        }
        model = write(tmp_path, "m.json", {"fwd": deterministic, "bwd": "exact"})
        prior = write(
            tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        )
        rc = main(
            ["eval-loss", "--model", model, "--loss", "kl",
             "--prior", prior, "--obs", "y1"]
        )
        assert rc == 1
        assert "y1" in capsys.readouterr().err

    def test_nan_row_entry_is_a_parse_error(self, tmp_path, capsys):
        nan_row = dict(KERNEL, rows=[[float("nan"), 1.0], [0.75, 0.25]])
        model = write(tmp_path, "m.json", {"fwd": nan_row, "bwd": "exact"})
        prior = write(
            tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        )
        rc = main(
            ["eval-loss", "--model", model, "--loss", "mle",
             "--prior", prior, "--obs", "y0"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "row 0" in captured.err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        prior = write(
            tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
        )
        rc = main(
            ["eval-loss", "--model", str(bad), "--loss", "kl",
             "--prior", prior, "--obs", "y0"]
        )
        assert rc == 2
        assert "line" in capsys.readouterr().err


class TestDemo:
    def test_zero_steps_initial_row_only(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["demo", "--steps", "0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + initial row
        assert lines[1].startswith("0,")

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["demo", "--steps", "50", "--seed", "9", "--out", str(a)])
        main(["demo", "--steps", "50", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_divergent_rate_exits_1(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["demo", "--steps", "100", "--lr", "1e6", "--out", str(out)])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err


class TestInspect:
    def test_kernel_audit(self, tmp_path, capsys):
        model = write(tmp_path, "k.json", KERNEL)
        rc = main(["inspect", "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        assert "discrete channel" in out and "row sums" in out

    def test_non_stochastic_exits_2(self, tmp_path, capsys):
        bad = dict(KERNEL, rows=[[0.75, 0.25], [0.9, 0.2]])
        model = write(tmp_path, "k.json", bad)
        rc = main(["inspect", "--model", model])
        assert rc == 2
        assert "row 1" in capsys.readouterr().err

    def test_lens_bundle_summary(self, tmp_path, capsys):
        model = write(tmp_path, "l.json", {"fwd": KERNEL, "bwd": "exact"})
        rc = main(["inspect", "--model", model])
        assert rc == 0
        assert "backward: exact inversion" in capsys.readouterr().out
