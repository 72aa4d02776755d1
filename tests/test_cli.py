"""Tests for the command-line interface, invoked in-process."""

import argparse
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from statgames import cli
from statgames import gaussian as gs
from statgames.cli import main
from statgames.harness import SUITES
from statgames.lens import exact_lens
from statgames.loss import mle_loss

KERNEL = {
    "dom": ["x0", "x1"],
    "cod": ["y0", "y1"],
    "rows": [[0.75, 0.25], [0.75, 0.25]],
}


#: a one-dimensional Gaussian model and prior, as JSON text
GAUSS_MODEL = '{"fwd": {"A": [[1.0]], "b": [0.0], "noise": [[1.0]]}, "bwd": "exact"}'
STANDARD_NORMAL = '{"mean": [0.0], "cov": [[1.0]]}'


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

    def test_oversized_draw_is_a_usage_error(self, report_dir, capsys):
        # trial 0 draws a 851 x 637 x 512 channel at seed 0: refused before
        # the draw, never allocated
        rc = main(["verify", "--suite", "buco", "--max-dim", "1000", "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: the random draw would hold 277,548,544 entries")
        assert captured.err.count("\n") == 1
        assert not report_dir.exists()

    @pytest.mark.parametrize(
        "suite, entries",
        [
            ("chain-rule", 541_815_801_250),
            ("bilinear", 541_815_801_250),
            ("stochasticity", 541_815_801_250),
            ("buco", 276_942_103_203_521_250),
            ("kl-strict", 276_942_103_203_521_250),
            ("fe-sum", 276_942_103_203_521_250),
            ("laxators", 276_942_537_989_431_875),
            ("lax-naturality", 1_083_633_303_750),
            ("laplace", 696_046_943_394),
        ],
    )
    def test_a_huge_max_dim_is_refused_before_any_label_is_built(self, report_dir, capsys, suite, entries):
        # trial 0 at seed 0 draws spaces of up to a million outcomes; the
        # first draw over the limit is refused in its own words before any
        # of their labels is built, so the refusal allocates almost nothing
        # (the parser, built once per process, is built before measuring)
        cli.build_parser()
        tracemalloc.start()
        try:
            rc = main(["verify", "--suite", suite, "--trials", "1", "--max-dim", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        what = "channel" if suite == "laplace" else "draw"  # laplace's is a Gaussian channel
        assert rc == 2 and captured.out == ""
        assert captured.err == (
            f"error: the random {what} would hold {entries:,} entries ({8 * entries:,} bytes), "
            "over the limit of 67,108,864\n"
        )
        assert peak < 2**20

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

    @pytest.mark.parametrize("suite", ["kl-strict"])
    def test_unsupported_instance_exits_2(self, report_dir, capsys, suite):
        rc = main(["verify", "--suite", suite, "--instance", "gaussian"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "buco, laplace" in captured.err and captured.out == ""
        assert not report_dir.exists()

    @pytest.mark.parametrize(
        "instance, suites",
        [("gaussian", ["buco", "laplace"]), ("discrete", sorted(set(SUITES) - {"laplace"}))],
        ids=["gaussian", "discrete"],
    )
    def test_all_runs_the_suites_at_the_given_instance(self, report_dir, capsys, instance, suites):
        assert main(["verify", "--suite", "all", "--instance", instance, "--trials", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == suites
        for suite in suites:
            body = json.loads((report_dir / f"{suite}.json").read_text())
            assert body["config"]["instance"] == instance

    def test_a_suite_runs_at_its_first_instance_by_default(self, report_dir, capsys):
        # laplace runs on the Gaussian instance only, with no --instance given
        assert main(["verify", "--suite", "laplace", "--trials", "3"]) == 0
        body = json.loads((report_dir / "laplace.json").read_text())
        assert body["config"]["instance"] == "gaussian" and body["n_trials"] == 3
        assert main(["verify", "--suite", "all", "--trials", "1"]) == 0
        body = json.loads((report_dir / "laplace.json").read_text())
        assert body["config"]["instance"] == "gaussian"
        assert json.loads((report_dir / "buco.json").read_text())["config"]["instance"] == "discrete"

    @pytest.mark.parametrize(
        "flag", [["--trials", "0"], ["--max-dim", "1"], ["--tol", "0"], ["--tol", "inf"]]
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

    @pytest.mark.parametrize("suite", ["buco", "all"])
    def test_negative_seed_is_a_usage_error(self, report_dir, capsys, suite):
        rc = main(["verify", "--suite", suite, "--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "seed" in lines[0]
        assert not report_dir.exists()

    def test_reports_are_reproducible(self, report_dir):
        args = ["verify", "--suite", "bilinear", "--trials", "10", "--seed", "3"]
        main(args)
        first = json.loads((report_dir / "bilinear.json").read_text())
        main(args)
        second = json.loads((report_dir / "bilinear.json").read_text())
        first.pop("wall_time_s"), second.pop("wall_time_s")
        assert first == second


def one_error_line(captured) -> str:
    """The one ``error:`` line a usage error prints, with nothing on stdout."""
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestOutputPaths:
    """An output location that cannot be written is a usage error, found
    before any suite runs or any descent step is taken."""

    @pytest.fixture()
    def suites_run(self, monkeypatch):
        ran, run_suite = [], cli.run_suite
        monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg) or run_suite(cfg))
        return ran

    def test_a_report_in_a_missing_directory(self, tmp_path, capsys, suites_run):
        path = tmp_path / "missing" / "x.json"
        rc = main(["verify", "--suite", "buco", "--trials", "2", "--report", str(path)])
        assert rc == 2 and suites_run == []
        assert str(path) in one_error_line(capsys.readouterr())
        assert not path.parent.exists()

    def test_a_report_that_is_a_directory(self, tmp_path, capsys, suites_run):
        rc = main(["verify", "--suite", "buco", "--trials", "2", "--report", str(tmp_path)])
        assert rc == 2 and suites_run == []
        one_error_line(capsys.readouterr())

    def test_an_existing_report_is_left_as_it_is_until_written(self, tmp_path, suites_run):
        path = tmp_path / "x.json"
        path.write_text("old")
        assert main(["verify", "--suite", "buco", "--trials", "2", "--report", str(path)]) == 0
        assert len(suites_run) == 1 and json.loads(path.read_text())[0]["suite"] == "buco"

    def test_a_report_dir_under_a_regular_file(self, tmp_path, monkeypatch, capsys, suites_run):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("STATGAMES_REPORT_DIR", str(blocker / "reports"))
        rc = main(["verify", "--suite", "buco", "--trials", "2"])
        assert rc == 2 and suites_run == []
        assert str(blocker) in one_error_line(capsys.readouterr())

    def test_a_report_file_that_is_a_directory(self, report_dir, capsys, suites_run):
        (report_dir / "buco.csv").mkdir(parents=True)
        rc = main(["verify", "--suite", "buco", "--trials", "2"])
        assert rc == 2 and suites_run == []
        assert "buco.csv" in one_error_line(capsys.readouterr())
        assert not (report_dir / "buco.json").exists()

    def test_a_demo_csv_in_a_missing_directory(self, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(cli, "_demo_kl", lambda *a: steps.append(a))
        path = tmp_path / "missing" / "d.csv"
        rc = main(["demo", "--steps", "3", "--out", str(path)])
        assert rc == 2 and steps == []
        assert str(path) in one_error_line(capsys.readouterr())

    def test_a_failed_write_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # a location that opens but fails when written
        class Refusing(io.StringIO):
            def write(self, text):
                raise PermissionError(13, "Permission denied", "d.csv")

        monkeypatch.setattr(cli, "open", lambda path, mode: Refusing(), raising=False)
        rc = main(["demo", "--steps", "3", "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "Permission denied" in one_error_line(capsys.readouterr())


#: the exact backward channel of KERNEL at the uniform prior, tabulated
UNIFORM = {"space": ["x0", "x1"], "mass": [0.5, 0.5]}
KERNEL_BACK = {"dom": ["y0", "y1"], "cod": ["x0", "x1"], "rows": [[0.5, 0.5], [0.5, 0.5]]}
#: the exact backward channel of GAUSS_MODEL's forward at STANDARD_NORMAL
GAUSS_BACK = {"A": [[0.5]], "b": [0.0], "noise": [[0.5]]}


def tabulated(fwd, prior, channel):
    return {"fwd": fwd, "bwd": [{"prior": prior, "channel": channel}]}


class TestTabulatedBackward:
    """A tabulated backward channel must run from the forward's output to
    its domain and coparameter."""

    GAUSS_FWD = json.loads(GAUSS_MODEL)["fwd"]
    NORMAL = json.loads(STANDARD_NORMAL)

    @pytest.mark.parametrize(
        "model, prior, obs",
        [
            (tabulated(KERNEL, UNIFORM, KERNEL_BACK), UNIFORM, "y0"),
            (tabulated(GAUSS_FWD, NORMAL, GAUSS_BACK), NORMAL, "1.0"),
        ],
    )
    def test_a_fitting_channel_is_exact(self, tmp_path, capsys, model, prior, obs):
        model, prior = write(tmp_path, "m.json", model), write(tmp_path, "p.json", prior)
        args = ["eval-loss", "--model", model, "--prior", prior, "--loss", "kl", "--obs", obs]
        assert main([*args, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["loss"] == pytest.approx(0.0, abs=1e-12)

    # a discrete and a Gaussian (forward, prior, observation), and a 2 x 1
    # Gaussian backward channel for the 1-D forward
    DISCRETE = (KERNEL, UNIFORM, "y0")
    GAUSSIAN = (GAUSS_FWD, NORMAL, "1.0")
    TALL = dict(GAUSS_BACK, A=[[0.5], [0.1]], b=[0.0, 0.0], noise=[[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "fwd, prior, obs, channel",
        [
            (*DISCRETE, dict(KERNEL_BACK, dom=["y0", "y1", "y2"], rows=[[0.5, 0.5]] * 3)),
            (*DISCRETE, dict(KERNEL_BACK, cod=["x0", "x1", "x2"], rows=[[0.5, 0.25, 0.25]] * 2)),
            (*DISCRETE, dict(KERNEL_BACK, dom=["y1", "y0"])),
            (*DISCRETE, dict(KERNEL_BACK, copar=["m0", "m1"], rows=[[0.25] * 4] * 2)),
            (*DISCRETE, GAUSS_BACK),
            (*GAUSSIAN, TALL),
            (*GAUSSIAN, dict(TALL, copar_dim=1)),
            (*GAUSSIAN, dict(GAUSS_BACK, A=[[0.5, 0.1]])),
            (*GAUSSIAN, KERNEL_BACK),
        ],
    )
    @pytest.mark.parametrize("loss", ["kl", "mle", "fe", "lfe"])
    def test_a_misfit_is_a_parse_error(self, tmp_path, capsys, fwd, prior, obs, channel, loss):
        model = write(tmp_path, "m.json", tabulated(fwd, prior, channel))
        prior = write(tmp_path, "p.json", prior)
        rc = main(["eval-loss", "--model", model, "--loss", loss, "--prior", prior, "--obs", obs])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("parse error: 'bwd' entry 0: ")
        assert main(["inspect", "--model", model]) == 2
        assert capsys.readouterr().err.startswith("parse error: 'bwd' entry 0: ")

    STACKED = {"space": ["x0", "x1"], "mass": [[0.5, 0.5], [0.3, 0.7]]}

    def test_a_stacked_prior_file_is_a_parse_error(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", {"fwd": KERNEL, "bwd": "exact"})
        prior = write(tmp_path, "p.json", self.STACKED)
        rc = main(["eval-loss", "--model", model, "--loss", "kl", "--prior", prior, "--obs", "y0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("parse error: 'mass' has shape (2, 2)")
        assert main(["inspect", "--model", prior]) == 2
        assert capsys.readouterr().err.startswith("parse error: 'mass' has shape (2, 2)")

    def test_a_stacked_tabulated_prior_is_a_parse_error(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", tabulated(KERNEL, self.STACKED, KERNEL_BACK))
        prior = write(tmp_path, "p.json", UNIFORM)
        rc = main(["eval-loss", "--model", model, "--loss", "kl", "--prior", prior, "--obs", "y0"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "'mass' has shape (2, 2)" in captured.err
        assert main(["inspect", "--model", model]) == 2


class TestEvalLoss:
    @pytest.mark.parametrize(
        "prior",
        [
            {"mean": [[0.0], [1.0]], "cov": [[[1.0]], [[2.0]]]},
            {"mean": [[0.0]], "cov": [[1.0]]},
            {"mean": 0.0, "cov": [[1.0]]},
        ],
        ids=["stack", "one-row-matrix", "scalar"],
    )
    def test_a_gaussian_mean_that_is_no_vector_is_a_parse_error(self, tmp_path, capsys, prior):
        model = write(tmp_path, "m.json", json.loads(GAUSS_MODEL))
        path = write(tmp_path, "p.json", prior)
        rc = main(["eval-loss", "--model", model, "--loss", "kl", "--prior", path, "--obs", "0.5"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("parse error: 'mean' has shape") and captured.err.count("\n") == 1
        assert main(["inspect", "--model", path]) == 2
        assert capsys.readouterr().err.startswith("parse error: 'mean' has shape")

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

    def test_an_infinite_loss_is_written_as_strict_json(self, tmp_path, capsys):
        # the prior puts no mass where y1 can be seen: its code length is
        # infinite, which RFC 8259 JSON has no number for
        fwd = {"dom": ["x0", "x1"], "cod": ["y0", "y1"], "rows": [[1, 0], [0.5, 0.5]]}
        model = write(tmp_path, "m.json", {"fwd": fwd, "bwd": "exact"})
        prior = write(tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [1, 0]})
        args = ["eval-loss", "--model", model, "--loss", "mle", "--prior", prior, "--obs", "y1"]

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert main([*args, "--json"]) == 0
        assert json.loads(capsys.readouterr().out, parse_constant=refuse) == {"loss": "inf"}
        assert main(args) == 0
        assert capsys.readouterr().out == "loss = inf\n"

    def test_the_entropy_of_a_point_mass_posterior_prints_as_zero(self, tmp_path, capsys):
        fwd = {"dom": ["a", "b"], "cod": ["x", "y"], "rows": [[0.5, 0.5], [1.0, 0.0]]}
        model = write(tmp_path, "m.json", {"fwd": fwd, "bwd": "exact"})
        prior = write(tmp_path, "p.json", {"space": ["a", "b"], "mass": [1, 0]})
        args = ["eval-loss", "--model", model, "--loss", "fe", "--prior", prior, "--obs", "y", "--decompose"]
        assert main(args) == 0
        assert "entropy = 0.0\n" in capsys.readouterr().out
        assert main([*args, "--json"]) == 0
        entropy = json.loads(capsys.readouterr().out)["entropy"]
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

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

    @pytest.mark.parametrize("loss", ["kl", "mle"])
    def test_decompose_of_kl_or_mle_is_a_usage_error_before_evaluation(
        self, tmp_path, capsys, loss
    ):
        # y1 has zero evidence, so evaluating the KL loss there would fail
        deterministic = {"dom": ["x0", "x1"], "cod": ["y0", "y1"], "rows": [[1.0, 0.0], [1.0, 0.0]]}
        model = write(tmp_path, "m.json", {"fwd": deterministic, "bwd": "exact"})
        prior = write(tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]})
        missing = str(tmp_path / "missing.json")
        for files in ([model, prior], [missing, missing]):
            rc = main(
                ["eval-loss", "--model", files[0], "--loss", loss,
                 "--prior", files[1], "--obs", "y1", "--decompose"]
            )
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "--decompose" in captured.err

    @pytest.mark.parametrize(
        "model, prior, obs",
        [
            (GAUSS_MODEL, STANDARD_NORMAL, "NaN"),
            (GAUSS_MODEL, STANDARD_NORMAL, "Infinity"),
            (GAUSS_MODEL, STANDARD_NORMAL, "[1e999]"),
            (GAUSS_MODEL, '{"mean": [Infinity], "cov": [[1.0]]}', "0.5"),
            (GAUSS_MODEL.replace('"A": [[1.0]]', '"A": [[Infinity]]'), STANDARD_NORMAL, "0.5"),
        ],
    )
    def test_non_finite_input_is_a_parse_error(self, tmp_path, capsys, model, prior, obs):
        (tmp_path / "m.json").write_text(model)
        (tmp_path / "p.json").write_text(prior)
        rc = main(
            ["eval-loss", "--model", str(tmp_path / "m.json"), "--loss", "mle",
             "--prior", str(tmp_path / "p.json"), "--obs", obs]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("parse error:")

    @pytest.mark.parametrize("obs", ["[[0.5]]", '{"y": 0.5}'])
    def test_malformed_gaussian_observation_is_a_parse_error(self, tmp_path, capsys, obs):
        (tmp_path / "m.json").write_text(GAUSS_MODEL)
        (tmp_path / "p.json").write_text(STANDARD_NORMAL)
        rc = main(
            ["eval-loss", "--model", str(tmp_path / "m.json"), "--loss", "mle",
             "--prior", str(tmp_path / "p.json"), "--obs", obs]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("parse error:")

    @pytest.mark.parametrize(
        "model, prior, named",
        [
            (json.dumps({"fwd": KERNEL, "bwd": "exact"}),
             '{"space": ["x0", "x1"], "mass": [true, false]}', "'mass'"),
            (GAUSS_MODEL, '{"mean": [true], "cov": [[1.0]]}', "'mean'"),
            (GAUSS_MODEL.replace('"b": [0.0]', '"b": [false]'), STANDARD_NORMAL, "'b'"),
        ],
        ids=["discrete-mass", "gaussian-mean", "gaussian-b"],
    )
    def test_boolean_field_is_a_parse_error(self, tmp_path, capsys, model, prior, named):
        (tmp_path / "m.json").write_text(model)
        (tmp_path / "p.json").write_text(prior)
        obs = "0.5" if "noise" in model else "y0"
        rc = main(
            ["eval-loss", "--model", str(tmp_path / "m.json"), "--loss", "mle",
             "--prior", str(tmp_path / "p.json"), "--obs", obs]
        )
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("parse error:") and named in lines[0]

    @pytest.mark.parametrize("obs", ["true", "false", "[true]", "[0.5, false]"])
    @pytest.mark.parametrize("gaussian", [True, False])
    def test_boolean_observation_is_a_parse_error(self, tmp_path, capsys, obs, gaussian):
        if gaussian:
            model, prior = GAUSS_MODEL, STANDARD_NORMAL
        else:
            model = json.dumps({"fwd": KERNEL, "bwd": "exact"})
            prior = '{"space": ["x0", "x1"], "mass": [0.5, 0.5]}'
        (tmp_path / "m.json").write_text(model)
        (tmp_path / "p.json").write_text(prior)
        rc = main(
            ["eval-loss", "--model", str(tmp_path / "m.json"), "--loss", "mle",
             "--prior", str(tmp_path / "p.json"), "--obs", obs]
        )
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("parse error:") and repr(obs) in lines[0]

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

    def test_ragged_prior_covariance_is_a_parse_error(self, tmp_path, capsys):
        model = write(
            tmp_path, "m.json", {"fwd": {"A": [[1.0, 0.0]], "b": [0.0], "noise": [[1.0]]}}
        )
        prior = write(tmp_path, "p.json", {"mean": [0.0, 0.0], "cov": [[1.0], [2.0, 3.0]]})
        rc = main(
            ["eval-loss", "--model", model, "--loss", "mle",
             "--prior", prior, "--obs", "0.5"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("parse error:")

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

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--steps", "-3"]])
    def test_negative_seed_or_steps_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "t.csv"
        rc = main(["demo", *flag, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and flag[0] in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-0.01"])
    def test_non_finite_or_negative_rate_is_a_usage_error(self, tmp_path, capsys, rate):
        out = tmp_path / "t.csv"
        rc = main(["demo", f"--lr={rate}", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and "--lr" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1e300", "1e308"])
    def test_overflowing_rate_diverges_with_one_stderr_line(self, tmp_path, capfd, rate):
        # the first candidate's objective (or the candidate itself)
        # overflows: a rise like any other, and no numpy warning
        out = tmp_path / "d.csv"
        rc = main(["demo", "--steps", "20", "--lr", rate, "--out", str(out)])
        lines = capfd.readouterr().err.splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("diverged: ")
        assert len(out.read_text().splitlines()) == 2

    def test_each_row_is_written_as_it_is_accepted(self, capsys, monkeypatch):
        # the descent holds no trajectory: before each probe of a step, the
        # header and every row accepted so far are already on stdout
        seen, demo_kl = [], cli._demo_kl

        def counted(*args):
            seen.append(len(capsys.readouterr().out.splitlines()))
            return demo_kl(*args)

        monkeypatch.setattr(cli, "_demo_kl", counted)
        assert main(["demo", "--steps", "5"]) == 0
        assert seen == [1, 1, 1, 1, 1, 1]

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

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["--lr", "1e6", "--steps", "100"], 2),  # the start, one candidate
            (["--seed", "4", "--lr", "0.52", "--steps", "200"], 4),  # two steps accepted
        ],
    )
    def test_a_rejected_candidate_is_computed_once(self, tmp_path, capsys, monkeypatch, argv, calls):
        seen = []
        g_kl = gs.g_kl
        monkeypatch.setattr(gs, "g_kl", lambda *a: seen.append(1) or g_kl(*a))
        rc = main(["demo", *argv, "--out", str(tmp_path / "d.csv")])
        assert rc == 1 and "rose for 50 consecutive steps" in capsys.readouterr().err
        assert len(seen) == calls

    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 0.0, 0.0],
            [-0.0, -0.0, -0.0],  # a +0.0 offset anywhere would give +0.0 there
            [5e-324, -5e-324, 0.0],
            [1e300, -1e300, -0.0],
            [1e-5, -1e-5, 2e-5],  # probes that land on zero
            [0.027392337464290872, -0.04604265724722594, -0.09180529521276107],
            [0.1, -0.0, 1e300],
        ],
    )
    def test_the_offset_table_gives_the_tiled_probes_bit_for_bit(self, p):
        p = np.array(p)
        # the probes as built by tiling the candidate and stepping in place
        tiled = np.tile(p, (7, 1))
        axes = np.arange(3)
        tiled[1 + 2 * axes, axes] += cli.DEMO_FD_STEP
        tiled[2 + 2 * axes, axes] -= cli.DEMO_FD_STEP
        assert (p + cli._DEMO_OFFSETS).tobytes() == tiled.tobytes()

    def test_a_refused_stack_is_masked_row_by_row(self):
        # a NaN gain, an infinite offset and an infinite logvar make the
        # stack's constructor refuse it; those rows alone read +inf
        exact = gs.GaussState([0.5], [[0.5]])
        points = np.array(
            [
                [0.1, 0.2, -0.3],
                [math.nan, 0.0, 0.0],
                [0.5, -0.1, 0.2],
                [0.2, math.inf, 0.0],
                [-0.3, 0.4, 0.1],
                [0.0, 0.1, math.inf],
                [1.0, 2.0, -1.0],
            ]
        )
        refused, finite = [1, 3, 5], [0, 2, 4, 6]
        kl = cli._demo_kl(points, exact)
        assert np.flatnonzero(np.isposinf(kl)).tolist() == refused
        assert kl[finite].tobytes() == cli._demo_kl(points[finite], exact).tobytes()


def per_probe_demo(seed: int, steps: int, lr: float) -> tuple[int, str, str]:
    """The demo's descent with one ``g_kl`` call per evaluation: the
    candidate and each of its six central-difference probes on its own,
    seven calls per step.  Returns the exit code, the CSV and the stderr
    text ``demo`` gives for these settings."""
    prior, y = gs.GaussState([0.0], [[1.0]]), np.array([1.0])
    params = np.random.default_rng(np.random.SeedSequence([seed])).uniform(-0.1, 0.1, size=3)
    lens = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
    exact = gs.g_apply(lens.bwd(prior), y)
    nle = mle_loss(lens)(prior, y)

    def terms(p):
        gain, offset, logvar = (float(v) for v in p)
        posterior = gs.g_apply(gs.GaussChannel([[gain]], [offset], [[math.exp(logvar)]]), y)
        kl = float(gs.g_kl(posterior, exact))
        return kl + nle, kl

    def gradient(p):
        g = np.zeros_like(p)
        for i in range(p.size):
            up, down = p.copy(), p.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            g[i] = (terms(up)[0] - terms(down)[0]) / (2 * 1e-5)
        return g

    fe, kl = terms(params)
    rows, step, rejects = [(0, fe, kl, nle, *params)], 0, 0
    rc, err = 0, None
    while step < steps:
        candidate = params - lr * gradient(params)
        cand_fe, cand_kl = terms(candidate)
        if cand_fe <= fe + 1e-6:
            params, fe, kl, rejects = candidate, cand_fe, cand_kl, 0
            step += 1
            rows.append((step, fe, kl, nle, *params))
        else:
            rejects += 1
            if rejects >= 50:
                rc = 1
                err = (
                    f"diverged: objective rose for {rejects} consecutive steps; "
                    f"last state step={step} fe={fe!r} params={params.tolist()!r}\n"
                )
                break
    if err is None:
        err = f"final fe={fe!r} kl_term={kl!r} mle_term={nle!r} neg_log_evidence={nle!r}\n"
    lines = ["step,fe,kl_term,mle_term,gain,offset,logvar"]
    lines += [str(r[0]) + "," + ",".join(repr(float(v)) for v in r[1:]) for r in rows]
    return rc, "\n".join(lines) + "\n", err


class TestDemoMatchesPerProbeDescent:
    """One stacked ``g_kl`` call per step gives the trajectory, the exit
    code and the stderr of seven separate calls, byte for byte."""

    @pytest.mark.parametrize(
        "seed, steps, lr",
        [
            (0, 200, 1e-2),
            (3, 200, 1e-2),
            (7, 150, 1e-2),
            (1, 200, 0.3),
            (2, 120, 0.5),
            (4, 200, 0.52),  # two accepted steps, then fifty rejections
            (0, 100, 1e6),  # diverges at the first candidate
            (5, 0, 1e-2),
        ],
    )
    def test_csv_and_stderr_are_byte_identical(self, tmp_path, capsys, seed, steps, lr):
        want_rc, want_csv, want_err = per_probe_demo(seed, steps, lr)
        out = tmp_path / "t.csv"
        rc = main(["demo", "--seed", str(seed), "--steps", str(steps), "--lr", repr(lr), "--out", str(out)])
        assert rc == want_rc
        got, want = out.read_text().splitlines(), want_csv.splitlines()
        # the first line that differs, not a diff of two long texts
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert (len(got), first) == (len(want), None)
        assert out.read_text() == want_csv  # every byte, once the lines agree
        assert capsys.readouterr().err == want_err


class TestInspect:
    def test_kernel_audit(self, tmp_path, capsys):
        model = write(tmp_path, "k.json", KERNEL)
        rc = main(["inspect", "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        assert "discrete channel" in out
        assert "row sums in [1.0, 1.0]" in out and "np." not in out

    def test_state_mass_sum_printed_as_a_plain_float(self, tmp_path, capsys):
        model = write(tmp_path, "s.json", {"space": ["a", "b"], "mass": [0.25, 0.75]})
        rc = main(["inspect", "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mass sums to 1.0" in out and "np." not in out

    def test_ten_digit_rows_are_a_parse_error_with_a_plain_sum(self, tmp_path, capsys):
        # 3 x 0.3333333333 sums to 1 - 1e-10: off by more than the 1e-12
        # the constructors allow
        thirds = {"dom": ["x0"], "cod": ["y0", "y1", "y2"], "rows": [[0.3333333333] * 3]}
        model = write(tmp_path, "k.json", thirds)
        rc = main(["inspect", "--model", model])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 0 sums to 0.9999999999, not 1" in err and "np." not in err

    def test_non_stochastic_exits_2(self, tmp_path, capsys):
        bad = dict(KERNEL, rows=[[0.75, 0.25], [0.9, 0.2]])
        model = write(tmp_path, "k.json", bad)
        rc = main(["inspect", "--model", model])
        assert rc == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj",
        [
            dict(KERNEL, rows=[[0.5, 0.5], [1.0]]),
            {"A": [[1.0]], "b": [0.0], "noise": [[1.0]], "copar_dim": "x"},
            {"A": [[1.0]], "b": [0.0], "noise": [[1.0]], "copar_dim": 0.5},
        ],
    )
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, obj):
        model = write(tmp_path, "k.json", obj)
        rc = main(["inspect", "--model", model])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("parse error:")

    def test_lens_bundle_summary(self, tmp_path, capsys):
        model = write(tmp_path, "l.json", {"fwd": KERNEL, "bwd": "exact"})
        rc = main(["inspect", "--model", model])
        assert rc == 0
        assert "backward: exact inversion" in capsys.readouterr().out


class TestOneParserPerProcess:
    """``main`` parses every call with one parser, built on first use; no
    option of one call carries over to the next."""

    def test_the_parser_is_built_once(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(3):
            assert main(["verify", "--suite", "nonsense"]) == 2
        assert built.count("statgames") <= 1

    def test_a_report_file_is_not_remembered(self, tmp_path, report_dir, capsys):
        combined = tmp_path / "combined.json"
        argv = ["verify", "--suite", "stochasticity", "--trials", "3"]
        assert main([*argv, "--report", str(combined)]) == 0
        assert combined.exists() and not report_dir.exists()
        combined.unlink()
        assert main(argv) == 0
        assert not combined.exists()
        assert sorted(p.name for p in report_dir.iterdir()) == ["stochasticity.csv", "stochasticity.json"]

    def test_a_seed_is_not_remembered(self, tmp_path, capsys):
        nine, then, zero = (tmp_path / f"{name}.csv" for name in ("nine", "then", "zero"))
        main(["demo", "--seed", "9", "--steps", "5", "--out", str(nine)])
        main(["demo", "--steps", "5", "--out", str(then)])
        main(["demo", "--seed", "0", "--steps", "5", "--out", str(zero)])
        assert then.read_text() == zero.read_text() != nine.read_text()

    def test_json_output_is_not_remembered(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", {"fwd": KERNEL, "bwd": "exact"})
        prior = write(tmp_path, "p.json", {"space": ["x0", "x1"], "mass": [0.5, 0.5]})
        argv = ["eval-loss", "--model", model, "--loss", "mle", "--prior", prior, "--obs", "y1"]
        assert main([*argv, "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"loss"}
        assert main(argv) == 0
        assert capsys.readouterr().out == f"loss = {-math.log(0.25)!r}\n"
