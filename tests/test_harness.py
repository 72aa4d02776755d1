"""Tests for the generators and the suite driver."""

import json
import math

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.backend import DISCRETE, GAUSSIAN, random_rows
from statgames.errors import ShapeError
from statgames.games import laxness_witness
from statgames.harness import (
    SUITE_DEFAULTS,
    SUITES,
    Outcome,
    SuiteConfig,
    SuiteReport,
    _rng,
    _run_trials,
    _worst_pair,
    run_suite,
)
from statgames.lens import buco_residual, exact_lens
from statgames.loss import LossModel

REGISTERED = {
    "buco",
    "chain-rule",
    "kl-strict",
    "mle-lax",
    "fe-sum",
    "fe-joint",
    "thermo",
    "laplace",
    "laxators",
    "lax-naturality",
    "bilinear",
    "stochasticity",
}


def rows(seed, n_rows, n_cols):
    return random_rows(_rng(seed), n_rows, n_cols)


class TestGenerators:
    def test_same_seed_same_kernel(self):
        a = rows(123, 3, 4)
        assert np.array_equal(a, rows(123, 3, 4))
        assert not np.array_equal(a, rows(124, 3, 4))

    def test_cod_size_one_is_discard(self):
        assert np.array_equal(rows(5, 4, 1), np.ones((4, 1)))

    def test_normalization_audit(self):
        # ten thousand rows across many draws, all stochastic to 1e-12
        total_rows = 0
        for seed in range(2000):
            r = rows(seed, 5, 3)
            assert np.all(np.abs(r.sum(axis=1) - 1.0) <= 1e-12)
            total_rows += 5
        assert total_rows == 10_000

    def test_strictly_positive_by_default(self):
        for seed in range(50):
            assert rows(seed, 4, 6).min() > 0

    def test_copar_kernel_shapes(self):
        a, m, b = (DISCRETE.space(p, n) for p, n in zip("amb", (3, 2, 4)))
        k = DISCRETE.random_channel(_rng(7), a, m, b)
        assert k.dom.size == 3 and k.copar.size == 2 and k.out.size == 4

    def test_each_discrete_space_is_labelled_once(self):
        # one shared space per (prefix, size), in a memo whose bound is
        # fixed: a wider --max-dim adds no room to it
        first = DISCRETE.space("a", 3)
        assert DISCRETE.space("a", 3) is first and first.labels == ("a0", "a1", "a2")
        assert DISCRETE.space("a", 4) is not first and DISCRETE.space("b", 3) is not first
        bound = DISCRETE.space.cache_info().maxsize
        run_suite(SuiteConfig("buco", trials=3, max_dim=40))
        info = DISCRETE.space.cache_info()
        assert info.maxsize == bound == 128 and info.currsize <= bound

    def test_gauss_channel_deterministic_and_pd(self):
        a = GAUSSIAN.random_channel(_rng(9), 2, 0, 3)
        b = GAUSSIAN.random_channel(_rng(9), 2, 0, 3)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.noise, b.noise)
        for seed in range(50):
            ch = GAUSSIAN.random_channel(_rng(seed), 2, 0, 3)
            assert np.linalg.eigvalsh(ch.noise).min() >= 1e-6 - 1e-12

    def test_gauss_scalar_channel(self):
        ch = GAUSSIAN.random_channel(_rng(3), 1, 0, 1)
        assert ch.noise[0, 0] > 0

    def test_dist_and_state(self):
        d = DISCRETE.random_state(_rng(11), DISCRETE.space("a", 6))
        assert d.mass.min() > 0
        s = GAUSSIAN.random_state(_rng(11), 3)
        assert np.linalg.eigvalsh(s.cov).min() > 0


class RefusingRng:
    """A stand-in generator that fails if any draw is made."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was reached")


class TestOversizedDraws:
    """Seeded draws predict their entries and refuse, before drawing, any
    size over ``discrete.MAX_ENTRIES``."""

    def refuses(self, entries, draw, *args):
        assert entries > ds.MAX_ENTRIES
        with pytest.raises(ShapeError, match=f"{entries:,} entries .{8 * entries:,} bytes."):
            draw(RefusingRng(), *args)

    def test_random_rows(self):
        self.refuses(851 * 326_144, random_rows, 851, 326_144)

    def test_discrete_channel_and_state(self):
        # the sizes verify --suite buco --max-dim 1000 --seed 0 draws first
        x, m, y = (DISCRETE.space(p, n) for p, n in zip("xmy", (851, 637, 512)))
        self.refuses(851 * 637 * 512, DISCRETE.random_channel, x, m, y)
        big = x.product(m).product(y)
        self.refuses(big.size, DISCRETE.random_state, big)

    def test_gaussian_channel_and_state(self):
        # A (cod x dom), b and the noise (cod x cod)
        self.refuses(9000 * (9000 + 1 + 2000), GAUSSIAN.random_channel, 2000, 1000, 8000)
        self.refuses(9000 * (9000 + 1), GAUSSIAN.random_state, 9000)


class TestSuiteConfig:
    def test_validation(self):
        with pytest.raises(ShapeError):
            SuiteConfig(suite="buco", trials=0)
        with pytest.raises(ShapeError):
            SuiteConfig(suite="buco", max_dim=1)
        with pytest.raises(ShapeError):
            SuiteConfig(suite="buco", tolerance=0.0)
        with pytest.raises(ShapeError):
            SuiteConfig(suite="buco", tolerance=math.inf)
        with pytest.raises(ShapeError):
            SuiteConfig(suite="buco", instance="quantum")

    @pytest.mark.parametrize(
        "name, instance",
        [(name, instance) for name, rows in SUITE_DEFAULTS.items() for instance in rows],
    )
    def test_unset_settings_take_the_row_of_the_suite_at_its_instance(self, name, instance):
        # the library and the command line share this one table: fe-sum
        # certifies at 1e-12 and laxators draws sizes up to 3 either way
        row = SUITE_DEFAULTS[name][instance]
        cfg = SuiteConfig(name, instance=instance)
        assert (cfg.trials, cfg.max_dim, cfg.tolerance) == (row["trials"], row["max_dim"], row["tolerance"])
        if instance == next(iter(SUITE_DEFAULTS[name])):
            assert SuiteConfig(name) == cfg

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("trials", 2.5, "an integer"),
            ("trials", True, "an integer"),
            ("seed", 1.0, "an integer"),
            ("seed", "0", "an integer"),
            ("max_dim", 3.5, "an integer"),
            ("max_dim", False, "an integer"),
            ("tolerance", "1e-9", "a real number"),
            ("tolerance", True, "a real number"),
        ],
    )
    def test_a_setting_of_the_wrong_type_is_refused(self, key, value, kind):
        with pytest.raises(ShapeError) as caught:
            SuiteConfig("buco", **{key: value})
        assert str(caught.value) == f"{key} must be {kind}, not {value!r}"

    def test_a_tolerance_beyond_the_floats_is_refused(self):
        with pytest.raises(ShapeError, match="tolerance must be positive and finite"):
            SuiteConfig("buco", tolerance=10**400)

    def test_numpy_numbers_are_reported_as_json_numbers(self):
        cfg = SuiteConfig("buco", trials=np.int64(2), seed=np.uint8(3), tolerance=np.float32(0.5))
        config = json.loads(run_suite(cfg).to_json())["config"]
        assert (config["trials"], config["seed"], config["tolerance"]) == (2, 3, 0.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ShapeError, match="seed"):
            SuiteConfig(suite="buco", seed=-1)
        assert SuiteConfig(suite="buco", seed=0).seed == 0


class TestRunSuite:
    def test_registry_is_complete(self):
        assert set(SUITES) == REGISTERED

    def test_every_suite_has_defaults_at_its_instances(self):
        assert set(SUITE_DEFAULTS) == REGISTERED
        for name, rows in SUITE_DEFAULTS.items():
            want = {"buco": ["discrete", "gaussian"], "laplace": ["gaussian"]}.get(name, ["discrete"])
            assert list(rows) == want
            for row in rows.values():
                assert set(row) == {"trials", "max_dim", "tolerance"}

    def test_a_suite_runs_at_its_first_instance_by_default(self):
        assert SuiteConfig("laplace").instance == "gaussian"
        assert SuiteConfig("buco").instance == "discrete"
        assert SuiteConfig("buco", instance="gaussian").instance == "gaussian"
        assert SuiteConfig("laplace", trials=2).instance == "gaussian"
        report = json.loads(run_suite(SuiteConfig("laplace", trials=2)).to_json())
        assert report["config"]["instance"] == "gaussian" and report["pass"]

    def test_unsupported_instance_rejected(self):
        with pytest.raises(ShapeError, match="buco"):
            run_suite(SuiteConfig("kl-strict", instance="gaussian"))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ShapeError, match="registered"):
            run_suite(SuiteConfig(suite="nonsense"))

    @pytest.mark.parametrize("name", sorted(REGISTERED))
    def test_each_suite_passes_smoke(self, name):
        (row, *_) = SUITE_DEFAULTS[name].values()
        cfg = SuiteConfig(suite=name, trials=5, seed=7, max_dim=3, tolerance=row["tolerance"])
        report = run_suite(cfg)
        assert report.passed, report.summary_line()
        assert len(report.records) == 5

    def test_reports_reproducible_modulo_walltime(self):
        cfg = SuiteConfig(suite="chain-rule", trials=10, seed=99)
        a = json.loads(run_suite(cfg).to_json())
        b = json.loads(run_suite(cfg).to_json())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_trials_are_order_independent(self):
        # the per-trial seed depends only on (seed, index), so a longer run
        # extends a shorter one record-for-record
        short = run_suite(SuiteConfig(suite="buco", trials=5, seed=3))
        long = run_suite(SuiteConfig(suite="buco", trials=10, seed=3))
        for a, b in zip(short.records, long.records[:5]):
            assert a == b

    def test_record_schema(self):
        rep = run_suite(SuiteConfig(suite="bilinear", trials=3, seed=1, tolerance=1e-12))
        for r in rep.records:
            assert set(r) == {
                "suite", "trial", "inputs-digest", "lhs", "rhs", "abs_err", "pass",
            }
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "suite,trial,inputs-digest,lhs,rhs,abs_err,pass"

    def test_gaussian_buco_variant(self):
        rep = run_suite(
            SuiteConfig(
                suite="buco", trials=20, seed=5, max_dim=3,
                tolerance=1e-8, instance="gaussian",
            )
        )
        assert rep.passed


class TestTrialInversionCounts:
    """A trial evaluates each loss once for all of its models, and inverts
    each channel at each prior it needs once per form call."""

    def counted(self, monkeypatch, module, name):
        counted = {"n": 0}
        invert = getattr(module, name)

        def counting(f, pi):
            counted["n"] += 1
            return invert(f, pi)

        monkeypatch.setattr(module, name, counting)
        return counted

    def most_per_trial(self, suite, counted, seeds=range(5)):
        most = 0
        for seed in seeds:
            counted["n"] = 0
            (row, *_) = SUITE_DEFAULTS[suite].values()
            run_suite(SuiteConfig(suite=suite, **dict(row, trials=1, seed=seed)))
            most = max(most, counted["n"])
        return most

    def test_one_laxators_trial(self, monkeypatch):
        counted = self.counted(monkeypatch, ds, "bayes_invert")
        assert 0 < self.most_per_trial("laxators", counted) <= 7

    def test_one_laxators_trial_gaussian_half(self, monkeypatch):
        # each factor once at its marginal of the correlated prior, and once
        # at its marginal of the product prior
        counted = self.counted(monkeypatch, gs, "g_invert")
        assert 0 < self.most_per_trial("laxators", counted) <= 4

    def test_one_lax_naturality_trial(self, monkeypatch):
        # one inversion per distinct (channel, prior) pair: a single probe's
        # witness calls the lenses at the prior's own shape, as the scalar
        # laxator calls do, so the exact lenses' memos hit across the terms
        counted = self.counted(monkeypatch, ds, "bayes_invert")
        assert 0 < self.most_per_trial("lax-naturality", counted) <= 11

    def test_one_gaussian_pair_witnesses_and_residual(self, monkeypatch):
        # the KL, MLE and FE witnesses and the buco residual of one pair,
        # shaped as the benchmark's Gaussian pairs: each exact stage is
        # inverted once at its prior, and the composite's forward once per
        # KL term and once for the residual
        counted = self.counted(monkeypatch, gs, "g_invert")
        rng = np.random.default_rng(12)
        c = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
        d = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 1))
        pi, z = GAUSSIAN.random_state(rng, 2), rng.uniform(-1.0, 1.0, size=1)
        for model in (LossModel.KL, LossModel.MLE, LossModel.FE):
            laxness_witness(model, d, c, pi, z)
        buco_residual(c, d, pi)
        assert counted["n"] <= 5

    def test_one_laplace_trial(self, monkeypatch):
        # every Laplace-style lens of a trial reads its forward's one
        # inversion at the trial's prior
        counted = self.counted(monkeypatch, gs, "g_invert")
        assert 0 < self.most_per_trial("laplace", counted) <= 1

    @pytest.mark.parametrize("suite", ["fe-sum", "fe-joint", "thermo"])
    def test_one_perturbed_lens_trial(self, monkeypatch, suite):
        # the perturbed family and the KL term read the forward's one
        # inversion at the trial's prior
        counted = self.counted(monkeypatch, ds, "bayes_invert")
        assert 0 < self.most_per_trial(suite, counted) <= 1


class TestNaNIsNeverHidden:
    """A NaN side fails its trial and shows in the summary, wherever it
    stands among the pairs or the records."""

    @pytest.mark.parametrize("pairs", [
        [(0.0, 0.0), (math.nan, 1.0)],
        [(math.nan, 1.0), (0.0, 0.0)],
        [(0.5, 0.0), (1.0, math.nan), (0.25, 0.0)],
        [(math.inf, 0.0), (0.0, math.nan)],
    ])
    def test_a_nan_difference_is_the_worst_pair(self, pairs):
        lhs, rhs = _worst_pair(pairs)
        assert math.isnan(lhs - rhs)

    def test_an_equal_pair_of_infinities_agrees(self):
        assert _worst_pair([(0.5, 0.25), (math.inf, math.inf)]) == (0.5, 0.25)
        assert _worst_pair([(-math.inf, -math.inf)]) == (0.0, 0.0)
        assert _worst_pair([(math.inf, -math.inf), (1.0, 0.0)]) == (math.inf, -math.inf)

    def test_a_trial_with_a_nan_pair_fails(self, monkeypatch):
        def trial(rng, cfg):
            return Outcome("d", *_worst_pair([(0.0, 0.0), (math.nan, 1.0)]))

        records = _run_trials("buco", trial, SuiteConfig("buco", trials=1))
        assert not records[0]["pass"] and math.isnan(records[0]["abs_err"])

    @pytest.mark.parametrize("errs", [[0.1, math.nan], [math.nan, 0.1], [0.0, math.nan, 0.2]])
    def test_worst_abs_err_is_nan_wherever_a_nan_record_stands(self, errs):
        report = SuiteReport("buco", SuiteConfig("buco", trials=len(errs)))
        report.records = [{"abs_err": e, "pass": e <= 1e-9} for e in errs]
        assert math.isnan(report.worst_abs_err)
        line = report.summary_line()
        assert line.startswith("FAIL buco:") and "worst_abs_err=nan" in line

    def test_worst_abs_err_without_nan_is_the_largest(self):
        report = SuiteReport("buco", SuiteConfig("buco", trials=3))
        report.records = [{"abs_err": e, "pass": True} for e in (0.1, math.inf, 0.2)]
        assert report.worst_abs_err == math.inf
        report.records = []
        assert report.worst_abs_err == 0.0
