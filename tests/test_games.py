"""Tests for statistical games, 2-cell witnesses, and section certification."""

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.backend import GAUSSIAN
from statgames.errors import CompositionError, InstanceError, ShapeError, SupportError
from statgames.games import (
    Game,
    TwoCellWitness,
    game_hcompose,
    game_vcompose,
    _witness_values,
    laxness_witness,
    laxness_witnesses,
    section_check,
)
from statgames.lens import BayesLens, buco_residual, exact_inversion, exact_lens, lens_compose
from statgames.loss import (
    ALL,
    LossFn,
    LossModel,
    VecForm,
    kl_loss,
    loss_compose,
    loss_for,
    mle_loss,
    zero_loss,
)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed]))


def spaces(*sizes):
    return tuple(
        ds.space([f"s{j}_{i}" for i in range(n)]) for j, n in enumerate(sizes)
    )


def random_dist(rng, s):
    m = rng.gamma(1.0, size=s.size) + 0.05
    return ds.Dist(s, m / m.sum())


def random_copar(rng, dom, copar, out):
    r = rng.gamma(1.0, size=(dom.size, copar.size * out.size)) + 0.05
    return ds.CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


def degenerate_copar(rng, dom, copar, out):
    """Random kernel with support gaps and an unreachable last output,
    every row keeping a positive entry."""
    r = rng.gamma(1.0, size=(dom.size, copar.size, out.size))
    r[rng.random(size=r.shape) < 0.35] = 0.0
    r[:, :, -1] = 0.0
    r[np.arange(dom.size), 0, rng.integers(0, out.size - 1, size=dom.size)] += 1.0
    r = r.reshape(dom.size, -1)
    return ds.CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


def degenerate_dist(rng, s):
    m = rng.gamma(1.0, size=s.size)
    m[rng.random(size=s.size) < 0.35] = 0.0
    m[rng.integers(0, s.size)] += 1.0
    return ds.Dist(s, m / m.sum())


def perturbed_lens(rng, fwd, eps=0.3):
    """A simple lens whose backward mixes the exact inversion with a fixed
    random kernel."""
    noise = random_copar(rng, fwd.out, ds.unit_space(), fwd.dom.product(fwd.copar)).rows

    def bwd(pi):
        rows = (1 - eps) * exact_inversion(fwd, pi).rows + eps * noise
        return ds.CoparKernel(fwd.out, fwd.copar, fwd.dom, rows, "right")

    return BayesLens(fwd=fwd, bwd=bwd)


def exact_pair(rng, sizes=(3, 2, 3, 2, 3)):
    X, M, Y, N, Z = spaces(*sizes)
    c = exact_lens(random_copar(rng, X, M, Y))
    d = exact_lens(random_copar(rng, Y, N, Z))
    return d, c


def shifted_loss(loss, value):
    """``loss`` plus ``value`` at every prior and observation, in its form."""

    def form(pi, sel=ALL):
        f = loss.form(pi, sel)
        if isinstance(f, VecForm):
            return VecForm(f.values + value, f.defined)
        return f._replace(c=f.c + value)

    return LossFn(loss.prior_dom, loss.obs_dom, form)


def const_loss(game_lens, value):
    return shifted_loss(zero_loss(game_lens), value)


class TestGame:
    def test_loss_spaces_must_match(self):
        rng = rng_for(0)
        X, M, Y = spaces(2, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        other = exact_lens(random_copar(rng, Y, M, X))
        with pytest.raises(ShapeError):
            Game(lens=lens, loss=mle_loss(other))

    def test_hcompose_zero_losses(self):
        rng = rng_for(1)
        d, c = exact_pair(rng)
        comp = game_hcompose(
            Game(lens=d, loss=zero_loss(d)), Game(lens=c, loss=zero_loss(c))
        )
        pi = random_dist(rng, c.fwd.dom)
        for z in range(3):
            assert comp.loss(pi, z) == pytest.approx(0.0, abs=1e-15)

    def test_hcompose_kl_exact_lenses_is_zero(self):
        rng = rng_for(2)
        d, c = exact_pair(rng)
        comp = game_hcompose(
            Game(lens=d, loss=kl_loss(d)), Game(lens=c, loss=kl_loss(c))
        )
        pi = random_dist(rng, c.fwd.dom)
        for z in range(3):
            assert comp.loss(pi, z) == pytest.approx(0.0, abs=1e-12)

    def test_hcompose_matches_formula(self):
        rng = rng_for(3)
        d, c = exact_pair(rng)
        g = game_hcompose(
            Game(lens=d, loss=mle_loss(d)), Game(lens=c, loss=mle_loss(c))
        )
        direct = loss_compose(mle_loss(d), mle_loss(c), d, c)
        pi = random_dist(rng, c.fwd.dom)
        for z in range(3):
            assert g.loss(pi, z) == pytest.approx(direct(pi, z), abs=1e-12)

    def test_hcompose_associative_on_probes(self):
        rng = rng_for(4)
        X, M, Y, N, Z, P, W = spaces(3, 2, 3, 2, 3, 2, 3)
        lenses = [
            exact_lens(random_copar(rng, X, M, Y)),
            exact_lens(random_copar(rng, Y, N, Z)),
            exact_lens(random_copar(rng, Z, P, W)),
        ]
        games = [Game(lens=l, loss=mle_loss(l)) for l in lenses]
        left = game_hcompose(games[2], game_hcompose(games[1], games[0]))
        right = game_hcompose(game_hcompose(games[2], games[1]), games[0])
        pi = random_dist(rng, X)
        for w in range(3):
            assert left.loss(pi, w) == pytest.approx(
                right.loss(pi, w), abs=1e-9
            )


class TestTwoCells:
    def make_games(self, rng):
        X, M, Y = spaces(3, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        base = mle_loss(lens)
        shifted = shifted_loss(base, 0.5)
        probes = [(random_dist(rng, X), int(rng.integers(0, 3))) for _ in range(5)]
        return Game(lens=lens, loss=shifted), Game(lens=lens, loss=base), probes

    def test_witness_verified_at_construction(self):
        rng = rng_for(5)
        upper, lower, probes = self.make_games(rng)
        w = TwoCellWitness(
            from_game=upper,
            to_game=lower,
            K=const_loss(upper.lens, 0.5),
            probes=tuple(probes),
        )
        assert w.K(probes[0][0], probes[0][1]) == 0.5

    def test_bad_witness_rejected(self):
        rng = rng_for(6)
        upper, lower, probes = self.make_games(rng)
        with pytest.raises(CompositionError):
            TwoCellWitness(
                from_game=upper,
                to_game=lower,
                K=const_loss(upper.lens, 0.25),
                probes=tuple(probes),
            )

    def test_negative_witness_rejected(self):
        rng = rng_for(7)
        upper, lower, probes = self.make_games(rng)
        with pytest.raises(CompositionError):
            TwoCellWitness(
                from_game=lower,
                to_game=upper,
                K=const_loss(upper.lens, -0.5),
                probes=tuple(probes),
            )

    def test_vertical_composition_sums(self):
        rng = rng_for(8)
        upper, lower, probes = self.make_games(rng)
        quarter = shifted_loss(lower.loss, 0.25)
        middle = Game(lens=lower.lens, loss=quarter)
        w1 = TwoCellWitness(
            from_game=upper,
            to_game=middle,
            K=const_loss(upper.lens, 0.25),
            probes=tuple(probes),
        )
        w2 = TwoCellWitness(
            from_game=middle,
            to_game=lower,
            K=const_loss(upper.lens, 0.25),
            probes=tuple(probes),
        )
        w = game_vcompose(w2, w1)
        assert w.from_game is upper and w.to_game is lower
        pi, obs = probes[0]
        assert w.K(pi, obs) == pytest.approx(0.75 - 0.25)

    def test_identity_witnesses_compose_to_identity(self):
        rng = rng_for(9)
        _, lower, probes = self.make_games(rng)
        zero = const_loss(lower.lens, 0.0)
        w1 = TwoCellWitness(lower, lower, zero, tuple(probes))
        w2 = TwoCellWitness(lower, lower, zero, tuple(probes))
        w = game_vcompose(w2, w1)
        pi, obs = probes[0]
        assert w.K(pi, obs) == 0.0

    def test_chain_mismatch_rejected(self):
        rng = rng_for(10)
        upper, lower, probes = self.make_games(rng)
        zero_u = const_loss(upper.lens, 0.0)
        w1 = TwoCellWitness(upper, upper, zero_u, tuple(probes))
        w2 = TwoCellWitness(lower, lower, zero_u, tuple(probes))
        with pytest.raises(CompositionError):
            game_vcompose(w2, w1)


class TestSectionCheck:
    def build(self, rng, n_pairs=8, n_probes=5):
        pairs, probes = [], []
        for _ in range(n_pairs):
            d, c = exact_pair(rng)
            pairs.append((d, c))
            probes.append(
                [
                    (random_dist(rng, c.fwd.dom), int(rng.integers(0, 3)))
                    for _ in range(n_probes)
                ]
            )
        return pairs, probes

    def test_kl_is_strict(self):
        rng = rng_for(11)
        pairs, probes = self.build(rng)
        report = section_check(LossModel.KL, pairs, probes)
        assert report["classification"] == "STRICT"
        assert report["worst_abs_K"] < 1e-9
        assert report["skipped"] == 0

    def test_mle_is_lax(self):
        rng = rng_for(12)
        pairs, probes = self.build(rng)
        report = section_check(LossModel.MLE, pairs, probes)
        assert report["classification"] == "LAX"
        assert report["worst_K"] > 0

    def test_fe_witnesses_are_kl_plus_mle(self):
        rng = rng_for(13)
        pairs, probes = self.build(rng, n_pairs=4)
        for (d, c), plist in zip(pairs, probes):
            for pi, obs in plist:
                fe = laxness_witness(LossModel.FE, d, c, pi, obs)
                kl = laxness_witness(LossModel.KL, d, c, pi, obs)
                mle = laxness_witness(LossModel.MLE, d, c, pi, obs)
                assert fe == pytest.approx(kl + mle, abs=1e-9)

    def test_fe_classified_lax_over_exact_lenses(self):
        rng = rng_for(14)
        pairs, probes = self.build(rng)
        report = section_check(LossModel.FE, pairs, probes)
        assert report["classification"] in ("STRICT", "LAX")
        assert report["worst_K"] >= -1e-12

    def test_report_shape(self):
        rng = rng_for(15)
        pairs, probes = self.build(rng, n_pairs=2, n_probes=3)
        report = section_check(LossModel.KL, pairs, probes)
        assert set(report) == {
            "model",
            "classification",
            "n_pairs",
            "n_probes",
            "worst_K",
            "worst_abs_K",
            "skipped",
        }
        assert report["n_pairs"] == 2
        assert report["n_probes"] == 6


MODELS = [LossModel.KL, LossModel.MLE, LossModel.FE]


def mixed_pairs(rng, n_pairs, n_probes):
    """Composable pairs ``(d, c)`` with their probes: every other pair has
    support gaps in its kernels and priors, and every third second stage
    is perturbed away from exact inversion."""
    for k in range(n_pairs):
        X, M, Y, N, Z = spaces(*(int(v) for v in rng.integers(2, 4, size=5)))
        kernel, draw = (degenerate_copar, degenerate_dist) if k % 2 else (random_copar, random_dist)
        c = exact_lens(kernel(rng, X, M, Y))
        d = perturbed_lens(rng, kernel(rng, Y, N, Z)) if k % 3 == 2 else exact_lens(kernel(rng, Y, N, Z))
        yield d, c, [(draw(rng, X), int(rng.integers(0, Z.size))) for _ in range(n_probes)]


def scalar_witness(model, d, c, pi, obs):
    """The witness at one probe from scalar loss calls."""
    composed = loss_compose(loss_for(model, d), loss_for(model, c), d, c)
    return composed(pi, obs) - loss_for(model, lens_compose(d, c))(pi, obs)


def same(got, want, tol):
    return got == want or (np.isnan(got) and np.isnan(want)) or abs(got - want) <= tol


class TestBatchedWitnesses:
    @pytest.mark.parametrize("model", MODELS)
    def test_batched_witnesses_match_per_probe_ones(self, model):
        rng = rng_for(16)
        undefined = 0
        for d, c, probes in mixed_pairs(rng, 12, 20):
            defined, want = [], []
            for pi, obs in probes:
                try:
                    want.append(laxness_witness(model, d, c, pi, obs))
                    defined.append((pi, obs))
                except SupportError:
                    undefined += 1
            got = laxness_witnesses(model, d, c, defined)
            assert all(same(g, w, 1e-15) for g, w in zip(got, want))
            if len(defined) < len(probes):
                with pytest.raises(SupportError):
                    laxness_witnesses(model, d, c, probes)
        if model is not LossModel.MLE:
            assert undefined > 0  # the gapped pairs do reach unsupported observations

    @pytest.mark.parametrize("model", MODELS)
    def test_section_check_skips_each_undefined_probe(self, model):
        rng = rng_for(17)
        pairs, probes = [], []
        for d, c, plist in mixed_pairs(rng, 10, 6):
            pairs.append((d, c))
            probes.append(plist)
        ks, skipped = [], 0
        for (d, c), plist in zip(pairs, probes):
            for pi, obs in plist:
                try:
                    ks.append(scalar_witness(model, d, c, pi, obs))
                except SupportError:
                    skipped += 1
        report = section_check(model, pairs, probes)
        assert (report["n_probes"], report["skipped"]) == (len(ks), skipped)
        assert same(report["worst_K"], max([-np.inf, *ks]), 1e-12)
        if model is not LossModel.MLE:
            assert skipped > 0


class TestWitnessModelAxis:
    """A tuple of models gives each model's witnesses from one composite,
    bitwise those of the single-model calls."""

    def test_rows_are_the_single_model_witnesses(self):
        rng = rng_for(21)
        several = tuple(MODELS)
        undefined = 0
        for d, c, probes in mixed_pairs(rng, 12, 10):
            rows = _witness_values(several, d, c, probes)
            for row, model in zip(rows, several):
                want = _witness_values(model, d, c, probes)
                for g, w in zip(row, want):
                    if isinstance(w, Exception):
                        undefined += 1
                        assert type(g) is type(w) and str(g) == str(w)
                    else:
                        assert same(g, w, 0.0)
            defined = [p for p, *ks in zip(probes, *rows) if not any(isinstance(k, Exception) for k in ks)]
            got = laxness_witnesses(several, d, c, defined)
            want = [laxness_witnesses(m, d, c, defined) for m in several]
            assert np.array_equal(got, want, equal_nan=True)
            if defined:
                pi, obs = defined[0]
                one = laxness_witness(several, d, c, pi, obs)
                assert np.array_equal(one, [row[0] for row in got], equal_nan=True)
            if len(defined) < len(probes):
                with pytest.raises(SupportError):
                    laxness_witnesses(several, d, c, probes)
        assert undefined > 0

    def test_a_pair_is_copy_composed_once(self, monkeypatch):
        # a copy-composite is remembered by its pair of channels, so a second
        # call on one pair composes neither the forwards nor the backwards
        # at its priors again, and gives the first call's values
        rng = rng_for(22)
        d, c = exact_pair(rng)
        probes = [(random_dist(rng, c.fwd.dom), z) for z in range(3)]
        composed, orig = [], ds.copy_compose_copar
        monkeypatch.setattr(ds, "copy_compose_copar", lambda g, f: composed.append((g, f)) or orig(g, f))
        want = laxness_witnesses(tuple(MODELS), d, c, probes)
        made = list(composed)
        assert np.array_equal(laxness_witnesses(tuple(MODELS), d, c, probes), want, equal_nan=True)
        assert len(composed) == len(made) == 2
        (fwd_g, fwd_f), (bwd_g, bwd_f) = made
        assert fwd_g is d.fwd and fwd_f is c.fwd
        assert bwd_g.copar_side == bwd_f.copar_side == "right"

    @pytest.mark.parametrize("instance", ["discrete", "gaussian"])
    def test_a_pairs_witnesses_and_residual_share_one_composite(self, instance, monkeypatch):
        # the KL, MLE and FE witnesses and the buco residual of one pair at
        # one prior copy-compose its forwards once and its backwards once, and
        # invert each stage and the composite forward once; each instance
        # made 7 and 5 when every call built its own composite
        rng = rng_for(23)
        if instance == "discrete":
            d, c = exact_pair(rng)
            pi, obs, module, names = random_dist(rng, c.fwd.dom), 1, ds, ("copy_compose_copar", "bayes_invert")
        else:
            c = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
            d = exact_lens(GAUSSIAN.random_channel(rng, 2, 0, 1))
            pi, obs, module, names = GAUSSIAN.random_state(rng, 2), [0.3], gs, ("g_copy_compose", "g_invert")
        calls = {name: [] for name in names}
        for name in names:
            orig = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, n=name, o=orig: calls[n].append(args) or o(*args))
        for model in (LossModel.KL, LossModel.MLE, LossModel.FE):
            laxness_witness(model, d, c, pi, obs)
        buco_residual(c, d, pi)
        assert [len(calls[name]) for name in names] == [2, 3]

    def test_a_gaussian_pairs_witnesses_and_residual_factor_little(self, monkeypatch):
        # the KL loss of an exact lens is the zero form, and each state keeps
        # its negative log-density form: 2 ``slogdet`` and 17 ``solve`` calls,
        # where computing KL(p || p) and rebuilding each form made 6 and 39;
        # every LAPACK call goes through the Gaussian module's helpers
        rng = rng_for(23)
        c = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
        d = exact_lens(GAUSSIAN.random_channel(rng, 2, 0, 1))
        pi = GAUSSIAN.random_state(rng, 2)
        calls = {"slogdet": 0, "solve": 0}
        for name in calls:
            orig = getattr(gs, name)

            def counting(*args, n=name, o=orig):
                calls[n] += 1
                return o(*args)

            monkeypatch.setattr(gs, name, counting)
        for model in (LossModel.KL, LossModel.MLE, LossModel.FE):
            laxness_witness(model, d, c, pi, [0.3])
        buco_residual(c, d, pi)
        assert calls == {"slogdet": 2, "solve": 17}

    @pytest.mark.parametrize(
        "model, inversions",
        [(LossModel.KL, 3), (LossModel.MLE, 1), (LossModel.FE, 3), (LossModel.LFE, 2)],
    )
    def test_gaussian_witness_keeps_its_path(self, model, inversions, monkeypatch):
        # one scalar call per probe, with the values of the single-model path
        # before the model axis; each exact stage is inverted once at its prior
        rng = np.random.default_rng(5)
        c = exact_lens(GAUSSIAN.random_channel(rng, 2, 1, 2))
        d = exact_lens(GAUSSIAN.random_channel(rng, 2, 0, 1))
        pi = GAUSSIAN.random_state(rng, 2)
        counted = {"n": 0}
        invert = gs.g_invert

        def counting(f, prior):
            counted["n"] += 1
            return invert(f, prior)

        monkeypatch.setattr(gs, "g_invert", counting)
        got = laxness_witness(model, d, c, pi, [0.3])
        assert counted["n"] == inversions
        composed = loss_compose(loss_for(model, d), loss_for(model, c), d, c)
        assert got == composed(pi, [0.3]) - loss_for(model, lens_compose(d, c))(pi, [0.3])
        with pytest.raises(InstanceError):
            laxness_witness(tuple(MODELS), d, c, pi, [0.3])


class TestInversionCounts:
    """Each stage is inverted once per prior, and a pair's probes share
    their inversions as one stack of priors."""

    def counter(self, monkeypatch):
        counted = {"n": 0}
        invert = ds.bayes_invert

        def counting(f, pi):
            counted["n"] += 1
            return invert(f, pi)

        monkeypatch.setattr(ds, "bayes_invert", counting)
        return counted

    def test_one_composed_kl_witness(self, monkeypatch):
        counted = self.counter(monkeypatch)
        d, c = exact_pair(rng_for(18))
        laxness_witness(LossModel.KL, d, c, random_dist(rng_for(19), c.fwd.dom), 1)
        assert counted["n"] <= 5

    def test_a_pairs_twenty_probes(self, monkeypatch):
        counted = self.counter(monkeypatch)
        rng = rng_for(20)
        d, c = exact_pair(rng)
        probes = [(random_dist(rng, c.fwd.dom), int(rng.integers(0, 3))) for _ in range(20)]
        laxness_witnesses(LossModel.KL, d, c, probes)
        assert counted["n"] <= 5
