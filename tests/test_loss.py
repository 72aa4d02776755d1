"""Tests for the four loss models, their composition, and their laxators.

Hand-derived closed-form values are written out in the comments; everything
else is checked against enumeration or block-algebra oracles computed with
plain loops in this file.
"""

import math

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames import loss as loss_module
from statgames.errors import InstanceError, SingularityError, SupportError
from statgames.games import Game, TwoCellWitness, game_vcompose
from statgames.lens import (
    BayesLens,
    exact_inversion,
    exact_lens,
    lens_compose,
    lens_tensor,
    prior_pushforward,
)
from statgames.loss import (
    LossModel,
    energy_entropy_decomp,
    fe_joint_form,
    fe_loss,
    kl_loss,
    laplace_sigma,
    laxator,
    lfe_loss,
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


def perturbed_lens(rng, fwd, eps=0.3):
    """A simple lens whose backward is a fixed mixture of the exact
    inversion with a random kernel, hence non-exact but prior-pure."""
    noise = random_copar(
        rng, fwd.out, ds.unit_space(), fwd.dom.product(fwd.copar)
    ).rows

    def bwd(pi):
        exact = exact_inversion(fwd, pi)
        rows = (1 - eps) * exact.rows + eps * noise
        return ds.CoparKernel(fwd.out, fwd.copar, fwd.dom, rows, "right")

    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


def random_gauss_state(rng, dim):
    mean = rng.uniform(-1, 1, size=dim)
    l = rng.uniform(-1, 1, size=(dim, dim))
    return gs.GaussState(mean, l @ l.T + 0.2 * np.eye(dim))


def random_gauss_channel(rng, dom, copar, out):
    cod = copar + out
    A = rng.uniform(-2, 2, size=(cod, dom))
    b = rng.uniform(-1, 1, size=cod)
    l = rng.uniform(-1, 1, size=(cod, cod))
    return gs.GaussChannel(A, b, l @ l.T + 0.05 * np.eye(cod), copar_dim=copar)


def perturbed_gauss_lens(rng, fwd, eps=0.3):
    cod = fwd.dom_dim + fwd.copar_dim
    dA = rng.uniform(-1, 1, size=(cod, fwd.out_dim))
    db = rng.uniform(-1, 1, size=cod)
    l = rng.uniform(-1, 1, size=(cod, cod))
    bump = l @ l.T + 0.05 * np.eye(cod)

    def bwd(pi):
        ex = gs.g_invert(fwd, pi)
        return gs.GaussChannel(
            ex.A + eps * dA, ex.b + eps * db, ex.noise + eps * bump,
            ex.copar_dim, "right",
        )

    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


X2 = ds.space(["x0", "x1"])
Y2 = ds.space(["y0", "y1"])


class TestKLLoss:
    def test_exact_lens_has_zero_loss(self):
        rng = rng_for(0)
        X, M, Y = spaces(3, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        loss = kl_loss(lens)
        pi = random_dist(rng, X)
        for y in range(3):
            assert loss(pi, y) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_bernoulli(self):
        # fwd [[0.75, 0.25], [0.25, 0.75]], uniform prior: exact posterior
        # at y0 is (0.75, 0.25); a constant (0.5, 0.5) backward gives
        # 0.5 ln 2 + 0.5 ln(2/3)
        fwd = ds.lift_kernel(
            ds.FiniteKernel(X2, Y2, [[0.75, 0.25], [0.25, 0.75]])
        )
        bwd = lambda pi: ds.CoparKernel(
            Y2, ds.unit_space(), X2, [[0.5, 0.5], [0.5, 0.5]], "right"
        )
        lens = BayesLens(fwd=fwd, bwd=bwd, simple=True)
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_loss(lens)(ds.uniform(X2), 0) == pytest.approx(want, abs=1e-12)

    def test_hand_value_gaussian(self):
        # x-independent forward: exact posterior equals the prior N(0,1);
        # backward fixed at N(1,1): divergence 0.5
        fwd = gs.GaussChannel([[0.0]], [0.0], [[1.0]])
        bwd = lambda pi: gs.GaussChannel([[0.0]], [1.0], [[1.0]], 0, "right")
        lens = BayesLens(fwd=fwd, bwd=bwd, simple=True)
        prior = gs.GaussState([0.0], [[1.0]])
        assert kl_loss(lens)(prior, [0.3]) == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_observation_raises(self):
        fwd = ds.lift_kernel(ds.FiniteKernel(X2, Y2, [[1.0, 0.0], [1.0, 0.0]]))
        lens = exact_lens(fwd)
        with pytest.raises(SupportError):
            kl_loss(lens)(ds.uniform(X2), 1)


class TestMLELoss:
    def test_uniform_pushforward_is_log_n(self):
        (X,) = spaces(5)
        lens = exact_lens(ds.identity_kernel(X))
        loss = mle_loss(lens)
        for y in range(5):
            assert loss(ds.uniform(X), y) == pytest.approx(math.log(5.0))

    def test_bernoulli_quarter(self):
        fwd = ds.lift_kernel(
            ds.FiniteKernel(X2, Y2, [[0.75, 0.25], [0.75, 0.25]])
        )
        loss = mle_loss(exact_lens(fwd))
        assert loss(ds.uniform(X2), 1) == pytest.approx(-math.log(0.25), abs=1e-12)

    def test_gaussian_standard_normal(self):
        fwd = gs.GaussChannel([[1.0]], [0.0], [[0.5]])
        lens = exact_lens(fwd)
        prior = gs.GaussState([0.0], [[0.5]])  # pushforward N(0, 1)
        assert mle_loss(lens)(prior, [0.0]) == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_zero_mass_gives_infinity(self):
        fwd = ds.lift_kernel(ds.FiniteKernel(X2, Y2, [[1.0, 0.0], [1.0, 0.0]]))
        assert mle_loss(exact_lens(fwd))(ds.uniform(X2), 1) == math.inf


class TestFreeEnergy:
    def test_exact_lens_fe_equals_mle(self):
        rng = rng_for(1)
        X, M, Y = spaces(3, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        pi = random_dist(rng, X)
        fe = fe_loss(lens)
        mle = mle_loss(lens)
        for y in range(3):
            assert fe(pi, y) == pytest.approx(mle(pi, y), abs=1e-12)

    def test_fe_is_kl_plus_mle_pointwise(self):
        rng = rng_for(2)
        X, M, Y = spaces(3, 2, 3)
        lens = perturbed_lens(rng, random_copar(rng, X, M, Y))
        pi = random_dist(rng, X)
        fe, kl, mle = fe_loss(lens), kl_loss(lens), mle_loss(lens)
        for y in range(3):
            assert fe(pi, y) == pytest.approx(kl(pi, y) + mle(pi, y), abs=1e-12)

    def test_joint_form_matches_fe_discrete(self):
        rng = rng_for(3)
        for _ in range(20):
            sx, sm, sy = (int(v) for v in rng.integers(1, 5, size=3))
            X, M, Y = spaces(sx, sm, sy)
            lens = perturbed_lens(rng, random_copar(rng, X, M, Y))
            pi = random_dist(rng, X)
            fe = fe_loss(lens)
            joint = fe_joint_form(lens)
            for y in range(sy):
                assert joint(pi, y) == pytest.approx(fe(pi, y), abs=1e-9)

    def test_joint_form_matches_fe_gaussian(self):
        rng = rng_for(4)
        for _ in range(10):
            dx, dm, dy = (int(v) for v in rng.integers(1, 3, size=3))
            lens = perturbed_gauss_lens(
                rng, random_gauss_channel(rng, dx, dm, dy)
            )
            pi = random_gauss_state(rng, dx)
            y = rng.uniform(-1, 1, size=dy)
            assert fe_joint_form(lens)(pi, y) == pytest.approx(
                fe_loss(lens)(pi, y), abs=1e-9
            )

    def test_point_mass_prior(self):
        rng = rng_for(5)
        X, M, Y = spaces(3, 2, 3)
        fwd = random_copar(rng, X, M, Y)
        lens = exact_lens(fwd)
        pi = ds.point_mass(X, 1)
        fe = fe_loss(lens)
        joint = fe_joint_form(lens)
        for y in range(3):
            assert joint(pi, y) == pytest.approx(fe(pi, y), abs=1e-12)


class TestThermodynamicSplit:
    def test_difference_is_fe(self):
        rng = rng_for(6)
        X, M, Y = spaces(3, 2, 4)
        lens = perturbed_lens(rng, random_copar(rng, X, M, Y))
        pi = random_dist(rng, X)
        fe = fe_loss(lens)
        for y in range(4):
            energy, ent = energy_entropy_decomp(lens, pi, y)
            assert energy - ent == pytest.approx(fe(pi, y), abs=1e-9)

    def test_exact_lens_difference_is_mle(self):
        rng = rng_for(7)
        X, M, Y = spaces(2, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        pi = random_dist(rng, X)
        for y in range(3):
            energy, ent = energy_entropy_decomp(lens, pi, y)
            assert energy - ent == pytest.approx(
                mle_loss(lens)(pi, y), abs=1e-9
            )

    def test_uniform_everything_entropy(self):
        X, M, Y = spaces(3, 2, 2)
        rows = np.full((3, 4), 0.25)
        lens = exact_lens(ds.CoparKernel(X, M, Y, rows))
        _, ent = energy_entropy_decomp(lens, ds.uniform(X), 0)
        assert ent == pytest.approx(math.log(6.0), abs=1e-12)

    def test_gaussian_entropy_term(self):
        rng = rng_for(8)
        lens = perturbed_gauss_lens(rng, random_gauss_channel(rng, 2, 1, 2))
        pi = random_gauss_state(rng, 2)
        y = rng.uniform(-1, 1, size=2)
        _, ent = energy_entropy_decomp(lens, pi, y)
        back_state = gs.g_apply(lens.bwd(pi), y)
        assert ent == pytest.approx(gs.g_entropy(back_state), abs=1e-12)


def laplace_style_lens(fwd, cov):
    """Exact posterior mean map with a prescribed posterior covariance."""

    def bwd(pi):
        ex = gs.g_invert(fwd, pi)
        return gs.GaussChannel(ex.A, ex.b, cov, ex.copar_dim, "right")

    return BayesLens(fwd=fwd, bwd=bwd, simple=True)


class TestLaplace:
    def test_gap_is_half_trace(self):
        rng = rng_for(9)
        for _ in range(10):
            dx, dm, dy = (int(v) for v in rng.integers(1, 3, size=3))
            fwd = random_gauss_channel(rng, dx, dm, dy)
            pi = random_gauss_state(rng, dx)
            l = rng.uniform(-1, 1, size=(dx + dm, dx + dm))
            cov = l @ l.T + 0.1 * np.eye(dx + dm)
            lens = laplace_style_lens(fwd, cov)
            y = rng.uniform(-1, 1, size=dy)
            gap = fe_loss(lens)(pi, y) - lfe_loss(lens)(pi, y)
            hess = np.linalg.inv(laplace_sigma(lens, pi, y))
            assert gap == pytest.approx(
                0.5 * np.trace(cov @ hess), abs=1e-8
            )

    def test_gap_vanishes_with_covariance(self):
        rng = rng_for(10)
        fwd = random_gauss_channel(rng, 2, 1, 2)
        pi = random_gauss_state(rng, 2)
        y = rng.uniform(-1, 1, size=2)
        base = np.eye(3) * 0.5
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            lens = laplace_style_lens(fwd, eps * base)
            gaps.append(fe_loss(lens)(pi, y) - lfe_loss(lens)(pi, y))
        assert gaps[0] == pytest.approx(10 * gaps[1], rel=1e-9)
        assert gaps[1] == pytest.approx(10 * gaps[2], rel=1e-9)
        assert gaps[2] < gaps[0] / 99.0

    def test_inverse_hessian_covariance_gives_half_dim(self):
        rng = rng_for(11)
        for _ in range(10):
            dx, dm, dy = (int(v) for v in rng.integers(1, 3, size=3))
            fwd = random_gauss_channel(rng, dx, dm, dy)
            pi = random_gauss_state(rng, dx)
            y = rng.uniform(-1, 1, size=dy)
            sigma = laplace_sigma(laplace_style_lens(fwd, np.eye(dx + dm)), pi, y)
            lens = laplace_style_lens(fwd, sigma)
            gap = fe_loss(lens)(pi, y) - lfe_loss(lens)(pi, y)
            assert gap == pytest.approx((dx + dm) / 2.0, abs=1e-9)

    def test_scalar_closed_form(self):
        # prior N(0,1), likelihood N(x,1): Hessian 2, posterior variance 1/2
        fwd = gs.GaussChannel([[1.0]], [0.0], [[1.0]])
        pi = gs.GaussState([0.0], [[1.0]])
        lens = exact_lens(fwd)
        sigma = laplace_sigma(lens, pi, [0.7])
        assert sigma[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_block_model_is_block_diagonal(self):
        fwd = gs.GaussChannel(
            [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], np.diag([0.5, 0.25])
        )
        pi = gs.GaussState([0.0, 0.0], np.diag([1.0, 2.0]))
        sigma = laplace_sigma(exact_lens(fwd), pi, [0.0, 0.0])
        assert sigma[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert sigma[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_posterior_covariance(self):
        rng = rng_for(12)
        for _ in range(10):
            dx, dm, dy = (int(v) for v in rng.integers(1, 4, size=3))
            fwd = random_gauss_channel(rng, dx, dm, dy)
            pi = random_gauss_state(rng, dx)
            lens = exact_lens(fwd)
            sigma = laplace_sigma(lens, pi, np.zeros(dy))
            exact_cov = gs.g_invert(fwd, pi).noise
            assert np.allclose(sigma, exact_cov, atol=1e-9)

    def test_discrete_lens_rejected(self):
        (X,) = spaces(2)
        with pytest.raises(InstanceError):
            lfe_loss(exact_lens(ds.identity_kernel(X)))

    def test_singular_hessian_raises_singularity_error(self, monkeypatch):
        monkeypatch.setattr(
            loss_module, "_gauss_energy_hessian", lambda fwd, pi: np.zeros((2, 2))
        )
        fwd = gs.GaussChannel([[1.0]], [0.0], [[1.0]])
        pi = gs.GaussState([0.0], [[1.0]])
        with pytest.raises(SingularityError):
            laplace_sigma(exact_lens(fwd), pi, [0.7])


class TestLossCompose:
    def test_zero_inner_loss_reindexes(self):
        rng = rng_for(13)
        X, M, Y, N, Z = spaces(3, 2, 3, 2, 3)
        c = exact_lens(random_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        Ld = mle_loss(d)
        comp = loss_compose(Ld, zero_loss(c), d, c)
        reindexed = Ld.reindex(c.fwd)
        pi = random_dist(rng, X)
        for z in range(3):
            assert comp(pi, z) == pytest.approx(reindexed(pi, z), abs=1e-12)

    def test_kl_of_exact_lenses_composes_to_zero(self):
        rng = rng_for(14)
        X, M, Y, N, Z = spaces(3, 2, 3, 2, 3)
        c = exact_lens(random_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        comp = loss_compose(kl_loss(d), kl_loss(c), d, c)
        pi = random_dist(rng, X)
        for z in range(3):
            assert comp(pi, z) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = rng_for(15)
        for _ in range(10):
            sx, sm, sy, sn, sz = (int(v) for v in rng.integers(2, 4, size=5))
            X, M, Y, N, Z = spaces(sx, sm, sy, sn, sz)
            c = perturbed_lens(rng, random_copar(rng, X, M, Y))
            d = perturbed_lens(rng, random_copar(rng, Y, N, Z))
            Lc, Ld = kl_loss(c), mle_loss(d)
            comp = loss_compose(Ld, Lc, d, c)
            pi = random_dist(rng, X)
            z = int(rng.integers(0, sz))
            # oracle: the displayed formula with plain loops
            cr = c.fwd.rows.reshape(sx, sm, sy)
            mid = np.zeros(sy)
            for b in range(sy):
                for a in range(sx):
                    for m in range(sm):
                        mid += 0  # keep loop explicit
            mid = np.array(
                [
                    sum(
                        cr[a, m, b] * pi.mass[a]
                        for a in range(sx)
                        for m in range(sm)
                    )
                    for b in range(sy)
                ]
            )
            mid_d = ds.Dist(Y, mid / mid.sum())
            first = Ld(mid_d, z)
            back = d.bwd(mid_d).rows.reshape(sz, sy, sn)
            second = sum(
                back[z, b, n] * Lc(pi, b)
                for b in range(sy)
                for n in range(sn)
                if back[z, b, n] > 0
            )
            assert comp(pi, z) == pytest.approx(first + second, abs=1e-10)

    def test_kl_strictness_on_non_exact_lenses(self):
        # composing the KL losses equals the KL loss of the composite, for
        # arbitrary simple backward families, not only exact ones
        rng = rng_for(16)
        for _ in range(10):
            sx, sm, sy, sn, sz = (int(v) for v in rng.integers(2, 4, size=5))
            X, M, Y, N, Z = spaces(sx, sm, sy, sn, sz)
            c = perturbed_lens(rng, random_copar(rng, X, M, Y))
            d = perturbed_lens(rng, random_copar(rng, Y, N, Z))
            pi = random_dist(rng, X)
            composed = loss_compose(kl_loss(d), kl_loss(c), d, c)
            of_composite = kl_loss(lens_compose(d, c))
            for z in range(sz):
                assert composed(pi, z) == pytest.approx(
                    of_composite(pi, z), abs=1e-9
                )

    def test_mle_laxness_witness_is_expected_backward_term(self):
        rng = rng_for(17)
        for _ in range(10):
            sx, sm, sy, sn, sz = (int(v) for v in rng.integers(2, 4, size=5))
            X, M, Y, N, Z = spaces(sx, sm, sy, sn, sz)
            c = exact_lens(random_copar(rng, X, M, Y))
            d = exact_lens(random_copar(rng, Y, N, Z))
            pi = random_dist(rng, X)
            composed = loss_compose(mle_loss(d), mle_loss(c), d, c)
            of_composite = mle_loss(lens_compose(d, c))
            inner = mle_loss(c)
            mid = prior_pushforward(c.fwd)(pi)
            for z in range(sz):
                witness = composed(pi, z) - of_composite(pi, z)
                assert witness >= -1e-12
                back = ds.discard_coparam(d.bwd(mid)).rows[z]
                want = sum(
                    back[b] * inner(pi, b) for b in range(sy) if back[b] > 0
                )
                assert witness == pytest.approx(want, abs=1e-9)


class TestLaxators:
    def make_pair(self, rng, correlated):
        X, M, Y = spaces(2, 2, 2)
        X2, M2, Y2 = spaces(2, 2, 2)
        c = exact_lens(random_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, X2, M2, Y2))
        if correlated:
            omega = random_dist(rng, X.product(X2))
        else:
            omega = ds.tensor_dist(random_dist(rng, X), random_dist(rng, X2))
        return c, d, omega

    @pytest.mark.parametrize("model", [LossModel.KL, LossModel.MLE, LossModel.FE])
    def test_product_prior_vanishes(self, model):
        rng = rng_for(18)
        c, d, omega = self.make_pair(rng, correlated=False)
        for y in range(2):
            for y2 in range(2):
                assert laxator(model, c, d, omega, y, y2) == pytest.approx(
                    0.0, abs=1e-12
                )

    @pytest.mark.parametrize("model", [LossModel.KL, LossModel.MLE, LossModel.FE])
    def test_definitional_contract_discrete(self, model):
        rng = rng_for(19)
        for _ in range(10):
            c, d, omega = self.make_pair(rng, correlated=True)
            w1 = ds.marginal_dist(omega, [0])
            w2 = ds.marginal_dist(omega, [1])
            t = lens_tensor(c, d)
            Lt = loss_for(model, t)
            Lc = loss_for(model, c)
            Ld = loss_for(model, d)
            for y in range(2):
                for y2 in range(2):
                    joint_obs = y * 2 + y2
                    lhs = Lt(omega, joint_obs)
                    rhs = (
                        Lc(w1, y)
                        + Ld(w2, y2)
                        + laxator(model, c, d, omega, y, y2)
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_mle_laxator_matches_enumeration(self):
        rng = rng_for(20)
        c, d, omega = self.make_pair(rng, correlated=True)
        cr = c.fwd.rows.reshape(2, 2, 2)
        dr = d.fwd.rows.reshape(2, 2, 2)
        w = omega.mass.reshape(2, 2)
        w1, w2 = w.sum(axis=1), w.sum(axis=0)
        for y in range(2):
            for y2 in range(2):
                p_joint = sum(
                    cr[x, m, y] * dr[x2, m2, y2] * w[x, x2]
                    for x in range(2)
                    for x2 in range(2)
                    for m in range(2)
                    for m2 in range(2)
                )
                p_prod = sum(
                    cr[x, m, y] * dr[x2, m2, y2] * w1[x] * w2[x2]
                    for x in range(2)
                    for x2 in range(2)
                    for m in range(2)
                    for m2 in range(2)
                )
                want = math.log(p_prod) - math.log(p_joint)
                got = laxator(LossModel.MLE, c, d, omega, y, y2)
                assert got == pytest.approx(want, abs=1e-10)

    def test_fe_sum_relation_diagnostic(self):
        # the three defects satisfy fe = kl + mle by construction of the
        # models; record it here as a consistency check of the closed forms
        rng = rng_for(21)
        c, d, omega = self.make_pair(rng, correlated=True)
        for y in range(2):
            for y2 in range(2):
                lam_kl = laxator(LossModel.KL, c, d, omega, y, y2)
                lam_mle = laxator(LossModel.MLE, c, d, omega, y, y2)
                lam_fe = laxator(LossModel.FE, c, d, omega, y, y2)
                assert lam_fe == pytest.approx(lam_kl + lam_mle, abs=1e-10)

    def test_gaussian_lfe_contract(self):
        rng = rng_for(22)
        for _ in range(5):
            c = exact_lens(random_gauss_channel(rng, 1, 1, 1))
            d = exact_lens(random_gauss_channel(rng, 2, 1, 1))
            omega = random_gauss_state(rng, 3)  # generically correlated
            w1 = gs.g_marginal_state(omega, [0])
            w2 = gs.g_marginal_state(omega, [1, 2])
            t = lens_tensor(c, d)
            Lt = lfe_loss(t)
            y, y2 = rng.uniform(-1, 1, size=1), rng.uniform(-1, 1, size=1)
            lhs = Lt(omega, np.concatenate([y, y2]))
            rhs = (
                lfe_loss(c)(w1, y)
                + lfe_loss(d)(w2, y2)
                + laxator(LossModel.LFE, c, d, omega, y, y2)
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_correlation_defect_is_nonnegative_for_exact_lenses(self):
        # for exact component lenses the divergence defect IS the tensored
        # lens's divergence loss, hence nonnegative
        rng = rng_for(24)
        for _ in range(20):
            c, d, omega = self.make_pair(rng, correlated=True)
            for y in range(2):
                for y2 in range(2):
                    assert laxator(LossModel.KL, c, d, omega, y, y2) >= -1e-12

    def test_gaussian_product_prior_vanishes(self):
        rng = rng_for(23)
        c = exact_lens(random_gauss_channel(rng, 1, 1, 1))
        d = exact_lens(random_gauss_channel(rng, 1, 1, 1))
        omega = gs.g_tensor_state(
            random_gauss_state(rng, 1), random_gauss_state(rng, 1)
        )
        for model in (LossModel.KL, LossModel.MLE, LossModel.FE, LossModel.LFE):
            val = laxator(model, c, d, omega, [0.4], [-0.2])
            assert val == pytest.approx(0.0, abs=1e-10)


def degenerate_copar(rng, dom, copar, out, dead_output=False):
    """Random kernel with support gaps: about a third of the entries are
    zero, every row keeping at least one positive entry.  ``dead_output``
    also makes the last output unreachable."""
    r = rng.gamma(1.0, size=(dom.size, copar.size, out.size))
    r[rng.random(size=r.shape) < 0.35] = 0.0
    live = out.size - 1 if dead_output else out.size
    r[:, :, live:] = 0.0
    r[np.arange(dom.size), 0, rng.integers(0, live, size=dom.size)] += 1.0
    r = r.reshape(dom.size, -1)
    return ds.CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


def degenerate_dist(rng, s):
    m = rng.gamma(1.0, size=s.size)
    m[rng.random(size=s.size) < 0.35] = 0.0
    m[rng.integers(0, s.size)] += 1.0
    return ds.Dist(s, m / m.sum())


def assert_same_value(got, want):
    if math.isinf(want) or math.isnan(want):
        assert got == want or (math.isnan(got) and math.isnan(want))
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def assert_vector_matches_scalar(loss, pi):
    """``loss.values(pi)`` agrees with the scalar call everywhere it is
    defined, and the scalar call raises ``SupportError`` elsewhere."""
    vals, defined = loss.values(pi)
    assert vals.shape == defined.shape == (loss.obs_dom.size,)
    for y in range(loss.obs_dom.size):
        if defined[y]:
            assert_same_value(loss(pi, y), vals[y])
        else:
            with pytest.raises(SupportError):
                loss(pi, y)
    return vals, defined


def loop_compose(Ld, Lc, d, c, pi, z):
    """The composite loss at one observation by a loop of scalar calls."""
    mid = prior_pushforward(c.fwd)(pi)
    first = Ld(mid, z)
    weights = ds.discard_coparam(d.bwd(mid)).rows[z]
    total = 0.0
    for y, w in enumerate(weights):
        if w > 0:
            v = Lc(pi, y)
            if math.isinf(v):
                return math.inf
            total += w * v
    return first + total


DISCRETE_MODELS = [LossModel.KL, LossModel.MLE, LossModel.FE]


class TestVectorForm:
    def lenses(self, rng, X, M, Y):
        """Exact, perturbed and support-gapped lenses on the same spaces."""
        return [
            exact_lens(random_copar(rng, X, M, Y)),
            perturbed_lens(rng, random_copar(rng, X, M, Y)),
            exact_lens(degenerate_copar(rng, X, M, Y)),
            perturbed_lens(rng, degenerate_copar(rng, X, M, Y, dead_output=True)),
        ]

    @pytest.mark.parametrize("model", DISCRETE_MODELS)
    def test_models_match_scalar_calls(self, model):
        rng = rng_for(30)
        undefined = 0
        for _ in range(6):
            X, M, Y = spaces(*(int(v) for v in rng.integers(2, 5, size=3)))
            for lens in self.lenses(rng, X, M, Y):
                for pi in (random_dist(rng, X), degenerate_dist(rng, X)):
                    _, defined = assert_vector_matches_scalar(loss_for(model, lens), pi)
                    undefined += int((~defined).sum())
        if model is not LossModel.MLE:
            assert undefined > 0  # the gapped kernels do leave observations unsupported

    def test_mle_infinity_and_kl_support_error(self):
        fwd = ds.lift_kernel(ds.FiniteKernel(X2, Y2, [[1.0, 0.0], [1.0, 0.0]]))
        lens = exact_lens(fwd)
        pi = ds.uniform(X2)
        vals, defined = assert_vector_matches_scalar(mle_loss(lens), pi)
        assert vals[1] == math.inf and defined.all()
        for loss in (kl_loss(lens), fe_loss(lens)):
            _, defined = assert_vector_matches_scalar(loss, pi)
            assert defined.tolist() == [True, False]

    @pytest.mark.parametrize("model", DISCRETE_MODELS)
    def test_composites_match_loop_oracle(self, model):
        rng = rng_for(31)
        seen = {"finite": 0, "inf": 0, "undefined": 0}
        for _ in range(8):
            sx, sm, sy, sn, sz = (int(v) for v in rng.integers(2, 4, size=5))
            X, M, Y, N, Z = spaces(sx, sm, sy, sn, sz)
            for c, d in zip(self.lenses(rng, X, M, Y), self.lenses(rng, Y, N, Z)):
                Ld, Lc = loss_for(model, d), loss_for(model, c)
                comp = loss_compose(Ld, Lc, d, c)
                for pi in (random_dist(rng, X), degenerate_dist(rng, X)):
                    vals, defined = assert_vector_matches_scalar(comp, pi)
                    for z in range(sz):
                        if not defined[z]:
                            seen["undefined"] += 1
                            with pytest.raises(SupportError):
                                loop_compose(Ld, Lc, d, c, pi, z)
                            continue
                        want = loop_compose(Ld, Lc, d, c, pi, z)
                        seen["inf" if math.isinf(want) else "finite"] += 1
                        assert_same_value(vals[z], want)
        assert seen["finite"] > 0
        if model is not LossModel.MLE:
            assert seen["undefined"] > 0

    def test_nested_composites_match_loop_oracle(self):
        rng = rng_for(32)
        X, M, Y, N, Z, P, W = spaces(3, 2, 3, 2, 3, 2, 2)
        c = perturbed_lens(rng, degenerate_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        e = perturbed_lens(rng, random_copar(rng, Z, P, W))
        dc = lens_compose(d, c)
        inner = loss_compose(fe_loss(d), fe_loss(c), d, c)
        outer = loss_compose(fe_loss(e), inner, e, dc)
        pi = random_dist(rng, X)
        vals, _ = assert_vector_matches_scalar(outer, pi)
        for w in range(2):
            assert_same_value(vals[w], loop_compose(fe_loss(e), inner, e, dc, pi, w))

    def test_loss_from_fn_alone_composes(self):
        rng = rng_for(33)
        X, M, Y, N, Z = spaces(3, 2, 3, 2, 3)
        c = perturbed_lens(rng, degenerate_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        for model in DISCRETE_MODELS:
            Lc = loss_for(model, c)
            bare = loss_module.LossFn(Lc.fn, Lc.prior_dom, Lc.obs_dom, "discrete")
            assert bare.vec is None
            pi = degenerate_dist(rng, X)
            assert_vector_matches_scalar(bare, pi)
            with_vec = loss_compose(loss_for(model, d), Lc, d, c)
            tabulated = loss_compose(loss_for(model, d), bare, d, c)
            want, want_defined = with_vec.values(pi)
            got, got_defined = assert_vector_matches_scalar(tabulated, pi)
            assert got_defined.tolist() == want_defined.tolist()
            for z in np.nonzero(got_defined)[0]:
                assert_same_value(got[z], want[z])

    def test_reindex_and_vertical_composite_carry_the_vector_form(self):
        rng = rng_for(34)
        X, M, Y, N, Z = spaces(3, 2, 3, 2, 3)
        c = exact_lens(random_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        pi = random_dist(rng, X)
        reindexed = mle_loss(d).reindex(c.fwd)
        assert reindexed.vec is not None
        assert_vector_matches_scalar(reindexed, pi)
        game = Game(lens=c, loss=mle_loss(c))
        w = TwoCellWitness(game, game, zero_loss(c))
        summed = game_vcompose(w, w).K
        assert summed.vec is not None
        vals, defined = assert_vector_matches_scalar(summed, pi)
        assert defined.all() and not vals.any()

    def test_gaussian_losses_have_no_vector_form(self):
        lens = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
        with pytest.raises(InstanceError):
            mle_loss(lens).values(gs.GaussState([0.0], [[1.0]]))


class TestLaxatorVectorForm:
    @pytest.mark.parametrize("model", DISCRETE_MODELS)
    def test_matches_scalar_laxator(self, model):
        rng = rng_for(35)
        for _ in range(8):
            X, M, Y, U, V, W = spaces(*(int(v) for v in rng.integers(2, 4, size=6)))
            c = exact_lens(degenerate_copar(rng, X, M, Y))
            d = perturbed_lens(rng, random_copar(rng, U, V, W))
            for omega in (random_dist(rng, X.product(U)), degenerate_dist(rng, X.product(U))):
                vals = loss_module.laxator_values(model, c, d, omega)
                assert vals.shape == (Y.size * W.size,)
                for y in range(Y.size):
                    for y2 in range(W.size):
                        want = laxator(model, c, d, omega, y, y2)
                        assert_same_value(vals[y * W.size + y2], want)

    def test_gaussian_and_laplace_rejected(self):
        c = exact_lens(gs.GaussChannel([[1.0]], [0.0], [[1.0]]))
        omega = gs.GaussState([0.0, 0.0], np.eye(2))
        with pytest.raises(InstanceError):
            loss_module.laxator_values(LossModel.KL, c, c, omega)
        lens = exact_lens(ds.identity_kernel(X2))
        with pytest.raises(InstanceError):
            loss_module.laxator_values(LossModel.LFE, lens, lens, ds.uniform(X2.product(X2)))


class TestFoldedDepth:
    def chain(self, rng, depth):
        sp = [ds.space([f"s{i}_{k}" for k in range(2)]) for i in range(depth + 1)]
        copar = ds.space(["m0", "m1"])
        return [exact_lens(random_copar(rng, sp[i], copar, sp[i + 1])) for i in range(depth)]

    def folded_kl(self, stages):
        folded, before = kl_loss(stages[0]), stages[0]
        for stage in stages[1:]:
            folded = loss_compose(kl_loss(stage), folded, stage, before)
            before = lens_compose(stage, before)
        return folded, before

    def test_inversions_grow_linearly_with_depth(self, monkeypatch):
        # the folded loss evaluates each stage's loss once per prior; a
        # per-observation expectation re-evaluates the inner stages for
        # every intermediate observation, exponentially in depth
        counted = {"n": 0}
        invert = ds.bayes_invert

        def counting(f, pi):
            counted["n"] += 1
            return invert(f, pi)

        monkeypatch.setattr(ds, "bayes_invert", counting)
        rng = rng_for(36)
        calls = {}
        for depth in (3, 6):
            stages = self.chain(rng, depth)
            folded, composite = self.folded_kl(stages)
            pi = random_dist(rng, stages[0].fwd.dom)
            counted["n"] = 0
            value = folded(pi, 1)
            calls[depth] = counted["n"]
            assert value == pytest.approx(kl_loss(composite)(pi, 1), abs=1e-9)
        assert calls[6] <= 3 * 6
        assert calls[6] - calls[3] <= 3 * (6 - 3)
