"""Tests for the affine-Gaussian instance.

Closed forms are checked against hand algebra, block-matrix oracles
assembled independently in the tests, Monte-Carlo estimates, and plain
quadrature.
"""

import math
from math import inf, nan

import numpy as np
import pytest

from statgames.backend import GAUSSIAN
from statgames.errors import ShapeError, SingularityError
from statgames.gaussian import (
    GaussChannel,
    GaussState,
    g_apply,
    g_compose,
    g_copy_compose,
    g_discard_coparam,
    g_entropy,
    g_identity,
    g_invert,
    g_kl,
    g_logpdf,
    g_marginal_state,
    g_push,
    g_tensor_channel,
    g_tensor_state,
    gauss_expect_quadratic,
    gauss_hermite_expect,
)
from statgames.lens import exact_lens, identity_lens
from statgames.loss import LossModel, fe_joint_form, loss_for, zero_loss


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed]))


def random_state(rng, dim):
    mean = rng.uniform(-2, 2, size=dim)
    l = rng.uniform(-1, 1, size=(dim, dim))
    return GaussState(mean, l @ l.T + 1e-3 * np.eye(dim))


def logpdf_rows(s, xs):
    """Normal log-density at each row of ``xs``: a vectorised oracle that
    shares no code with ``g_logpdf``."""
    _, logdet = np.linalg.slogdet(s.cov)
    dev = xs - s.mean
    quad = np.einsum("ij,ji->i", dev, np.linalg.solve(s.cov, dev.T))
    return -0.5 * (s.dim * math.log(2 * math.pi) + logdet + quad)


def random_channel(rng, dom, cod, copar_dim=0):
    A = rng.uniform(-2, 2, size=(cod, dom))
    b = rng.uniform(-1, 1, size=cod)
    l = rng.uniform(-1, 1, size=(cod, cod))
    return GaussChannel(A, b, l @ l.T + 1e-6 * np.eye(cod), copar_dim=copar_dim)


class TestPush:
    def test_identity(self):
        s = GaussState([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        out = g_push(g_identity(2), s)
        assert np.allclose(out.mean, s.mean)
        assert np.allclose(out.cov, s.cov)

    def test_constant_channel(self):
        c = GaussChannel([[0.0]], [3.0], [[0.25]])
        for mean in (-5.0, 0.0, 7.0):
            out = g_push(c, GaussState([mean], [[4.0]]))
            assert out.mean[0] == pytest.approx(3.0)
            assert out.cov[0, 0] == pytest.approx(0.25)

    def test_scalar_affine(self):
        # A=2, b=1, noise=0.5 applied to N(0,1): N(1, 4.5)
        c = GaussChannel([[2.0]], [1.0], [[0.5]])
        out = g_push(c, GaussState([0.0], [[1.0]]))
        assert out.mean[0] == pytest.approx(1.0)
        assert out.cov[0, 0] == pytest.approx(4.5)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            g_push(g_identity(2), GaussState([0.0], [[1.0]]))


class TestCopyCompose:
    def test_identity_second_leg_duplicates_output(self):
        rng = rng_for(1)
        c = random_channel(rng, 2, 2)
        d = g_identity(2)
        joint = g_copy_compose(d, c)
        prior = random_state(rng, 2)
        out = g_push(joint, prior)
        pushed = g_push(c, prior)
        # blocks: (B, C) with C a perfect copy of B
        assert np.allclose(out.cov[:2, :2], pushed.cov)
        assert np.allclose(out.cov[:2, 2:], pushed.cov)
        assert np.allclose(out.cov[2:, 2:], pushed.cov)

    def test_scalar_chain_joint_cov(self):
        # c: N(x, 1), d: N(2b, 1); from x = 0: cov [[1, 2], [2, 5]]
        c = GaussChannel([[1.0]], [0.0], [[1.0]])
        d = GaussChannel([[2.0]], [0.0], [[1.0]])
        joint = g_push(g_copy_compose(d, c), GaussState([0.0], [[0.0]]))
        assert np.allclose(joint.cov, [[1.0, 2.0], [2.0, 5.0]], atol=1e-12)
        assert np.allclose(joint.mean, [0.0, 0.0])

    def test_marginalizing_recovers_composition(self):
        rng = rng_for(2)
        for _ in range(50):
            dims = rng.integers(1, 5, size=3)
            dx, db, dz = (int(v) for v in dims)
            c = random_channel(rng, dx, db)
            d = random_channel(rng, db, dz)
            via_joint = g_discard_coparam(g_copy_compose(d, c))
            direct = g_compose(d, c)
            assert np.allclose(via_joint.A, direct.A, atol=1e-10)
            assert np.allclose(via_joint.b, direct.b, atol=1e-10)
            assert np.allclose(via_joint.noise, direct.noise, atol=1e-10)


class TestInvert:
    def test_scalar_conjugate(self):
        # prior N(0,1), likelihood N(x,1): posterior N(y/2, 1/2)
        c = GaussChannel([[1.0]], [0.0], [[1.0]])
        back = g_invert(c, GaussState([0.0], [[1.0]]))
        assert back.A[0, 0] == pytest.approx(0.5)
        assert back.b[0] == pytest.approx(0.0)
        assert back.noise[0, 0] == pytest.approx(0.5)

    def test_noiseless_identity_is_singular(self):
        with pytest.raises(SingularityError):
            g_invert(g_identity(2), GaussState([0.0, 0.0], np.zeros((2, 2))))

    def test_ridge_regularized_identity(self):
        eps = 1e-4
        c = GaussChannel(np.eye(1), [0.0], [[eps]])
        back = g_invert(c, GaussState([0.0], [[1.0]]))
        assert back.A[0, 0] == pytest.approx(1.0 / (1.0 + eps))
        assert back.noise[0, 0] == pytest.approx(eps / (1.0 + eps), rel=1e-9)

    def test_joint_reconstruction_identity(self):
        rng = rng_for(3)
        for _ in range(40):
            dx, dm, dy = (int(v) for v in rng.integers(1, 4, size=3))
            c = random_channel(rng, dx, dm + dy, copar_dim=dm)
            prior = random_state(rng, dx)
            back = g_invert(c, prior)
            # oracle: joint over (z, y), z = (x, m), by block algebra
            mean_cod = c.A @ prior.mean + c.b
            cov_cod = c.A @ prior.cov @ c.A.T + c.noise
            cov_x_cod = prior.cov @ c.A.T
            mean_fwd = np.concatenate(
                [prior.mean, mean_cod[:dm], mean_cod[dm:]]
            )
            top = np.hstack([prior.cov, cov_x_cod[:, :dm], cov_x_cod[:, dm:]])
            mid = np.hstack(
                [cov_x_cod[:, :dm].T, cov_cod[:dm, :dm], cov_cod[:dm, dm:]]
            )
            bot = np.hstack(
                [cov_x_cod[:, dm:].T, cov_cod[dm:, :dm], cov_cod[dm:, dm:]]
            )
            cov_fwd = np.vstack([top, mid, bot])
            # joint from (pushforward, backward)
            mean_y = mean_cod[dm:]
            cov_yy = cov_cod[dm:, dm:]
            mean_z = back.A @ mean_y + back.b
            cov_zz = back.A @ cov_yy @ back.A.T + back.noise
            cov_zy = back.A @ cov_yy
            mean_bwd = np.concatenate([mean_z, mean_y])
            cov_bwd = np.block([[cov_zz, cov_zy], [cov_zy.T, cov_yy]])
            assert np.allclose(mean_fwd, mean_bwd, atol=1e-9)
            assert np.allclose(cov_fwd, cov_bwd, atol=1e-9)


class TestKL:
    def test_self_divergence_zero(self):
        rng = rng_for(4)
        s = random_state(rng, 3)
        assert g_kl(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift(self):
        p = GaussState([1.0], [[1.0]])
        q = GaussState([0.0], [[1.0]])
        assert g_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative(self):
        rng = rng_for(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            assert g_kl(random_state(rng, d), random_state(rng, d)) >= 0.0

    def test_against_monte_carlo(self):
        rng = rng_for(6)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            p, q = random_state(rng, d), random_state(rng, d)
            closed = g_kl(p, q)
            n = 100_000
            xs = rng.multivariate_normal(p.mean, p.cov, size=n)
            logr = logpdf_rows(p, xs) - logpdf_rows(q, xs)
            se = logr.std() / math.sqrt(n)
            assert abs(closed - logr.mean()) < 3 * se + 1e-12

    def test_singular_q_raises(self):
        p = GaussState([0.0], [[1.0]])
        q = GaussState([0.0], [[0.0]])
        with pytest.raises(SingularityError):
            g_kl(p, q)

    def test_singular_p_is_infinite(self):
        p = GaussState([0.0], [[0.0]])
        q = GaussState([0.0], [[1.0]])
        assert g_kl(p, q) == math.inf


class TestEntropyAndDensity:
    def test_standard_normal_entropy(self):
        s = GaussState([0.0], [[1.0]])
        assert g_entropy(s) == pytest.approx(0.5 * math.log(2 * math.pi * math.e))

    def test_scaling_law(self):
        s1 = GaussState([0.0], [[1.0]])
        s4 = GaussState([0.0], [[4.0]])
        assert g_entropy(s4) - g_entropy(s1) == pytest.approx(math.log(2.0))

    def test_additivity_for_block_diagonal(self):
        rng = rng_for(7)
        s1, s2 = random_state(rng, 2), random_state(rng, 3)
        joint = g_tensor_state(s1, s2)
        assert g_entropy(joint) == pytest.approx(
            g_entropy(s1) + g_entropy(s2), abs=1e-10
        )

    def test_standard_normal_logpdf_at_zero(self):
        s = GaussState([0.0], [[1.0]])
        assert g_logpdf(s, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_mode_value(self):
        rng = rng_for(8)
        s = random_state(rng, 3)
        sign, logdet = np.linalg.slogdet(2 * math.pi * s.cov)
        assert g_logpdf(s, s.mean) == pytest.approx(-0.5 * logdet)

    def test_logpdf_matches_vectorised_oracle(self):
        rng = rng_for(9)
        for d in (1, 2, 3):
            s = random_state(rng, d)
            xs = rng.multivariate_normal(s.mean, s.cov, size=50)
            want = logpdf_rows(s, xs)
            for x, w in zip(xs, want):
                assert g_logpdf(s, x) == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_density_integrates_to_one(self):
        s = GaussState([0.3], [[0.7]])
        xs = np.linspace(-12, 12, 200_001)
        log_pdf = logpdf_rows(s, xs[:, None])
        # the scalar density agrees with the vectorised one across the grid
        for i in range(0, xs.size, 4_000):
            assert g_logpdf(s, [xs[i]]) == pytest.approx(log_pdf[i], rel=1e-12, abs=1e-12)
        total = np.trapezoid(np.exp(log_pdf), xs)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ShapeError):
            GaussState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_tiny_negative_eigenvalue_clamped(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
        s = GaussState([0.0, 0.0], cov)
        assert np.linalg.eigvalsh(s.cov)[0] >= 0

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(ShapeError):
            GaussState([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize(
        "mean, cov, field",
        [
            ([nan], [[1.0]], "mean"),
            ([0.0, -inf], np.eye(2), "mean"),
            ([0.0], [[nan]], "covariance"),
            ([0.0], [[inf]], "covariance"),
            ([0.0, 0.0], [[1.0, nan], [nan, 1.0]], "covariance"),
            ([0.0, 0.0], [[1.0, 0.0], [0.0, nan]], "covariance"),
            ([0.0, 0.0], [[inf, 0.0], [0.0, 1.0]], "covariance"),
        ],
    )
    def test_non_finite_state_rejected(self, mean, cov, field):
        with pytest.raises(ShapeError, match=f"{field} must hold finite numbers"):
            GaussState(mean, cov)

    @pytest.mark.parametrize(
        "A, b, noise, field",
        [
            ([[nan]], [0.0], [[1.0]], "A"),
            ([[1.0], [-inf]], [0.0, 0.0], np.eye(2), "A"),
            ([[1.0]], [inf], [[1.0]], "b"),
            ([[1.0]], [nan], [[1.0]], "b"),
            ([[1.0]], [0.0], [[nan]], "channel noise"),
            ([[1.0], [1.0]], [0.0, 0.0], [[1.0, 0.0], [0.0, inf]], "channel noise"),
        ],
    )
    def test_non_finite_channel_rejected(self, A, b, noise, field):
        with pytest.raises(ShapeError, match=f"{field} must hold finite numbers"):
            GaussChannel(A, b, noise)

    @pytest.mark.parametrize(
        "copar_dim, words",
        [
            (1.0, "copar_dim must be an integer, not 1.0"),
            (0.5, "copar_dim must be an integer, not 0.5"),
            (True, "copar_dim must be an integer, not True"),
            ("x", "copar_dim must be an integer, not 'x'"),
            (-1, "copar_dim must be >= 0, not -1"),
        ],
    )
    def test_copar_dim_is_an_integer_in_the_codomain(self, copar_dim, words):
        with pytest.raises(ShapeError) as caught:
            GaussChannel(np.eye(2), np.zeros(2), np.eye(2), copar_dim=copar_dim)
        assert str(caught.value) == words

    def test_a_numpy_integer_copar_dim_is_accepted(self):
        ch = GaussChannel(np.eye(2), np.zeros(2), np.eye(2), copar_dim=np.int64(1))
        assert (ch.copar_dim, ch.out_dim) == (1, 1)


class TestTensor:
    def test_tensor_groups_blocks(self):
        rng = rng_for(9)
        c1 = random_channel(rng, 2, 3, copar_dim=1)
        c2 = random_channel(rng, 1, 2, copar_dim=1)
        t = g_tensor_channel(c1, c2)
        assert t.copar_dim == 2 and t.out_dim == 3
        s1, s2 = random_state(rng, 2), random_state(rng, 1)
        pushed = g_push(t, g_tensor_state(s1, s2))
        p1, p2 = g_push(c1, s1), g_push(c2, s2)
        # copar blocks: (m1, m2), out blocks: (y1, y2)
        m1 = g_marginal_state(pushed, [0])
        m2 = g_marginal_state(pushed, [1])
        y1 = g_marginal_state(pushed, [2, 3])
        y2 = g_marginal_state(pushed, [4])
        assert np.allclose(m1.cov, p1.cov[:1, :1])
        assert np.allclose(m2.cov, p2.cov[:1, :1])
        assert np.allclose(y1.cov, p1.cov[1:, 1:])
        assert np.allclose(y2.cov, p2.cov[1:, 1:])


class TestExpectations:
    def test_quadratic_identity_against_monte_carlo(self):
        rng = rng_for(10)
        s = random_state(rng, 3)
        h = rng.uniform(-1, 1, size=(3, 3))
        h = h + h.T
        g = rng.uniform(-1, 1, size=3)

        def phi(x):
            return float(0.5 * x @ h @ x + g @ x + 1.7)

        closed = gauss_expect_quadratic(phi(s.mean), h, s.cov)
        xs = rng.multivariate_normal(s.mean, s.cov, size=200_000)
        vals = 0.5 * np.einsum("ni,ij,nj->n", xs, h, xs) + xs @ g + 1.7
        se = vals.std() / math.sqrt(len(vals))
        assert abs(closed - vals.mean()) < 4 * se + 1e-10

    def test_gauss_hermite_exact_on_quadratics(self):
        rng = rng_for(11)
        s = random_state(rng, 2)
        h = rng.uniform(-1, 1, size=(2, 2))
        h = h + h.T
        g = rng.uniform(-1, 1, size=2)

        def phi(x):
            return float(0.5 * x @ h @ x + g @ x - 0.4)

        quad = gauss_hermite_expect(s, phi)
        closed = gauss_expect_quadratic(phi(s.mean), h, s.cov)
        assert quad == pytest.approx(closed, abs=1e-12)

    def test_gauss_hermite_handles_point_mass(self):
        s = GaussState([2.0], [[0.0]])
        assert gauss_hermite_expect(s, lambda x: float(x[0] ** 2)) == pytest.approx(4.0)


class TestApply:
    def test_conditional_at_point(self):
        c = GaussChannel([[2.0]], [1.0], [[0.5]])
        out = g_apply(c, [3.0])
        assert out.mean[0] == pytest.approx(7.0)
        assert out.cov[0, 0] == pytest.approx(0.5)


class TestStacks:
    """A stack of states (means ``(P, d)``, covariances ``(P, d, d)``) is
    taken by ``g_kl`` as its first argument and refused everywhere else."""

    def stack(self):
        return GaussState([[0.0, 1.0], [0.5, -1.0]], [np.eye(2), 2.0 * np.eye(2)])

    def test_g_kl_gives_each_entry(self):
        q = GaussState([0.0, 0.0], np.eye(2))
        s = self.stack()
        got = g_kl(s, q)
        assert got.shape == (2,)
        for i in range(2):
            assert got[i] == g_kl(GaussState(s.mean[i], s.cov[i]), q)

    def test_a_singular_entry_is_infinite_on_its_own(self):
        q = GaussState([0.0], [[1.0]])
        got = g_kl(GaussState([[1.0], [0.0], [2.0]], [[[1.0]], [[0.0]], [[0.5]]]), q)
        assert got[1] == inf and np.isfinite(got[[0, 2]]).all()

    @pytest.mark.parametrize(
        "mean, cov, message",
        [
            ([[0.0], [nan]], [[[1.0]], [[1.0]]], r"mean of stack entry \(1,\) must hold finite"),
            ([[0.0], [0.0]], [[[1.0]], [[-1.0]]], r"covariance of stack entry \(1,\) has eigenvalue"),
            ([[0.0, 0.0]] * 2, [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]], r"stack entry \(1,\) is not symmetric"),
            ([[0.0, 0.0]] * 2, [[[1.0, 2.0], [2.0, 1.0]], np.eye(2)], r"stack entry \(0,\) has eigenvalue"),
            ([[0.0], [0.0]], [[1.0]], "covariances"),
            ([[0.0], [0.0]], [[[1.0]]], "covariances"),
            (np.zeros((0, 1)), np.zeros((0, 1, 1)), "P > 0"),
            ([0.0], [[[1.0]]], "covariance is not a square matrix"),
        ],
    )
    def test_malformed_stacks_rejected(self, mean, cov, message):
        with pytest.raises(ShapeError, match=message):
            GaussState(mean, cov)

    def test_a_stacked_noise_is_rejected(self):
        with pytest.raises(ShapeError, match="not a square matrix"):
            GaussChannel([[1.0]], [0.0], [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: g_apply(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)), s.mean),
            lambda s: g_push(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)), s),
            lambda s: g_invert(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)), s),
            lambda s: exact_lens(GaussChannel(np.eye(2), np.zeros(2), np.eye(2))).bwd(s),
            lambda s: identity_lens(2).bwd(s),
            lambda s: g_entropy(s),
            lambda s: g_logpdf(s, [0.0, 0.0]),
            lambda s: g_tensor_state(s, GaussState([0.0], [[1.0]])),
            lambda s: g_tensor_state(GaussState([0.0], [[1.0]]), s),
            lambda s: g_marginal_state(s, [0]),
            lambda s: gauss_hermite_expect(s, lambda x: 0.0),
            lambda s: g_kl(GaussState([0.0, 0.0], np.eye(2)), s),
            lambda s: GAUSSIAN.content_key(s),
            lambda s: GAUSSIAN.state_to_obj(s),
            *(
                lambda s, m=m: loss_for(m, exact_lens(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)))).form(s)
                for m in LossModel
            ),
            lambda s: zero_loss(exact_lens(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)))).form(s),
            lambda s: fe_joint_form(exact_lens(GaussChannel(np.eye(2), np.zeros(2), np.eye(2)))).form(s),
        ],
    )
    def test_operations_without_stacks_refuse_one(self, call):
        with pytest.raises(ShapeError, match="takes a single state|not a point"):
            call(self.stack())
