"""Tests for lens composition, tensoring, reindexing, and the
compositionality residual."""

import dataclasses

import numpy as np
import pytest

from statgames import discrete as ds
from statgames import gaussian as gs
from statgames.errors import ShapeError
from statgames.lens import (
    BayesLens,
    buco_residual,
    exact_inversion,
    exact_lens,
    identity_lens,
    lens_compose,
    lens_tensor,
    prior_pushforward,
    reindex,
)


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed]))


def random_dist(rng, s):
    m = rng.gamma(1.0, size=s.size) + 0.05
    return ds.Dist(s, m / m.sum())


def random_copar(rng, dom, copar, out):
    r = rng.gamma(1.0, size=(dom.size, copar.size * out.size)) + 0.05
    return ds.CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


def random_gauss_state(rng, dim):
    mean = rng.uniform(-1, 1, size=dim)
    l = rng.uniform(-1, 1, size=(dim, dim))
    return gs.GaussState(mean, l @ l.T + 0.1 * np.eye(dim))


def random_gauss_channel(rng, dom, copar, out):
    cod = copar + out
    A = rng.uniform(-2, 2, size=(cod, dom))
    b = rng.uniform(-1, 1, size=cod)
    l = rng.uniform(-1, 1, size=(cod, cod))
    return gs.GaussChannel(A, b, l @ l.T + 1e-3 * np.eye(cod), copar_dim=copar)


def spaces(*sizes):
    return tuple(
        ds.space([f"s{j}_{i}" for i in range(n)]) for j, n in enumerate(sizes)
    )


class TestExactLens:
    def test_identity_inverts_to_identity(self):
        (X,) = spaces(3)
        lens = identity_lens(X)
        back = lens.bwd(random_dist(rng_for(0), X))
        assert np.allclose(ds.discard_coparam(back).rows, np.eye(3))

    def test_backward_satisfies_joint_identity(self):
        rng = rng_for(1)
        X, M, Y = spaces(3, 2, 3)
        fwd = random_copar(rng, X, M, Y)
        lens = exact_lens(fwd)
        pi = random_dist(rng, X)
        back = lens.bwd(pi)
        evidence = prior_pushforward(fwd)(pi)
        fr = fwd.rows.reshape(3, 2, 3)
        br = back.rows.reshape(3, 3, 2)
        for y in range(3):
            for x in range(3):
                for m in range(2):
                    assert br[y, x, m] * evidence.mass[y] == pytest.approx(
                        fr[x, m, y] * pi.mass[x], abs=1e-12
                    )

    def test_gaussian_scalar_conjugate(self):
        fwd = gs.GaussChannel([[1.0]], [0.0], [[1.0]])
        lens = exact_lens(fwd)
        back = lens.bwd(gs.GaussState([0.0], [[1.0]]))
        assert back.A[0, 0] == pytest.approx(0.5)
        assert back.noise[0, 0] == pytest.approx(0.5)

    def test_section_law(self):
        # the forward of an exact lens is the channel itself, exactly
        rng = rng_for(2)
        X, M, Y = spaces(3, 2, 2)
        fwd = random_copar(rng, X, M, Y)
        assert exact_lens(fwd).fwd is fwd

    def test_plain_kernel_is_lifted(self):
        rng = rng_for(3)
        X, Y = spaces(2, 2)
        k = ds.FiniteKernel(X, Y, random_copar(rng, X, ds.unit_space(), Y).rows)
        lens = exact_lens(k)
        assert lens.fwd.copar.size == 1
        assert np.allclose(ds.discard_coparam(lens.fwd).rows, k.rows)

    def test_exactness_is_the_remembered_inversion_as_family(self):
        rng = rng_for(4)
        X, M, Y = spaces(3, 2, 3)
        lens = exact_lens(random_copar(rng, X, M, Y))
        assert lens.exact and lens.bwd is lens.inverse
        assert identity_lens(X).exact
        assert exact_lens(random_gauss_channel(rng, 2, 1, 2)).exact
        # the inversion is the forward's: handed it on that forward, a lens
        # is exact; on another forward, or handed any other family, it is not
        assert dataclasses.replace(lens).exact and BayesLens(lens.fwd, lens.bwd).exact
        elsewhere = random_copar(rng, X, M, Y)
        assert not dataclasses.replace(lens, fwd=elsewhere).exact
        assert not BayesLens(elsewhere, lens.bwd).exact
        assert not lens_compose(exact_lens(random_copar(rng, Y, M, X)), lens).exact
        # a lens that is not exact reads its forward's inversion
        other = BayesLens(lens.fwd, lens.bwd.fn)
        assert not other.exact
        pi = random_dist(rng, X)
        assert other.inverse(pi) is lens.bwd(pi)
        assert np.array_equal(other.inverse(pi).rows, exact_inversion(lens.fwd, pi).rows)


class TestLensCompose:
    def test_buco_discrete(self):
        rng = rng_for(4)
        for _ in range(50):
            sx, sm, sy, sn, sz = (int(v) for v in rng.integers(1, 5, size=5))
            X, M, Y, N, Z = spaces(sx, sm, sy, sn, sz)
            c = exact_lens(random_copar(rng, X, M, Y))
            d = exact_lens(random_copar(rng, Y, N, Z))
            pi = random_dist(rng, X)
            assert buco_residual(c, d, pi) < 1e-9

    def test_buco_gaussian(self):
        rng = rng_for(5)
        for _ in range(30):
            dx, dm, dy, dn, dz = (int(v) for v in rng.integers(1, 3, size=5))
            c = exact_lens(random_gauss_channel(rng, dx, dm, dy))
            d = exact_lens(random_gauss_channel(rng, dy, dn, dz))
            pi = random_gauss_state(rng, dx)
            assert buco_residual(c, d, pi) < 1e-8

    def test_identity_lenses_have_zero_residual(self):
        (X,) = spaces(4)
        lens = identity_lens(X)
        assert buco_residual(lens, lens, random_dist(rng_for(6), X)) < 1e-12

    def test_weak_unitality(self):
        # composing with the identity retains a redundant copy of the
        # intermediate (the identity's unit coparameter adds no factor);
        # marginalizing it recovers the original lens exactly
        rng = rng_for(7)
        X, M, Y = spaces(3, 2, 3)
        c = exact_lens(random_copar(rng, X, M, Y))
        comp = lens_compose(identity_lens(Y), c)
        assert comp.fwd.copar.factor_sizes == (2, 3)
        r = comp.fwd.rows.reshape(3, 2, 3, 3)
        marg = r.sum(axis=2)  # drop the retained copy of Y
        assert np.allclose(marg, c.fwd.rows.reshape(3, 2, 3), atol=1e-12)
        # the retained copy is a genuine copy: off-diagonal entries vanish
        for x in range(3):
            for m in range(2):
                for y in range(3):
                    for y2 in range(3):
                        if y != y2:
                            assert r[x, m, y, y2] == pytest.approx(0.0, abs=1e-15)

    def test_associativity_pointwise(self):
        rng = rng_for(8)
        for _ in range(10):
            sizes = [int(v) for v in rng.integers(1, 4, size=7)]
            X, M1, Y, M2, Z, M3, W = spaces(*sizes)
            f = exact_lens(random_copar(rng, X, M1, Y))
            g = exact_lens(random_copar(rng, Y, M2, Z))
            h = exact_lens(random_copar(rng, Z, M3, W))
            pi = random_dist(rng, X)
            left = lens_compose(h, lens_compose(g, f))
            right = lens_compose(lens_compose(h, g), f)
            assert np.allclose(left.fwd.rows, right.fwd.rows, atol=1e-12)
            assert np.allclose(
                left.bwd(pi).rows, right.bwd(pi).rows, atol=1e-12
            )

    def test_tag_mismatch_rejected(self):
        (X,) = spaces(2)
        with pytest.raises(ShapeError):
            lens_compose(identity_lens(1), identity_lens(X))


class TestLensTensor:
    def test_identity_tensor_is_identity(self):
        X, Y = spaces(2, 3)
        t = lens_tensor(identity_lens(X), identity_lens(Y))
        rng = rng_for(9)
        omega = random_dist(rng, X.product(Y))
        assert np.allclose(
            ds.discard_coparam(t.bwd(omega)).rows, np.eye(6), atol=1e-12
        )

    def test_exact_at_product_priors(self):
        rng = rng_for(10)
        X, M, Y = spaces(3, 2, 3)
        X2, M2, Y2 = spaces(2, 2, 2)
        l1 = exact_lens(random_copar(rng, X, M, Y))
        l2 = exact_lens(random_copar(rng, X2, M2, Y2))
        t = lens_tensor(l1, l2)
        w1, w2 = random_dist(rng, X), random_dist(rng, X2)
        omega = ds.tensor_dist(w1, w2)
        via_tensor = t.bwd(omega)
        direct = exact_inversion(t.fwd, omega)
        assert np.allclose(via_tensor.rows, direct.rows, atol=1e-10)

    def test_not_exact_at_correlated_priors(self):
        rng = rng_for(11)
        X, M, Y = spaces(2, 2, 2)
        X2, M2, Y2 = spaces(2, 2, 2)
        l1 = exact_lens(random_copar(rng, X, M, Y))
        l2 = exact_lens(random_copar(rng, X2, M2, Y2))
        t = lens_tensor(l1, l2)
        omega = random_dist(rng, X.product(X2))  # generically correlated
        via_tensor = t.bwd(omega)
        direct = exact_inversion(t.fwd, omega)
        assert np.max(np.abs(via_tensor.rows - direct.rows)) > 1e-4

    def test_gaussian_tensor_exact_at_product_priors(self):
        rng = rng_for(12)
        l1 = exact_lens(random_gauss_channel(rng, 2, 1, 2))
        l2 = exact_lens(random_gauss_channel(rng, 1, 1, 1))
        t = lens_tensor(l1, l2)
        omega = gs.g_tensor_state(
            random_gauss_state(rng, 2), random_gauss_state(rng, 1)
        )
        via_tensor = t.bwd(omega)
        direct = exact_inversion(t.fwd, omega)
        assert np.allclose(via_tensor.A, direct.A, atol=1e-8)
        assert np.allclose(via_tensor.b, direct.b, atol=1e-8)
        assert np.allclose(via_tensor.noise, direct.noise, atol=1e-8)


class TestReindex:
    def test_identity_is_noop(self):
        rng = rng_for(13)
        (X,) = spaces(3)
        seen = []
        fam = lambda pi: seen.append(pi) or pi.mass.copy()
        pi = random_dist(rng, X)
        out = reindex(fam, ds.identity_kernel(X))(pi)
        assert np.allclose(out, pi.mass, atol=1e-15)

    def test_contravariant_functoriality(self):
        rng = rng_for(14)
        X, M, Y, N, Z = spaces(3, 2, 3, 2, 3)
        c = random_copar(rng, X, M, Y)
        d = random_copar(rng, Y, N, Z)
        fam = lambda pi: pi.mass.copy()
        comp = ds.copy_compose_copar(d, c)
        pi = random_dist(rng, X)
        once = reindex(fam, comp)(pi)
        twice = reindex(reindex(fam, d), c)(pi)
        assert np.allclose(once, twice, atol=1e-12)

    def test_constant_family_unchanged(self):
        rng = rng_for(15)
        X, M, Y = spaces(2, 2, 2)
        c = random_copar(rng, X, M, Y)
        fam = lambda pi: 42.0
        assert reindex(fam, c)(random_dist(rng, X)) == 42.0


class TestStackedPriors:
    def test_library_families_return_each_priors_channel(self):
        rng = rng_for(60)
        X, M, Y, N, Z, U = spaces(3, 2, 3, 2, 2, 2)
        c = exact_lens(random_copar(rng, X, M, Y))
        d = exact_lens(random_copar(rng, Y, N, Z))
        e = exact_lens(random_copar(rng, U, N, Z))
        for lens, dom in ((c, X), (identity_lens(X), X), (lens_compose(d, c), X), (lens_tensor(c, e), X.product(U))):
            priors = [random_dist(rng, dom) for _ in range(4)]
            back = lens.bwd(ds.Dist(dom, np.stack([p.mass for p in priors])))
            for i, pi in enumerate(priors):
                assert np.array_equal(back.rows[i], lens.bwd(pi).rows)
