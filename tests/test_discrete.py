"""Tests for the finite-discrete core.

Expected values are either hand-computed (small matrix products written out
below) or checked against brute-force enumeration oracles that share no code
with the operations under test.
"""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statgames.discrete import (
    MAX_ENTRIES,
    CoparKernel,
    Dist,
    Effect,
    FiniteKernel,
    FiniteSpace,
    almost_sure_eq,
    bayes_invert,
    compose,
    copy_compose,
    copy_compose_copar,
    discard_coparam,
    discard_kernel,
    effect_add,
    effect_precompose,
    entropy,
    identity_kernel,
    marginal_dist,
    point_mass,
    push,
    product_space,
    rows_expectation,
    rows_relative_entropy,
    space,
    tensor,
    tensor_copar,
    tensor_dist,
    uniform,
    unit_space,
)
from statgames import discrete as ds
from statgames.discrete import _row_sums, _sum_to_last
from statgames.errors import ShapeError


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed]))


def random_dist(rng, s):
    m = rng.gamma(1.0, size=s.size) + 0.05
    return Dist(s, m / m.sum())


def random_kernel(rng, dom, cod):
    r = rng.gamma(1.0, size=(dom.size, cod.size)) + 0.05
    return FiniteKernel(dom, cod, r / r.sum(axis=1, keepdims=True))


def random_copar(rng, dom, copar, out):
    r = rng.gamma(1.0, size=(dom.size, copar.size * out.size)) + 0.05
    return CoparKernel(dom, copar, out, r / r.sum(axis=1, keepdims=True))


X2 = space(["x0", "x1"])
Y2 = space(["y0", "y1"])
Z2 = space(["z0", "z1"])


class TestSpaces:
    def test_product_is_flat_and_associative(self):
        a, b, c = space(["a"]), space(["b0", "b1"]), space(["c0", "c1", "c2"])
        left = product_space(product_space(a, b), c)
        right = product_space(a, product_space(b, c))
        assert left == right
        assert left.factor_sizes == (1, 2, 3)
        assert left.size == 6

    def test_labels_and_index_roundtrip(self):
        p = product_space(X2, Y2)
        for i, lab in enumerate(p.labels):
            assert p.index(lab) == i

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ShapeError):
            space(["a", "a"])

    def test_a_space_is_its_labels(self):
        # the size is kept, but a space is still equal to, hashes as, prints
        # as and pickles as its labels alone
        a = product_space(X2, Y2, space(["w"]))
        b = FiniteSpace((("x0", "x1"), ("y0", "y1"), ("w",)))
        assert a == b and hash(a) == hash(b) and repr(a) == "FiniteSpace(2x2x1)"
        assert a != product_space(Y2, X2, space(["w"])) and a != product_space(X2, Y2)
        assert a.size == 4 == math.prod(a.factor_sizes) and unit_space().size == 1
        assert [f.name for f in dataclasses.fields(FiniteSpace)] == ["factor_labels"]
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a) and repr(clone) == repr(a) and clone.size == 4

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_channel_keeps_its_codomain(self, side):
        M = space(["m0", "m1", "m2"])
        k = CoparKernel(X2, M, Y2, np.full((2, 6), 1 / 6), side)
        assert k.cod is k.cod
        assert k.cod == (M.product(Y2) if side == "left" else Y2.product(M))
        assert FiniteKernel(X2, Y2, np.full((2, 2), 0.5)).cod == Y2


class TestPush:
    def test_identity(self):
        pi = Dist(X2, [0.5, 0.5])
        assert np.allclose(push(identity_kernel(X2), pi).mass, [0.5, 0.5])

    def test_hand_product(self):
        # [[0.5, 0.5], [0, 1]] applied to (0.5, 0.5): (0.25, 0.75)
        k = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
        out = push(k, Dist(X2, [0.5, 0.5]))
        assert np.allclose(out.mass, [0.25, 0.75], atol=1e-12)

    def test_point_mass_selects_row(self):
        rng = rng_for(1)
        k = random_kernel(rng, X2, Y2)
        for i in range(2):
            out = push(k, point_mass(X2, i))
            assert np.allclose(out.mass, k.rows[i], atol=1e-12)

    def test_shape_error(self):
        k = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            push(k, uniform(space(["a", "b", "c"])))


class TestCompose:
    def test_identity_laws(self):
        rng = rng_for(2)
        c = random_kernel(rng, X2, Y2)
        assert np.allclose(compose(identity_kernel(Y2), c).rows, c.rows)
        assert np.allclose(compose(c, identity_kernel(X2)).rows, c.rows)

    def test_discard_absorbs(self):
        rng = rng_for(3)
        c = random_kernel(rng, X2, Y2)
        lhs = compose(discard_kernel(Y2), c)
        assert np.allclose(lhs.rows, discard_kernel(X2).rows)

    def test_hand_product(self):
        c = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
        d = FiniteKernel(Y2, Z2, [[1.0, 0.0], [0.5, 0.5]])
        assert np.allclose(
            compose(d, c).rows, [[0.75, 0.25], [0.5, 0.5]], atol=1e-12
        )


class TestCopyCompose:
    def test_copying_identity(self):
        rng = rng_for(4)
        d = random_kernel(rng, X2, Z2)
        joint = copy_compose(d, identity_kernel(X2))
        r = joint.rows.reshape(2, 2, 2)  # (a, b, z)
        for a, b, z in itertools.product(range(2), repeat=3):
            expect = d.rows[a, z] if a == b else 0.0
            assert r[a, b, z] == pytest.approx(expect, abs=1e-12)

    def test_hand_entries(self):
        c = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
        d = FiniteKernel(Y2, Z2, [[1.0, 0.0], [0.5, 0.5]])
        joint = copy_compose(d, c)
        r = joint.rows.reshape(2, 2, 2)
        assert r[0, 0, 0] == pytest.approx(0.5)
        assert r[0, 0, 1] == pytest.approx(0.0)
        assert r[0, 1, 0] == pytest.approx(0.25)
        assert r[0, 1, 1] == pytest.approx(0.25)

    def test_marginalizing_recovers_composition(self):
        rng = rng_for(5)
        for _ in range(100):
            sa, sb, sc = (int(x) for x in rng.integers(1, 5, size=3))
            A = space([f"a{i}" for i in range(sa)])
            B = space([f"b{i}" for i in range(sb)])
            C = space([f"c{i}" for i in range(sc)])
            c = random_kernel(rng, A, B)
            d = random_kernel(rng, B, C)
            got = discard_coparam(copy_compose(d, c)).rows
            # oracle: plain loops
            want = np.zeros((sa, sc))
            for a in range(sa):
                for z in range(sc):
                    want[a, z] = sum(
                        d.rows[b, z] * c.rows[a, b] for b in range(sb)
                    )
            assert np.allclose(got, want, atol=1e-12)


class TestUnitCoparameter:
    """A plain channel is the coparameterized one with the one-point
    coparameter, the empty product, which adds no factor to its codomain."""

    def test_plain_kernel_is_a_unit_coparameter_kernel(self):
        k = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.25, 0.75]])
        assert isinstance(k, CoparKernel)
        assert k.copar.size == 1 and k.copar_side == "left"
        assert k.out == Y2 and k.cod == Y2
        assert unit_space().product(Y2) == Y2 == Y2.product(unit_space())

    def test_operations_keep_their_spaces(self):
        rng = rng_for(31)
        c, d = random_kernel(rng, X2, Y2), random_kernel(rng, Y2, Z2)
        assert push(c, random_dist(rng, X2)).space == Y2
        joint = copy_compose(d, c)
        assert (joint.dom, joint.copar, joint.out) == (X2, Y2, Z2)
        assert joint.cod == Y2.product(Z2)
        t = tensor(c, d)
        assert (t.dom, t.cod) == (X2.product(Y2), Y2.product(Z2))
        assert compose(d, c).cod == Z2
        assert discard_kernel(X2).cod == unit_space()


class TestCoparCompose:
    def test_unit_coparameters_reduce_to_copy_compose(self):
        rng = rng_for(6)
        c = random_kernel(rng, X2, Y2)
        d = random_kernel(rng, Y2, Z2)
        plain = copy_compose(d, c)
        assert np.array_equal(copy_compose_copar(d, c).rows, plain.rows)

    def test_identity_lift_is_weak_unit(self):
        rng = rng_for(7)
        M = space(["m0", "m1", "m2"])
        f = random_copar(rng, X2, M, Y2)
        comp = copy_compose_copar(identity_kernel(Y2), f)
        # the identity's unit coparameter adds no factor
        assert comp.copar.factor_sizes == (3, 2)
        assert np.allclose(
            discard_coparam(comp).rows, discard_coparam(f).rows, atol=1e-12
        )

    def test_matches_triple_index_enumeration(self):
        rng = rng_for(8)
        M = space(["m0", "m1"])
        N = space(["n0", "n1"])
        f = random_copar(rng, X2, M, Y2)
        g = random_copar(rng, Y2, N, Z2)
        comp = copy_compose_copar(g, f)
        r = comp.rows.reshape(2, 2, 2, 2, 2)  # (a, m, b, n, z)
        fr = f.rows.reshape(2, 2, 2)
        gr = g.rows.reshape(2, 2, 2)
        for a, m, b, n, z in itertools.product(range(2), repeat=5):
            assert r[a, m, b, n, z] == pytest.approx(
                fr[a, m, b] * gr[b, n, z], abs=1e-12
            )

    def test_associative_after_flattening(self):
        rng = rng_for(9)
        for _ in range(25):
            sizes = rng.integers(1, 4, size=7)
            A, M1, B, M2, C, M3, D = (
                space([f"s{j}_{i}" for i in range(int(n))])
                for j, n in enumerate(sizes)
            )
            f = random_copar(rng, A, M1, B)
            g = random_copar(rng, B, M2, C)
            h = random_copar(rng, C, M3, D)
            left = copy_compose_copar(h, copy_compose_copar(g, f))
            right = copy_compose_copar(copy_compose_copar(h, g), f)
            assert left.copar == right.copar
            assert np.allclose(left.rows, right.rows, atol=1e-12)


class TestDiscard:
    def test_unit_coparameter_is_noop(self):
        rng = rng_for(10)
        k = random_kernel(rng, X2, Y2)
        assert np.allclose(discard_coparam(k).rows, k.rows)

    def test_copy_then_discard_is_identity(self):
        joint = copy_compose(identity_kernel(X2), identity_kernel(X2))
        assert np.allclose(discard_coparam(joint).rows, np.eye(2))

    def test_functoriality_exhaustive_sizes_then_random(self):
        # every size combination up to 4, then random larger shapes
        rng = rng_for(11)
        combos = list(itertools.product(range(1, 5), repeat=3))
        combos += [tuple(int(x) for x in rng.integers(5, 8, size=3)) for _ in range(20)]
        for sa, sb, sc in combos:
            A = space([f"a{i}" for i in range(sa)])
            B = space([f"b{i}" for i in range(sb)])
            C = space([f"c{i}" for i in range(sc)])
            c = random_kernel(rng, A, B)
            d = random_kernel(rng, B, C)
            assert np.allclose(
                discard_coparam(copy_compose(d, c)).rows,
                compose(d, c).rows,
                atol=1e-12,
            )


class TestTensor:
    def test_identity_tensor(self):
        t = tensor(identity_kernel(X2), identity_kernel(Y2))
        assert np.allclose(t.rows, np.eye(4))

    def test_discard_factor(self):
        rng = rng_for(12)
        k = random_kernel(rng, X2, Y2)
        t = tensor(k, discard_kernel(Z2))
        r = t.rows.reshape(2, 2, 2, 1)
        for a, a2, b in itertools.product(range(2), repeat=3):
            assert r[a, a2, b, 0] == pytest.approx(k.rows[a, b])

    def test_entrywise_outer_product(self):
        rng = rng_for(13)
        k1 = random_kernel(rng, X2, Y2)
        k2 = random_kernel(rng, Z2, X2)
        t = tensor(k1, k2)
        assert np.array_equal(t.rows, np.kron(k1.rows, k2.rows))
        r = t.rows.reshape(2, 2, 2, 2)
        for a, a2, b, b2 in itertools.product(range(2), repeat=4):
            assert r[a, a2, b, b2] == pytest.approx(
                k1.rows[a, b] * k2.rows[a2, b2], abs=1e-12
            )

    def test_tensor_copar_groups_blocks(self):
        rng = rng_for(14)
        M = space(["m0", "m1"])
        N = space(["n0", "n1", "n2"])
        f = random_copar(rng, X2, M, Y2)
        g = random_copar(rng, Z2, N, X2)
        t = tensor_copar(f, g)
        assert t.copar == M.product(N)
        assert t.out == Y2.product(X2)
        r = t.rows.reshape(2, 2, 2, 3, 2, 2)  # (a, a', m, n, b, b')
        fr = f.rows.reshape(2, 2, 2)
        gr = g.rows.reshape(2, 3, 2)
        for a, a2, m, n, b, b2 in itertools.product(
            range(2), range(2), range(2), range(3), range(2), range(2)
        ):
            assert r[a, a2, m, n, b, b2] == pytest.approx(
                fr[a, m, b] * gr[a2, n, b2], abs=1e-12
            )


def uniform_copar(dom, copar_size, out_size, prefix):
    """A uniform channel from ``dom`` to new spaces of the given sizes."""
    copar = space([f"{prefix}m{i}" for i in range(copar_size)])
    out = space([f"{prefix}o{i}" for i in range(out_size)])
    cols = copar_size * out_size
    return CoparKernel(dom, copar, out, np.full((dom.size, cols), 1.0 / cols))


def labels(prefix, n):
    return space([f"{prefix}{i}" for i in range(n)])


class TestSizeGuard:
    """Oversized composites fail with a ``ShapeError`` naming their size
    before any array is built; the inputs here are small."""

    @pytest.fixture()
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oversized result was computed")

        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(np, "kron", refuse)

    def test_copy_compose_predicts_its_size(self, no_allocation):
        f = uniform_copar(labels("a", 8), 2**12, 2, "f")  # 65,536 entries
        g = uniform_copar(f.out, 2**7, 2**7, "g")
        entries = f.rows.size * g.copar.size * g.out.size
        assert entries == 2**30 > MAX_ENTRIES
        with pytest.raises(ShapeError, match=f"{entries:,} entries .{8 * entries:,} bytes."):
            copy_compose_copar(g, f)

    def test_tensor_predicts_its_size(self, no_allocation):
        f = uniform_copar(labels("a", 2**6), 1, 2**7, "f")
        g = uniform_copar(labels("b", 2**7), 1, 2**7, "g")
        entries = f.rows.size * g.rows.size
        assert entries == 2**27 > MAX_ENTRIES
        with pytest.raises(ShapeError, match=f"{entries:,} entries .{8 * entries:,} bytes."):
            tensor_copar(f, g)

    def test_limit_admits_the_benchmark_chain(self):
        # a depth-7 chain of 3-state stages with 2-point coparameters has
        # 3 x (2 * 6^6) x 3 entries; depth 10 would have 6^3 times more
        depth7 = 3 * (2 * 6**6) * 3
        assert depth7 < MAX_ENTRIES < depth7 * 6**3


class TestMarginal:
    def test_marginals_of_product_state(self):
        rng = rng_for(15)
        p1, p2 = random_dist(rng, X2), random_dist(rng, Z2)
        joint = tensor_dist(p1, p2)
        assert np.allclose(marginal_dist(joint, [0]).mass, p1.mass)
        assert np.allclose(marginal_dist(joint, [1]).mass, p2.mass)


class TestBayesInvert:
    def test_identity_lift_uniform_prior(self):
        f = identity_kernel(X2)
        inv = bayes_invert(f, uniform(X2))
        # backward at b is a point mass at (b, unit)
        assert np.allclose(inv.rows, np.eye(2), atol=1e-12)

    def test_constant_channel_returns_prior(self):
        rng = rng_for(16)
        M = space(["m0", "m1"])
        q = random_dist(rng, M.product(Y2))
        f = CoparKernel(X2, M, Y2, np.tile(q.mass, (2, 1)))
        pi = random_dist(rng, X2)
        inv = bayes_invert(f, pi)
        qr = q.mass.reshape(2, 2)
        q_b = qr.sum(axis=0)
        r = inv.rows.reshape(2, 2, 2)  # (b, a, m)
        for b, a, m in itertools.product(range(2), repeat=3):
            assert r[b, a, m] == pytest.approx(
                pi.mass[a] * qr[m, b] / q_b[b], abs=1e-12
            )

    def test_joint_identity_random(self):
        rng = rng_for(17)
        A = space(["a0", "a1", "a2"])
        B = space(["b0", "b1", "b2"])
        M = space(["m0", "m1"])
        for _ in range(50):
            f = random_copar(rng, A, M, B)
            pi = random_dist(rng, A)
            inv = bayes_invert(f, pi)
            evidence = push(discard_coparam(f), pi)
            fr = f.rows.reshape(3, 2, 3)
            ir = inv.rows.reshape(3, 3, 2)
            for b in range(3):
                if not evidence.mass[b] > 0:
                    continue
                for a, m in itertools.product(range(3), range(2)):
                    lhs = ir[b, a, m] * evidence.mass[b]
                    rhs = fr[a, m, b] * pi.mass[a]
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_unsupported_rows_are_uniform_and_masked(self):
        f = CoparKernel(
            X2,
            unit_space(),
            Y2,
            [[1.0, 0.0], [1.0, 0.0]],
        )
        inv = bayes_invert(f, Dist(X2, [0.25, 0.75]))
        assert np.allclose(inv.rows[0], [0.25, 0.75])  # the posterior at y0
        assert np.allclose(inv.rows[1], [0.5, 0.5])


#: layouts of one array: the summing helpers must give numpy's bits on each
VIEWS = {
    "C": lambda x: x,
    "fortran": np.asfortranarray,
    "rows across memory": lambda x: np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2),
    "transposed": lambda x: np.swapaxes(x, -1, -2),
    "moved": lambda x: np.moveaxis(x, 0, -1),
    "reversed rows": lambda x: x[..., ::-1, :],
    "reversed columns": lambda x: np.asfortranarray(x)[..., ::-1],
    "sliced": lambda x: np.swapaxes(x, -1, -2)[..., ::2, 1:],
    "first row across memory": lambda x: VIEWS["rows across memory"](x)[..., :1, :],
    "broadcast": lambda x: np.broadcast_to(x[..., :1, :], x.shape),
    "broadcast columns": lambda x: np.broadcast_to(np.asfortranarray(x)[..., :1], x.shape),
    "new axis": lambda x: np.swapaxes(x, -1, -2)[None],
}
SUM_SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)


def spec_of(ndim, axes):
    letters = "abcd"[:ndim]
    return letters + "->" + "".join(c for i, c in enumerate(letters) if i not in axes)


def same_array(got, want):
    """The same bits in the same layout, so later operations agree too."""
    return got.tobytes() == want.tobytes() and got.strides == want.strides and got.shape == want.shape


def parent_invert_rows(f, pi):
    """``bayes_invert``'s rows, written with numpy's own sums."""
    a, m, b = f.dom.size, f.copar.size, f.out.size
    lead = pi.mass.shape[:-1]
    k = len(lead)
    joint = f.rows.reshape(a, m, b) * pi.mass[..., :, None, None]
    evidence = joint.sum(axis=(k, k + 1))
    supported = evidence > 0
    back = joint.transpose(*range(k), k + 2, k, k + 1).reshape(lead + (b, a * m))
    back /= np.where(supported, evidence, 1.0)[..., None]
    if np.count_nonzero(supported) < supported.size:
        back[~supported] = 1.0 / (a * m)
    return back


def parent_discard_rows(f):
    return f._split().sum(axis=-2 if f.copar_side == "left" else -1)


class TestSummingHelpers:
    """``_row_sums`` and ``_sum_to_last`` are ``np.add.reduce`` bit for bit,
    so every inversion, evidence and discard keeps its bits."""

    @SUM_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
        n_rows=st.sampled_from([1, 2, 3, 7]),
        n_cols=st.sampled_from([1, 2, 3, 5, 128, 300]),
        view=st.sampled_from(sorted(VIEWS)),
    )
    def test_the_helpers_give_numpys_bits(self, seed, lead, n_rows, n_cols, view):
        rng = rng_for(seed)
        x = VIEWS[view](rng.gamma(1.0, size=lead + (n_rows, n_cols)) * 10.0 ** rng.integers(-3, 4))
        assert same_array(_row_sums(x), np.add.reduce(x, axis=-1))
        nd = x.ndim
        for axes in {(nd - 2,), tuple(range(nd - 1)), tuple(range(len(lead) > 0, nd - 1))}:
            assert same_array(_sum_to_last(x, spec_of(nd, axes), axes), np.add.reduce(x, axis=axes))

    def test_an_inversion_is_summed_in_one_strided_pass(self, monkeypatch):
        rng = rng_for(40)
        f = random_copar(rng, labels("a", 4), labels("m", 3), labels("b", 5))
        inv = bayes_invert(f, random_dist(rng, f.dom))
        assert inv.rows.strides == (8, 8 * 5)  # the joint's transposed view
        specs = []
        monkeypatch.setattr(ds, "_einsum", lambda spec, x: specs.append(spec) or np.einsum(spec, x))
        bayes_invert(f, random_dist(rng, f.dom))
        discard_coparam(f), discard_coparam(inv)
        # the evidence and the inversion's check; the forward's discard, whose
        # C-ordered rows numpy checks; the inversion's discard and its check
        assert specs == ["...amb->...b", "...j->...", "...cmz->...cz", "...j->...", "...j->..."]

    def test_a_deep_chain_inverts_and_discards_bit_for_bit(self):
        rng = rng_for(41)
        spaces = [labels(f"s{i}_", 3) for i in range(6)]
        copars = [labels(f"m{i}_", 2) for i in range(5)]
        chain = random_copar(rng, spaces[0], copars[0], spaces[1])
        for i in range(1, 5):
            chain = copy_compose_copar(random_copar(rng, spaces[i], copars[i], spaces[i + 1]), chain)
        assert chain.rows.shape == (3, 6**5)
        single = random_dist(rng, spaces[0])
        stack = Dist(spaces[0], np.stack([random_dist(rng, spaces[0]).mass for _ in range(4)]))
        for pi in (single, stack):
            inv = bayes_invert(chain, pi)
            assert same_array(inv.rows, parent_invert_rows(chain, pi))
            for f in (chain, inv):
                assert same_array(discard_coparam(f).rows, parent_discard_rows(f))

    def test_a_one_outcome_output_inverts_and_discards_bit_for_bit(self):
        rng = rng_for(42)
        f = random_copar(rng, labels("a", 6), labels("m", 40), space(["o"]))
        for pi in (random_dist(rng, f.dom), Dist(f.dom, np.full((2, 6), 1.0 / 6))):
            inv = bayes_invert(f, pi)
            assert same_array(inv.rows, parent_invert_rows(f, pi))
            for g in (f, inv):
                assert same_array(discard_coparam(g).rows, parent_discard_rows(g))


class TestEffects:
    def test_unit_law(self):
        g = Effect(X2, [1.0, 2.0])
        zero = Effect(X2, [0.0, 0.0])
        assert np.allclose(effect_add(g, zero).values, g.values)

    def test_pointwise_sum(self):
        g = Effect(X2, [1.0, 2.0])
        h = Effect(X2, [0.5, 0.5])
        assert np.allclose(effect_add(g, h).values, [1.5, 2.5])

    def test_infinity_is_absorbing(self):
        g = Effect(X2, [np.inf, 1.0])
        h = Effect(X2, [2.0, 3.0])
        out = effect_add(g, h)
        assert out.values[0] == np.inf and out.values[1] == 4.0

    def test_constant_effects_are_preserved(self):
        rng = rng_for(18)
        k = random_kernel(rng, X2, Y2)
        g = Effect(Y2, [0.7, 0.7])
        assert np.allclose(effect_precompose(g, k).values, [0.7, 0.7])

    def test_deterministic_kernel_reindexes(self):
        k = FiniteKernel(X2, Y2, [[0.0, 1.0], [1.0, 0.0]])
        g = Effect(Y2, [3.0, 5.0])
        assert np.allclose(effect_precompose(g, k).values, [5.0, 3.0])

    def test_precompose_matches_enumeration(self):
        rng = rng_for(19)
        B = space(["b0", "b1", "b2"])
        k = random_kernel(rng, X2, B)
        g = Effect(B, rng.uniform(0, 4, size=3))
        got = effect_precompose(g, k).values
        want = [
            sum(g.values[b] * k.rows[a, b] for b in range(3)) for a in range(2)
        ]
        assert np.allclose(got, want, atol=1e-12)

    def test_infinite_effect_zero_mass_contributes_nothing(self):
        k = FiniteKernel(X2, Y2, [[1.0, 0.0], [0.5, 0.5]])
        g = Effect(Y2, [1.0, np.inf])
        out = effect_precompose(g, k)
        assert out.values[0] == 1.0
        assert out.values[1] == np.inf

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, seed):
        rng = rng_for(seed)
        sb = int(rng.integers(1, 5))
        B = space([f"b{i}" for i in range(sb)])
        f = random_kernel(rng, X2, B)
        g = Effect(B, rng.uniform(0, 3, size=sb))
        g2 = Effect(B, rng.uniform(0, 3, size=sb))
        lhs = effect_precompose(effect_add(g, g2), f).values
        rhs = (
            effect_precompose(g, f).values + effect_precompose(g2, f).values
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestValidation:
    """Constructors reject NaN entries: a NaN row or mass sums to NaN, which
    no tolerance comparison catches, so the sign check has to."""

    def test_nan_mass_rejected(self):
        with pytest.raises(ShapeError, match="NaN"):
            Dist(X2, [np.nan, 1.0])

    def test_nan_kernel_row_rejected(self):
        with pytest.raises(ShapeError, match="row 1 .*NaN"):
            FiniteKernel(X2, Y2, [[0.5, 0.5], [np.nan, 1.0]])

    def test_nan_copar_kernel_row_rejected(self):
        with pytest.raises(ShapeError, match="row 0 .*NaN"):
            CoparKernel(X2, unit_space(), Y2, [[np.nan, 0.5], [0.5, 0.5]])

    def test_infinite_entries_rejected(self):
        with pytest.raises(ShapeError):
            Dist(X2, [np.inf, 1.0])
        with pytest.raises(ShapeError):
            FiniteKernel(X2, Y2, [[0.5, 0.5], [-np.inf, np.inf]])

    def test_negative_entry_still_rejected(self):
        with pytest.raises(ShapeError, match="row 0 .*negative"):
            FiniteKernel(X2, Y2, [[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ShapeError, match="row 1 .*negative"):
            CoparKernel(X2, Y2, Y2, [[0.25] * 4, [0.5, 0.5, 0.5, -0.5]])

    def test_row_sum_error_prints_a_plain_float(self):
        with pytest.raises(ShapeError, match=r"^row 1 sums to 0\.9, not 1$"):
            FiniteKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.4]])

    def test_a_single_vector_and_a_stacked_row_name_what_fails(self):
        # a single vector is settled by its own branch: the same words
        cases = [
            (lambda: Dist(X2, [0.5, 0.4]), r"^distribution sums to 0\.9, not 1$"),
            (lambda: Dist(X2, [1.5, -0.5]), r"^distribution has a negative or NaN entry$"),
            (
                lambda: FiniteKernel(X2, Y2, [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.25]]]),
                r"^row 1 of stack entry \(1,\) sums to 0\.75, not 1$",
            ),
        ]
        for build, message in cases:
            with pytest.raises(ShapeError, match=message):
                build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda rows: CoparKernel(X2, unit_space(), Y2, rows),
            lambda rows: FiniteKernel(X2, Y2, rows),
        ],
        ids=["CoparKernel", "FiniteKernel"],
    )
    def test_one_validation_per_kernel(self, monkeypatch, build):
        calls = []
        for owner in (CoparKernel, FiniteKernel):
            def counted(self, check=owner.__dict__["__post_init__"]):
                calls.append(check)
                check(self)

            monkeypatch.setattr(owner, "__post_init__", counted)
        build([[0.5, 0.5], [0.25, 0.75]])
        assert len(calls) == 1


class TestRowHelpers:
    def test_rows_expectation_matches_loop_and_skips_null_infinities(self):
        rng = rng_for(21)
        values = np.array([1.0, np.inf, 2.5, np.nan])
        probs = np.array(
            [[0.2, 0.0, 0.8, 0.0], [0.1, 0.3, 0.6, 0.0], [0.0, 0.0, 0.5, 0.5]]
        )
        got = rows_expectation(values, probs)
        assert got[0] == pytest.approx(0.2 * 1.0 + 0.8 * 2.5, abs=1e-15)
        assert got[1] == np.inf
        assert np.isnan(got[2])
        k = random_kernel(rng, X2, space(["b0", "b1", "b2"]))
        vals = rng.uniform(0, 3, size=3)
        want = [sum(k.rows[a, b] * vals[b] for b in range(3)) for a in range(2)]
        assert np.allclose(rows_expectation(vals, k.rows), want, atol=1e-15)

    def test_rows_relative_entropy_conventions(self):
        p = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        q = np.array([[0.25, 0.75, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        got = rows_relative_entropy(p, q)
        want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert got[0] == pytest.approx(want, abs=1e-15)
        assert got[1] == np.inf
        assert got[2] == 0.0

    def test_the_entropy_of_a_point_mass_is_positive_zero(self):
        # a negated dot product of zeros is -0.0, which reports print as "-0.0"
        assert math.copysign(1.0, entropy(np.array([1.0, 0.0]))) == 1.0
        assert entropy(np.array([0.5, 0.5])) == math.log(2.0)


class TestAlmostSureEq:
    def test_reflexive(self):
        rng = rng_for(20)
        k = random_kernel(rng, X2, Y2)
        assert almost_sure_eq(k, k, uniform(X2))

    def test_null_rows_ignored(self):
        k1 = FiniteKernel(X2, Y2, [[0.5, 0.5], [1.0, 0.0]])
        k2 = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.0, 1.0]])
        ref = Dist(X2, [1.0, 0.0])
        assert almost_sure_eq(k1, k2, ref)
        assert not almost_sure_eq(k1, k2, uniform(X2))

    def test_tolerance_boundary(self):
        tol = 1e-6
        k1 = FiniteKernel(X2, Y2, [[0.5, 0.5], [0.5, 0.5]])
        k2 = FiniteKernel(
            X2, Y2, [[0.5 + 2 * tol, 0.5 - 2 * tol], [0.5, 0.5]]
        )
        assert not almost_sure_eq(k1, k2, uniform(X2), tol=tol)
        assert almost_sure_eq(k1, k2, uniform(X2), tol=5 * tol)


class TestStochasticityPreservation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_all_operations_stay_stochastic(self, seed):
        # constructors re-validate, so reaching the end is the assertion;
        # explicit sums double-check against silent renormalization
        rng = rng_for(seed)
        sa, sb, sc, sm = (int(x) for x in rng.integers(1, 5, size=4))
        A = space([f"a{i}" for i in range(sa)])
        B = space([f"b{i}" for i in range(sb)])
        C = space([f"c{i}" for i in range(sc)])
        M = space([f"m{i}" for i in range(sm)])
        c = random_kernel(rng, A, B)
        d = random_kernel(rng, B, C)
        f = random_copar(rng, A, M, B)
        pi = random_dist(rng, A)
        results = [
            push(c, pi).mass,
            compose(d, c).rows,
            copy_compose(d, c).rows,
            tensor(c, d).rows,
            bayes_invert(f, pi).rows,
        ]
        for arr in results:
            sums = arr.sum(axis=-1) if arr.ndim > 1 else arr.sum()
            assert np.allclose(sums, 1.0, atol=1e-12)


class TestStacks:
    """A stack of priors is a ``Dist`` with a leading axis; every operation
    on it equals, bitwise, the operation on each prior alone."""

    def stack(self, rng, s, n=5):
        priors = [random_dist(rng, s) for _ in range(n)]
        return priors, Dist(s, np.stack([p.mass for p in priors]))

    def test_operations_match_each_prior(self):
        rng = rng_for(70)
        X, M, Y, N, Z = (space([f"{p}{i}" for i in range(k)]) for p, k in zip("xmynz", (3, 2, 4, 2, 3)))
        f, g = random_copar(rng, X, M, Y), random_copar(rng, Y, N, Z)
        priors, stack = self.stack(rng, X)
        inv = bayes_invert(f, stack)
        ginv = bayes_invert(g, push(discard_coparam(f), stack))
        back = copy_compose_copar(inv, ginv)
        joint = Dist(X.product(X), np.stack([np.kron(p.mass, q.mass) for p, q in zip(priors, priors[::-1])]))
        for i, pi in enumerate(priors):
            one_inv = bayes_invert(f, pi)
            assert np.array_equal(inv.rows[i], one_inv.rows)
            assert np.array_equal(push(f, stack).mass[i], push(f, pi).mass)
            assert np.array_equal(discard_coparam(inv).rows[i], discard_coparam(one_inv).rows)
            one_ginv = bayes_invert(g, push(discard_coparam(f), pi))
            assert np.array_equal(back.rows[i], copy_compose_copar(one_inv, one_ginv).rows)
            fixed = bayes_invert(g, uniform(Y))  # one channel for every prior
            assert np.array_equal(tensor_copar(inv, fixed).rows[i], tensor_copar(one_inv, fixed).rows)
            both = tensor_dist(stack, Dist(X, stack.mass[::-1]))
            assert np.array_equal(both.mass[i], joint.mass[i])
            for keep in ((0,), (1,), (1, 0)):
                one = Dist(X.product(X), joint.mass[i])
                assert np.array_equal(marginal_dist(joint, keep).mass[i], marginal_dist(one, keep).mass)

    def test_unsupported_rows_of_one_prior_stay_its_own(self):
        f = FiniteKernel(X2, Y2, [[1.0, 0.0], [0.5, 0.5]])
        stack = Dist(X2, [[1.0, 0.0], [0.0, 1.0]])
        inv = bayes_invert(f, stack)
        assert inv.rows[0].tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert inv.rows[1].tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_checks_name_the_stack_entry(self):
        with pytest.raises(ShapeError, match=r"^distribution of stack entry \(1,\) sums to 0\.5"):
            Dist(X2, [[0.5, 0.5], [0.25, 0.25]])
        with pytest.raises(ShapeError, match=r"^row 1 of stack entry \(0,\) has a negative"):
            FiniteKernel(X2, Y2, [[[0.5, 0.5], [-0.5, 1.5]], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ShapeError, match="mass has shape"):
            Dist(X2, [[0.5, 0.25, 0.25]])
