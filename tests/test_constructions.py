"""Tests for the construction and transform generators."""

import hashlib

import numpy as np
import pytest

from gbent.analysis import (
    bent_space_report,
    coordinates_span_bent,
    is_gbent_direct,
    is_zq_bent,
    verify_rds,
)
from gbent.boolfn import BooleanFunction, classify, dual, wht
from gbent.constructions import (
    LinearTransform,
    Spread,
    apply_equivalence,
    example1,
    identity_transform,
    lift,
    mesnager_secondary,
    mm_bent,
    random_invertible,
    random_transform,
    regular_spread,
    spread_zqbent,
)
from gbent.errors import DualSumNonzero, GbentError, NotBent, NotGbent
from gbent.gbf import GeneralizedBooleanFunction, gwht
from gbent.gf2m import Field, inverse_exponent

IP4 = BooleanFunction(4, [(x & 1) * ((x >> 2) & 1) ^ ((x >> 1) & 1) * ((x >> 3) & 1)
                          for x in range(16)])
SEED22 = GeneralizedBooleanFunction(2, 2, [0, 1, 0, 3])
SEED32 = GeneralizedBooleanFunction(3, 2, [0, 0, 0, 2, 1, 1, 1, 3])
SEED33 = GeneralizedBooleanFunction(3, 3, 2 * SEED32.values)
SEED43 = GeneralizedBooleanFunction(
    4, 3, [(x & 1) + 2 * ((x >> 1) & 1) + 4 * int(IP4(x)) for x in range(16)])


def norm_multiset(f):
    return sorted(map(tuple, gwht(f).norm_squared_all().tolist()))


def seeded_pi(m):
    return np.random.default_rng(m).permutation(1 << m).tolist()


PHI_8_4 = np.random.default_rng(8).permutation(np.repeat(np.arange(16), 16)).tolist()
BUILDERS = {
    **{f"regular_spread({m})": lambda m=m: regular_spread(m).subspaces for m in range(1, 9)},
    **{f"mm_bent({m})": lambda m=m: mm_bent(m, seeded_pi(m)).table for m in range(1, 9)},
    "example1(4, 1)": lambda: example1(4, 1).values,
    "example1(4, 7)": lambda: example1(4, 7).values,
    "example1(8, 1)": lambda: example1(8, 1).values,
    "spread_zqbent(8, 4)": lambda: spread_zqbent(regular_spread(8), 4, PHI_8_4).values,
}
# sha256 of each output's int64 bytes, as the per-point scalar loops over
# GF(2^m) built them; pi and phi are the seeded ones above
PINNED_OUTPUTS = {
    "regular_spread(1)": "5c65c9aaff6a8db2d6371bb5226686e7e546c0f87cf601f1b5fccb97a236b7cf",
    "regular_spread(2)": "88cb5b6b67ebe6f4e711fc496f370e0171cd33b1e5a51948b9724ab4239db3ec",
    "regular_spread(3)": "59c69aaa7879100bc4e5acf71e56134dd79d7fba1643d04b0956db579dbc08a7",
    "regular_spread(4)": "7bd99c99c16694c744425902519e2c51c1dc7e3ec53edf1b987c9fa3231f54a7",
    "regular_spread(5)": "d0f5126d674bb5f35f1a1b26c0f2f0130cfb893ffddf43d3baadfd988fad8f5a",
    "regular_spread(6)": "2e4e647f5c22021601f837bd80e5dfbb1997776b9ec00e74da9c186ba1550848",
    "regular_spread(7)": "90167f55c87f137f8a7527066662696f0d2892d242a968985ca45e45aae8316d",
    "regular_spread(8)": "0e15d2282710318d436de3d31f4840c13c8d1f9f57ddbc197e015b9115d81a17",
    "mm_bent(1)": "013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51",
    "mm_bent(2)": "e8993701ae39012704dbc573d131f0de02ac811a0cca8bcbd8fa76dc242ad675",
    "mm_bent(3)": "ef9babdafe8d88d115e374d2be62ae08bfee8226558d15d2d616151df745f29c",
    "mm_bent(4)": "3e4ab17ec55d70009738a0d7a33a51877abe26587f83b16833b80cca7540dbd7",
    "mm_bent(5)": "35d946ebde2d329eaa7df6e6cff377bfa9aece3320b11961944775fddcd26886",
    "mm_bent(6)": "adc7af3f1676feb9638fb1d03ef69b1229e80a668bb833b8294b0a5bb6367641",
    "mm_bent(7)": "f250e206f0a6709907c3bdacbd07e7668c34d20b611af820346768681129e080",
    "mm_bent(8)": "8fe1503858ff20269c003cbc2d82dc8b1e65179a1de0626ff67580c2c1095870",
    "example1(4, 1)": "11d2215bd0707fb5260fa9500ecc2ebffaa7bcc0ebddd17607d3a44dd1e0bc65",
    "example1(4, 7)": "2ec5df039caff1108712f1cc959f735219bcbcd603471e51b68d7c5d0ce657ae",
    "example1(8, 1)": "95cf19a1329a1e490c2d49d71bc25ae9db1ccf4f5a04b7fc3e9805bbff9f746e",
    "spread_zqbent(8, 4)": "3705bd03aa24f27c6e69f7ff4d81167512e1b40d9d4c35bb48ea797b74f71d38",
}


class TestSpread:
    def test_m1_lines(self):
        sp = regular_spread(1)
        assert sp.n == 2
        assert [set(s) for s in sp.subspaces] == [{0, 2}, {0, 1}, {0, 3}]

    def test_m2(self):
        sp = regular_spread(2)
        assert len(sp.subspaces) == 5
        assert all(len(s) == 4 for s in sp.subspaces)

    def test_m3_covers(self):
        sp = regular_spread(3)
        assert len(sp.subspaces) == 9
        union = set().union(*map(set, sp.subspaces))
        assert union == set(range(64))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Spread(2, ((0, 1), (0, 1), (0, 3)))

    def test_rejects_non_subspace(self):
        with pytest.raises(ValueError):
            Spread(4, tuple([(0, 1, 2, 7)] + [(0, 3, 4, 5)] * 4))
        # points 3 and 5 swapped between two lines of regular_spread(2): the
        # lines still partition V_4 \ {0}, but neither is closed under +
        with pytest.raises(ValueError, match="not F_2-linear"):
            Spread(4, ((0, 4, 8, 12), (0, 1, 2, 5), (0, 3, 10, 15),
                       (0, 9, 14, 7), (0, 13, 6, 11)))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            Spread(2, ((0, 1), (0, 2)))

    @pytest.mark.parametrize("outside", [4, -1])
    def test_rejects_points_outside_vn(self, outside):
        # the point stood in for the missing point 3 in the cover count
        with pytest.raises(ValueError, match=r"V_2 = \[0, 4\)"):
            Spread(2, ((0, outside), (0, 1), (0, 2)))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            regular_spread(0)
        with pytest.raises(ValueError):
            regular_spread(9)


class TestPinnedOutputs:
    @pytest.mark.parametrize("call", PINNED_OUTPUTS)
    def test_digest(self, call):
        out = np.asarray(BUILDERS[call](), dtype=np.int64)
        assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_OUTPUTS[call]


class TestSpreadZqBent:
    def test_m3_k3_z8_bent(self):
        f = spread_zqbent(regular_spread(3), 3, range(8))
        assert f.n == 6 and f.k == 3
        assert is_zq_bent(f).verdict
        assert verify_rds(f)

    def test_m2_k2_z4_bent(self):
        f = spread_zqbent(regular_spread(2), 2, [0, 1, 2, 3])
        assert is_zq_bent(f).verdict
        assert verify_rds(f)

    def test_m2_k1(self):
        f = spread_zqbent(regular_spread(2), 1, [0, 1, 1, 0])
        assert is_gbent_direct(f).verdict

    def test_constant_on_lines(self):
        sp = regular_spread(3)
        f = spread_zqbent(sp, 3, range(8))
        for s, pts in enumerate(sp.subspaces):
            vals = {int(f(x)) for x in pts if x}
            assert len(vals) == 1
            assert vals == ({0} if s == 0 else {s - 1})

    def test_vectorial_components_bent(self):
        f = spread_zqbent(regular_spread(3), 3, range(8))
        assert coordinates_span_bent(f)

    def test_unbalanced_rejected(self):
        with pytest.raises(GbentError, match=r"exactly 2\^\{m-k\} times"):
            spread_zqbent(regular_spread(2), 2, [0, 0, 1, 3])
        with pytest.raises(GbentError, match=r"phi must have 2\^m = 4 entries"):
            spread_zqbent(regular_spread(2), 2, [0, 1, 2])

    def test_k_too_large(self):
        with pytest.raises(GbentError, match=r"exceeds the spread parameter"):
            spread_zqbent(regular_spread(2), 3, range(8))

    @pytest.mark.parametrize("bad", [-1, 4, 1 << 70])
    def test_phi_outside_range(self, bad):
        with pytest.raises(GbentError, match=r"phi values must lie in \[0, 4\)"):
            spread_zqbent(regular_spread(2), 2, [0, 1, bad, 3])


class TestMMBent:
    def test_identity_m2(self):
        f = mm_bent(2, range(4))
        assert f.n == 4
        assert classify(wht(f)).kind == "Bent"

    def test_table_formula(self):
        fld = Field(2)
        f = mm_bent(2, [0, 1, 3, 2])
        for y in range(4):
            for x in range(4):
                assert f(x + (y << 2)) == fld.trace(fld.mul(x, [0, 1, 3, 2][y]))

    def test_m1_is_and(self):
        f = mm_bent(1, [0, 1])
        assert f.table.tolist() == [0, 0, 0, 1]

    def test_power_permutation_m4(self):
        d = inverse_exponent(11, 4)
        fld = Field(4)
        pi = [fld.pow(y, d) for y in range(16)]
        f = mm_bent(4, pi)
        assert f.n == 8
        assert classify(wht(f)).kind == "Bent"

    def test_rejects_non_permutation(self):
        with pytest.raises(GbentError, match=r"pi must be a permutation"):
            mm_bent(2, [0, 0, 1, 2])

    def test_dual_through_inverse_permutation(self):
        # bit dot products translate to traces through the dual basis:
        # u.x = Tr(D(u) x) with Tr(delta_i 2^j) = [i = j]; then the dual of
        # Tr(x pi(y)) at (u, v) is Tr(D(v) pi^{-1}(D(u)))
        m = 2
        fld = Field(m)
        delta = []
        for i in range(m):
            delta.append(next(e for e in range(1 << m)
                              if all(fld.trace(fld.mul(e, 1 << j)) == (i == j)
                                     for j in range(m))))

        def to_dual(u):
            out = 0
            for i in range(m):
                if (u >> i) & 1:
                    out ^= delta[i]
            return out

        for pi in ([0, 1, 2, 3], [0, 1, 3, 2], [2, 3, 0, 1]):
            pinv = [pi.index(e) for e in range(4)]
            fd = dual(mm_bent(m, pi))
            for u in range(4):
                for v in range(4):
                    expect = fld.trace(fld.mul(to_dual(v), pinv[to_dual(u)]))
                    assert fd(u + (v << m)) == expect


class TestExample1:
    def test_m4_z8_bent(self):
        f = example1(4)
        assert f.n == 8 and f.k == 3
        assert is_zq_bent(f).verdict
        assert verify_rds(f)

    def test_truncations(self):
        f = example1(4)
        assert is_gbent_direct(f.truncate(1)).verdict   # a_0 + 2 a_1 in GB_8^4
        assert is_gbent_direct(f.truncate(2)).verdict   # a_0 alone is bent

    def test_coordinate_formula(self):
        fld = Field(4)
        d = inverse_exponent(11, 4)
        b = fld.find_root(0b10011)
        f = example1(4, c=1)
        for y in (0, 1, 7, 11):
            for x in (0, 3, 5, 12):
                t = fld.mul(fld.pow(y, d), x)
                a0 = fld.trace(fld.mul(1 ^ b, t))
                a1 = fld.trace(fld.mul(1 ^ fld.inv(b), t))
                a2 = fld.trace(t)
                assert int(f(x + (y << 4))) == a0 + 2 * a1 + 4 * a2

    def test_nonzero_c(self):
        f = example1(4, c=7)
        assert is_zq_bent(f).verdict

    def test_bad_m(self):
        with pytest.raises(GbentError, match=r"need 4 \| m and 5 not \| m"):
            example1(3)
        with pytest.raises(GbentError, match=r"need 4 \| m and 5 not \| m"):
            example1(20)  # divisible by both 4 and 5

    @pytest.mark.parametrize("m", [16, -4])
    def test_m_outside_range(self, m):
        # refused before any field work: m = 16 would need 2^32-entry grids
        with pytest.raises(GbentError, match=r"4 <= m <= 12"):
            example1(m)

    def test_zero_c(self):
        with pytest.raises(GbentError, match="nonzero field element"):
            example1(4, c=0)

    @pytest.mark.parametrize("c", [16, 999])
    def test_c_outside_field(self, c):
        with pytest.raises(GbentError, match="nonzero field element"):
            example1(4, c=c)


class TestMesnager:
    def test_positive_quadruple(self):
        g0 = IP4
        g1 = g0 ^ BooleanFunction.linear(4, 1)
        g2 = g0 ^ BooleanFunction.linear(4, 2)
        maj = mesnager_secondary(g0, g1, g2)
        assert classify(wht(maj)).kind == "Bent"

    def test_mm_family_additive_parts(self):
        g0 = mm_bent(2, [0, 1, 3, 2])
        g1 = g0 ^ BooleanFunction.linear(4, 4)   # + y_0
        g2 = g0 ^ BooleanFunction.linear(4, 8)   # + y_1
        maj = mesnager_secondary(g0, g1, g2)
        assert classify(wht(maj)).kind == "Bent"

    def test_repeated_inputs(self):
        g2 = IP4 ^ BooleanFunction.linear(4, 3)
        assert mesnager_secondary(IP4, IP4, g2) == IP4

    def test_negative_witness(self):
        g0 = IP4
        g1 = g0 ^ BooleanFunction.linear(4, 1)   # + x_0
        g2 = g0 ^ BooleanFunction.linear(4, 4)   # + y_0, pairs with x_0
        with pytest.raises(DualSumNonzero):
            mesnager_secondary(g0, g1, g2)
        maj = BooleanFunction(4, (g0.table & g1.table) ^ (g0.table & g2.table)
                              ^ (g1.table & g2.table))
        assert classify(wht(maj)).kind != "Bent"

    def test_rejects_non_bent(self):
        with pytest.raises(NotBent):
            mesnager_secondary(BooleanFunction.constant(4), IP4, IP4)


class TestTransforms:
    def test_identity(self):
        for f in (SEED22, SEED33):
            assert apply_equivalence(f, identity_transform(f.n, f.k)) == f

    def test_a_only_preserves_norm_multiset(self, rng):
        # precomposition permutes the spectrum, for arbitrary functions
        for _ in range(20):
            n, k = (3, 2) if rng.integers(2) else (2, 3)
            f = GeneralizedBooleanFunction(n, k,
                                           rng.integers(0, 1 << k, size=1 << n))
            t = LinearTransform(random_invertible(rng, n),
                                np.eye(k - 1, dtype=np.uint8))
            assert norm_multiset(apply_equivalence(f, t)) == norm_multiset(f)

    def test_gbent_preserved(self, rng):
        for f in (SEED22, SEED32, SEED33, SEED43):
            mask = None if f.n % 2 == 0 else \
                bent_space_report(f).odd_split_subspace
            for _ in range(10):
                t = random_transform(rng, f.n, f.k, l1_mask=mask)
                g = apply_equivalence(f, t, l1_mask=mask)
                assert is_gbent_direct(g).verdict
                assert norm_multiset(g) == norm_multiset(f)

    def test_non_gbent_preserved(self, rng):
        for _ in range(20):
            f = GeneralizedBooleanFunction(3, 2, rng.integers(0, 4, size=8))
            if is_gbent_direct(f).verdict:
                continue
            t = random_transform(rng, 3, 2)
            assert not is_gbent_direct(apply_equivalence(f, t)).verdict

    def test_b_mask_stays_in_space(self):
        t = LinearTransform(np.eye(2, dtype=np.uint8),
                            np.eye(1, dtype=np.uint8), b_mask=1)
        g = apply_equivalence(SEED22, t)
        assert is_gbent_direct(g).verdict
        # top coordinate becomes a_1 + a_0
        assert g.coordinate(1) == SEED22.coordinate(1) ^ SEED22.coordinate(0)

    def test_l1_guard(self):
        swap = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        t = LinearTransform(np.eye(3, dtype=np.uint8), swap)
        with pytest.raises(GbentError, match=r"does not fix the splitting subspace"):
            apply_equivalence(SEED33, t, l1_mask=2)
        fixing = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        t2 = LinearTransform(np.eye(3, dtype=np.uint8), fixing)
        assert is_gbent_direct(apply_equivalence(SEED33, t2, l1_mask=2)).verdict

    def test_swap_breaks_odd_representation(self):
        # a B that moves the splitting subspace yields a function that is
        # not gbent as represented, even though the structural report still
        # finds the (relocated) subspace; this is exactly why the guard
        # exists for odd n
        assert bent_space_report(SEED33).odd_split_subspace == 2
        swap = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        t = LinearTransform(np.eye(3, dtype=np.uint8), swap)
        g = apply_equivalence(SEED33, t)
        assert not is_gbent_direct(g).verdict
        rep = bent_space_report(g)
        assert rep.all_hold and rep.odd_split_subspace == 1

    def test_singular_rejected(self):
        bad = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(GbentError, match=r"A is singular"):
            LinearTransform(bad, np.eye(1, dtype=np.uint8))
        with pytest.raises(GbentError, match=r"B is singular"):
            LinearTransform(np.eye(2, dtype=np.uint8),
                            np.zeros((1, 1), dtype=np.uint8))

    def test_shape_mismatch(self):
        t = identity_transform(3, 2)
        with pytest.raises(GbentError, match=r"A is 3x3, function has n=2"):
            apply_equivalence(SEED22, t)
        t2 = LinearTransform(np.eye(2, dtype=np.uint8),
                             np.eye(2, dtype=np.uint8))
        with pytest.raises(GbentError, match=r"B is 2x2, function has k=2"):
            apply_equivalence(SEED22, t2)

    def test_random_invertible_always_invertible(self, rng):
        from gbent.constructions import _f2_rank
        for size in (1, 2, 4, 6):
            for _ in range(5):
                assert _f2_rank(random_invertible(rng, size)) == size

    def test_random_transform_respects_mask(self, rng):
        from gbent.constructions import _fixes_mask
        for _ in range(10):
            t = random_transform(rng, 3, 4, l1_mask=4)
            assert _fixes_mask(t.B, 4)


class TestLift:
    def test_identity_when_r_equals_k(self):
        assert lift(SEED22, 2) == SEED22
        assert lift(SEED33, 3) == SEED33

    def test_even_lift(self):
        g = lift(SEED22, 3)
        assert g.k == 3
        assert is_gbent_direct(g).verdict
        # a_0 kept, a_1 moved to the top position
        assert g.coordinate(0) == SEED22.coordinate(0)
        assert g.coordinate(1) == BooleanFunction.constant(2)
        assert g.coordinate(2) == SEED22.coordinate(1)

    def test_odd_lift_matches_doubling(self):
        assert lift(SEED32, 3) == SEED33

    def test_odd_lift_k3(self):
        g = lift(SEED33, 4)
        assert g.k == 4
        assert is_gbent_direct(g).verdict
        assert g.coordinate(2) == SEED33.coordinate(1)
        assert g.coordinate(3) == SEED33.coordinate(2)

    def test_even_seed43(self):
        g = lift(SEED43, 5)
        assert is_gbent_direct(g).verdict

    def test_rejects_small_r(self):
        with pytest.raises(GbentError, match=r"need r >= k"):
            lift(SEED22, 1)

    def test_rejects_non_gbent(self):
        f = GeneralizedBooleanFunction(2, 2, [0, 2, 1, 3])
        with pytest.raises(NotGbent):
            lift(f, 3)
