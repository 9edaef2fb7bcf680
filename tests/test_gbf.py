import numpy as np
import pytest

from gbent.boolfn import BooleanFunction, wht
from gbent.cyclotomic import CyclotomicInt, norm_squared, norm_squared_coeffs
from gbent.errors import FormatError, GbentError
from gbent.gbf import (
    GeneralizedBooleanFunction,
    components,
    coordinates,
    gwht,
    gwht_via_components,
)
from gbent.hadamard import zero_sum_quadruples

from conftest import gwht_naive_at, random_boolfn


def gbf(n, k, values):
    return GeneralizedBooleanFunction(n, k, np.array(values, dtype=np.int64))


def random_gbf(rng, n, k):
    return GeneralizedBooleanFunction(n, k, rng.integers(0, 1 << k, size=1 << n))


# a_1 = x0 x1 (bent), a_0 = x0: a known gbent function in GB_2^4
SEED22 = gbf(2, 2, [0, 1, 0, 3])


class TestCoordinates:
    def test_zero(self):
        f = gbf(2, 3, [0, 0, 0, 0])
        assert all(a == BooleanFunction.constant(2) for a in coordinates(f))

    def test_binary_expansion(self):
        f = gbf(2, 3, [5, 0, 0, 0])
        a = coordinates(f)
        assert (a[0](0), a[1](0), a[2](0)) == (1, 0, 1)

    def test_seed_coordinates(self):
        a = coordinates(SEED22)
        assert a[0] == BooleanFunction.linear(2, 1)          # x0
        assert a[1] == BooleanFunction(2, np.array([0, 0, 0, 1], dtype=np.uint8))


class TestComponents:
    def test_k2(self):
        fam = components(SEED22)
        a = coordinates(SEED22)
        assert fam[0] == a[1]
        assert fam[1] == a[0] ^ a[1]

    def test_k3_index3(self, rng):
        f = random_gbf(rng, 3, 3)
        a = coordinates(f)
        fam = components(f)
        assert fam[3] == a[2] ^ a[0] ^ a[1]
        assert fam[0] == a[2]
        assert fam[1] == a[2] ^ a[0]
        assert fam[2] == a[2] ^ a[1]

    def test_xor_closure(self, rng):
        f = random_gbf(rng, 3, 4)
        fam = components(f)
        for j, c, l, v in zero_sum_quadruples(len(fam)):
            assert fam[j] ^ fam[c] ^ fam[l] ^ fam[v] == BooleanFunction.constant(3)

    def test_k1_rejected(self):
        with pytest.raises(GbentError, match=r"component functions need k >= 2"):
            components(gbf(2, 1, [0, 1, 1, 0]))


class TestGwht:
    def test_constant_zero(self):
        f = gbf(2, 3, [0, 0, 0, 0])
        spec = gwht(f)
        assert spec[0] == CyclotomicInt.from_int(3, 4)
        for u in range(1, 4):
            assert spec[u].is_zero()

    def test_top_bit_embedding_matches_wht(self, rng):
        # k=2, f = 2 g: zeta_4^{2 g(x)} = (-1)^{g(x)}
        g = random_boolfn(rng, 3)
        f = gbf(3, 2, 2 * g.table)
        spec = gwht(f)
        w = wht(g)
        for u in range(8):
            assert spec[u] == CyclotomicInt.from_int(2, w[u])

    def test_seed_is_flat(self):
        spec = gwht(SEED22)
        for u in range(4):
            assert norm_squared(spec[u]) == CyclotomicInt.from_int(2, 4)

    def test_matches_naive_definition(self, rng):
        for n, k in [(2, 1), (2, 2), (3, 3), (2, 4), (4, 2)]:
            f = random_gbf(rng, n, k)
            spec = gwht(f)
            for u in range(1 << n):
                assert spec[u] == gwht_naive_at(f.values, n, k, u)

    def test_norms_kept_read_only(self, rng):
        for n, k in [(2, 1), (3, 3), (4, 4)]:
            spec = gwht(random_gbf(rng, n, k))
            norms = spec.norm_squared_all()
            assert np.array_equal(norms, norm_squared_coeffs(spec.coeffs))
            assert not norms.flags.writeable
            with pytest.raises(ValueError):
                norms[0, 0] = 0

    def test_k1_matches_wht(self, rng):
        g = random_boolfn(rng, 4)
        f = gbf(4, 1, g.table)
        spec = gwht(f)
        w = wht(g)
        assert np.array_equal(spec.coeffs[:, 0], w.values)


class TestComponentRoute:
    def test_agreement_random(self, rng):
        for n in (2, 4):
            for k in (2, 3, 4):
                for _ in range(25):
                    f = random_gbf(rng, n, k)
                    assert gwht_via_components(f) == gwht(f)

    def test_alpha_decomposition_k2(self):
        # zeta^v = alpha_0 (-1)^{g_0} + alpha_1 (-1)^{g_1} with
        # alpha_0 = (1 + zeta)/2, alpha_1 = (1 - zeta)/2: check all v in Z_4
        zeta = CyclotomicInt.zeta_pow(2, 1)
        one = CyclotomicInt.from_int(2, 1)
        for v in range(4):
            a1, a0 = v >> 1, v & 1
            g0_sign = 1 - 2 * a1
            g1_sign = 1 - 2 * (a0 ^ a1)
            lhs = 2 * CyclotomicInt.zeta_pow(2, v)
            assert lhs == g0_sign * (one + zeta) + g1_sign * (one - zeta)

    def test_k1_rejected(self):
        with pytest.raises(GbentError, match=r"component functions need k >= 2"):
            gwht_via_components(gbf(2, 1, [0, 1, 1, 0]))


class TestParsevalAndShift:
    def test_generalized_parseval_exhaustive_n2_k2(self):
        for code in range(256):
            vals = [(code >> (2 * x)) & 3 for x in range(4)]
            spec = gwht(gbf(2, 2, vals))  # construction checks Parseval
            total = sum(int(norm_squared(spec[u]).coeffs[0]) for u in range(4))
            assert total == 16

    def test_shift_property(self, rng):
        # adding 2^{k-1} ell (ell linear) to f translates |H|^2 over u
        f = random_gbf(rng, 3, 3)
        ell = BooleanFunction.linear(3, 5)
        shifted = GeneralizedBooleanFunction(
            3, 3, (f.values + 4 * ell.table.astype(np.int64)) % 8)
        base = sorted(tuple(int(c) for c in row) for row in gwht(f).norm_squared_all())
        moved = sorted(tuple(int(c) for c in row) for row in gwht(shifted).norm_squared_all())
        assert base == moved


class TestScaleTruncate:
    def test_scale(self):
        f = gbf(2, 3, [1, 2, 3, 7])
        assert f.scale(3) == gbf(2, 3, [3, 6, 1, 5])
        assert f.scale(1) == f

    def test_truncate(self):
        f = gbf(2, 3, [1, 2, 3, 7])
        assert f.truncate(1) == gbf(2, 2, [1, 2, 3, 3])
        assert f.truncate(2) == gbf(2, 1, [1, 0, 1, 1])
        with pytest.raises(ValueError):
            f.truncate(3)


class TestTextFormat:
    def test_round_trip(self, rng):
        f = random_gbf(rng, 3, 3)
        assert GeneralizedBooleanFunction.from_text(f.to_text()) == f

    def test_comments_and_multiline(self):
        f = GeneralizedBooleanFunction.from_text("# gbent seed\n2 2\n0 1\n0 3\n")
        assert f == SEED22

    def test_errors(self):
        for bad in ["", "2\n0 1 0 3", "2 2\n0 1 0", "2 2\n0 1 0 4",
                    "2 2\n0 1 0 x", "0 2\n", "2 99\n" + "0 " * 4]:
            with pytest.raises(FormatError):
                GeneralizedBooleanFunction.from_text(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            gbf(2, 2, [0, 1, 2, 4])
        with pytest.raises(GbentError, match=r"k must be an integer in \[1, 12\]"):
            gbf(2, 0, [0, 0, 0, 0])

    def test_components_type(self):
        fam = components(SEED22)
        assert isinstance(fam, tuple)
        assert len(fam) == 2
        assert all(isinstance(g, BooleanFunction) for g in fam)
