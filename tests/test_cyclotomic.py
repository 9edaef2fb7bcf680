import cmath

import numpy as np
import pytest

from gbent.cyclotomic import (
    CyclotomicInt,
    Sqrt2Decomposition,
    conj,
    norm_squared,
    norm_squared_coeffs,
    sqrt2_decompose,
)
from gbent.errors import GbentError

Z = CyclotomicInt.zeta_pow
I = CyclotomicInt.from_int


def random_cyc(rng, k, bound=100):
    return CyclotomicInt(k, tuple(int(c) for c in rng.integers(-bound, bound + 1, 1 << (k - 1))))


class TestRing:
    def test_gaussian_identity(self):
        # (1 + i)(1 - i) = 2
        assert (I(2, 1) + Z(2, 1)) * (I(2, 1) - Z(2, 1)) == I(2, 2)

    def test_root_order(self):
        assert Z(3, 1) * Z(3, 7) == I(3, 1)
        assert Z(3, 7) == -Z(3, 3)

    def test_sqrt2_squared(self):
        assert (Z(3, 1) - Z(3, 3)) * (Z(3, 1) - Z(3, 3)) == I(3, 2)

    def test_zeta_periodicity(self):
        for k in (1, 2, 3, 4):
            assert Z(k, 1 << k) == I(k, 1)
            assert Z(k, 1 << (k - 1)) == I(k, -1)
            assert Z(k, -1) == Z(k, (1 << k) - 1)

    def test_axioms_random(self, rng):
        for k in (2, 3, 4, 5):
            for _ in range(10):
                a, b, c = (random_cyc(rng, k) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a
                assert a + b == b + a
                assert a - a == CyclotomicInt.zero(k)

    def test_int_coercion(self):
        a = Z(3, 2)
        assert 3 * a == a + a + a
        assert a + 1 == I(3, 1) + a
        assert 1 - a == -(a - 1)

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            Z(2, 1) + Z(3, 1)

    def test_overflow_checked(self):
        with pytest.raises(OverflowError):
            CyclotomicInt(2, (1 << 63, 0))
        with pytest.raises(OverflowError):
            I(2, 1 << 62) * I(2, 4)

    def test_rendering(self):
        assert str(I(3, 0)) == "0 (z = zeta_8)"
        assert str(I(2, 1) + Z(2, 1) * 2) == "1 + 2*z (z = zeta_4)"
        assert str(-Z(3, 3)) == "-z^3 (z = zeta_8)"


class TestConj:
    def test_examples(self):
        assert conj(Z(2, 1)) == -Z(2, 1)
        assert conj(I(3, 1) + Z(3, 1)) == I(3, 1) - Z(3, 3)

    def test_involution_and_realness(self, rng):
        for _ in range(100):
            a = random_cyc(rng, 4)
            assert conj(conj(a)) == a
            nsq = norm_squared(a)
            # |a|^2 lies in the real subfield: fixed by conjugation, and its
            # float shadow has vanishing imaginary part
            assert conj(nsq) == nsq
            assert abs(nsq.complex_value().imag) < 1e-9
            assert abs(nsq.complex_value().real - abs(a.complex_value()) ** 2) < 1e-6

    def test_norm_positive_definite(self, rng):
        assert norm_squared(CyclotomicInt.zero(3)).is_zero()
        for _ in range(20):
            a = random_cyc(rng, 3, bound=5)
            if not a.is_zero():
                assert norm_squared(a).complex_value().real > 0


class TestNormSquared:
    def test_roots_have_norm_one(self):
        for k in (1, 2, 3, 4):
            for r in range(1 << k):
                assert norm_squared(Z(k, r)) == I(k, 1)

    def test_sqrt2(self):
        assert norm_squared(Z(3, 1) - Z(3, 3)) == I(3, 2)

    def test_gaussian(self):
        assert norm_squared(I(2, 3) + 4 * Z(2, 1)) == I(2, 25)

    def test_as_rational(self):
        assert norm_squared(I(2, 3) + 4 * Z(2, 1)).as_rational() == 25
        assert (I(3, 1) + Z(3, 1)).as_rational() is None

    def test_batch_matches_scalar(self, rng):
        # the basis on axis 1 of shapes (P, m), (P, m, F) and (P, m, F, N);
        # coefficients up to 2^24, the n <= 24 bound, so products reach 2^48;
        # strided and moved-axis views
        for k in range(1, 8):
            m = 1 << (k - 1)
            for points, trail in [(1, ()), (5, ()), (3, (4,)), (2, (3, 2))]:
                for bound in (20, 1 << 24):
                    C = rng.integers(-bound, bound + 1, size=(points, m) + trail, dtype=np.int64)
                    views = [C, np.moveaxis(np.ascontiguousarray(np.moveaxis(C, 1, 0)), 0, 1),
                             np.repeat(C, 2, axis=0)[::2]]
                    if trail:
                        views.append(np.moveaxis(np.ascontiguousarray(np.moveaxis(C, 1, -1)), -1, 1))
                    for V in views:
                        before = V.copy()
                        batch = norm_squared_coeffs(V)
                        assert np.array_equal(V, before)
                        assert batch.shape == V.shape
                        for idx in np.ndindex(points, *trail):
                            at = (idx[0], slice(None)) + idx[1:]
                            scalar = norm_squared(CyclotomicInt(k, tuple(int(c) for c in V[at])))
                            assert tuple(int(c) for c in batch[at]) == scalar.coeffs


class TestSqrt2Decompose:
    def test_needs_k_at_least_3(self):
        with pytest.raises(GbentError, match=r"sqrt\(2\) decomposition needs k >= 3"):
            sqrt2_decompose(2, 0)

    def test_j_range(self):
        with pytest.raises(ValueError):
            sqrt2_decompose(3, 4)

    def test_k3_cases(self):
        assert sqrt2_decompose(3, 0) == Sqrt2Decomposition(3, 0, 1, 3, 1, -1)
        assert sqrt2_decompose(3, 1) == Sqrt2Decomposition(3, 1, 0, 2, 1, 1)
        assert sqrt2_decompose(3, 3) == Sqrt2Decomposition(3, 3, 0, 2, -1, 1)

    def test_value_squares_to_2_zeta_2j(self):
        for k in (3, 4, 5):
            for j in range(1 << (k - 1)):
                dec = sqrt2_decompose(k, j)
                assert 0 <= dec.J1 < dec.J2 < (1 << (k - 1))
                assert dec.J2 - dec.J1 == 1 << (k - 2)
                v = dec.value()
                assert norm_squared(v) == I(k, 2)
                assert v * v == 2 * Z(k, 2 * j)
                # float shadow pins the overall sign
                target = cmath.sqrt(2) * cmath.exp(2j * cmath.pi * j / (1 << k))
                assert abs(v.complex_value() - target) < 1e-9

    def test_uniqueness_by_exhaustive_scan(self):
        # among all candidates s1 zeta^{J1} + s2 zeta^{J2} with
        # J2 - J1 = 2^{k-2}, exactly one equals sqrt(2) zeta^j
        for k in (3, 4, 5):
            m = 1 << (k - 1)
            for j in range(m):
                target = cmath.sqrt(2) * cmath.exp(2j * cmath.pi * j / (1 << k))
                hits = []
                for J1 in range(m - (1 << (k - 2))):
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            cand = s1 * Z(k, J1) + s2 * Z(k, J1 + (1 << (k - 2)))
                            if abs(cand.complex_value() - target) < 1e-9:
                                hits.append((J1, J1 + (1 << (k - 2)), s1, s2))
                dec = sqrt2_decompose(k, j)
                assert hits == [(dec.J1, dec.J2, dec.s1, dec.s2)]


class TestFloatShadow:
    def test_agreement(self, rng):
        for k in (1, 2, 3, 5):
            zeta = cmath.exp(2j * cmath.pi / (1 << k))
            for _ in range(20):
                a = random_cyc(rng, k, bound=1 << 20)
                direct = sum(c * zeta**j for j, c in enumerate(a.coeffs))
                assert abs(a.complex_value() - direct) < 1e-9 * max(1.0, abs(direct))
