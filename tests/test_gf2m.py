"""Tests for GF(2^m) arithmetic."""

import numpy as np
import pytest

from gbent.errors import DivisionByZero, GbentError
from gbent.gf2m import Field, _is_irreducible, default_modulus, inverse_exponent

from conftest import gf_mul_naive, gf_trace_naive


def operand_grid(m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Broadcasting operands: all pairs for m <= 6, every a against 16
    seeded b for m = 7, 8, and 512 seeded pairs above."""
    if m <= 6:
        x = np.arange(1 << m)
        return x[:, None], x
    if m <= 8:
        return np.arange(1 << m)[:, None], rng.integers(0, 1 << m, size=16)
    return rng.integers(0, 1 << m, size=(2, 512))


class TestModuli:
    def test_pinned_defaults(self):
        assert default_modulus(4) == 0b10011          # x^4 + x + 1
        assert default_modulus(8) == 0b100011011      # x^8 + x^4 + x^3 + x + 1

    @pytest.mark.parametrize("m", range(2, 17))
    def test_all_defaults_constructible(self, m):
        fld = Field(m)
        assert fld.modulus.bit_length() - 1 == m
        assert _is_irreducible(fld.modulus)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            Field(4, 0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            Field(4, 0b1011)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            Field(1)
        with pytest.raises(ValueError):
            Field(17)

    def test_known_irreducibles(self):
        assert _is_irreducible(0b111)        # x^2 + x + 1
        assert not _is_irreducible(0b110)    # x(x + 1)
        assert not _is_irreducible(0b10001)  # (x + 1)^4


class TestFieldLaws:
    def test_associativity_and_commutativity(self, rng):
        fld = Field(4)
        xs = rng.integers(0, 16, size=(30, 3))
        for a, b, c in xs.tolist():
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))

    def test_identity_and_zero(self):
        fld = Field(5)
        for a in range(fld.order):
            assert fld.mul(a, 1) == a
            assert fld.mul(a, 0) == 0

    def test_distributivity(self, rng):
        fld = Field(6)
        xs = rng.integers(0, 64, size=(30, 3))
        for a, b, c in xs.tolist():
            assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)

    def test_fermat_inverse(self, rng):
        fld = Field(8)
        for a in rng.integers(1, 256, size=20).tolist():
            assert fld.mul(a, fld.inv(a)) == 1
            assert fld.mul(a, fld.pow(a, fld.order - 2)) == 1

    def test_group_order(self):
        fld = Field(4)
        for g in range(1, 16):
            assert fld.pow(g, 15) == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(DivisionByZero):
            Field(4).inv(0)

    def test_pow_conventions(self):
        fld = Field(4)
        assert fld.pow(0, 0) == 1
        assert fld.pow(0, 7) == 0
        assert fld.pow(5, 1) == 5
        with pytest.raises(ValueError):
            fld.pow(3, -1)


class TestElementwise:
    """Array calls against the scalar oracles of conftest."""

    @pytest.mark.parametrize("m", range(2, 17))
    def test_mul(self, m, rng):
        fld = Field(m)
        a, b = operand_grid(m, rng)
        got = fld.mul(a, b)
        want = np.vectorize(lambda x, y: gf_mul_naive(int(x), int(y), fld.modulus))(a, b)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_trace(self, m, rng):
        fld = Field(m)
        a = np.ravel(operand_grid(m, rng)[0])
        want = [gf_trace_naive(int(x), m, fld.modulus) for x in a]
        assert fld.trace(a).tolist() == want

    @pytest.mark.parametrize("m", range(2, 17))
    def test_pow(self, m, rng):
        fld = Field(m)
        a = np.ravel(operand_grid(m, rng)[0])
        want = [1] * len(a)
        for e in range(20):
            assert fld.pow(a, e).tolist() == want
            want = [gf_mul_naive(w, int(x), fld.modulus) for w, x in zip(want, a)]

    def test_int_inputs_give_ints(self):
        fld = Field(8)
        for value in (fld.mul(0x53, 0xCA), fld.trace(0x53), fld.pow(0x53, 11),
                      fld.poly_eval(0b10011, 0x53), fld.find_root(0b10011)):
            assert type(value) is int
        assert fld.mul(0x53, 0xCA) == 1              # the AES field's inverse pair
        assert fld.pow(0x53, 254) == 0xCA


class TestTrace:
    def test_trace_zero(self):
        assert Field(4).trace(0) == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
    def test_balanced(self, m):
        fld = Field(m)
        zeros = sum(1 for x in range(fld.order) if fld.trace(x) == 0)
        assert zeros == fld.order // 2

    def test_linearity(self, rng):
        fld = Field(8)
        xs = rng.integers(0, 256, size=(40, 2))
        for a, b in xs.tolist():
            assert fld.trace(a ^ b) == fld.trace(a) ^ fld.trace(b)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_basis_expansion(self, m):
        fld = Field(m)
        basis = [fld.trace(1 << i) for i in range(m)]
        for a in range(fld.order):
            t = 0
            for i in range(m):
                if (a >> i) & 1:
                    t ^= basis[i]
            assert fld.trace(a) == t

    def test_frobenius_invariance(self, rng):
        fld = Field(6)
        for a in rng.integers(0, 64, size=20).tolist():
            assert fld.trace(fld.mul(a, a)) == fld.trace(a)


class TestRoots:
    def test_quartic_root_in_gf16(self):
        fld = Field(4)
        b = fld.find_root(0b10011)
        assert fld.poly_eval(0b10011, b) == 0
        # with the default modulus the generator x itself is a root
        assert b == 0b10

    def test_quartic_root_in_gf256(self):
        fld = Field(8)
        b = fld.find_root(0b10011)
        assert fld.pow(b, 4) ^ b ^ 1 == 0

    def test_no_root(self):
        # x^2 + x + 1 has no root in GF(8): gcd(2, 3) window excludes GF(4)
        with pytest.raises(GbentError, match=r"has no root in GF\(2\^3\)"):
            Field(3).find_root(0b111)

    def test_poly_eval_horner(self):
        fld = Field(4)
        # x^3 + x + 1 at x = 2 (the generator): 8 ^ 2 ^ 1
        assert fld.poly_eval(0b1011, 2) == 8 ^ 2 ^ 1


class TestInverseExponent:
    def test_paper_exponent(self):
        assert inverse_exponent(11, 4) == 11

    def test_identity(self):
        assert inverse_exponent(1, 6) == 1

    def test_random_verified(self, rng):
        from math import gcd
        for m in (4, 6, 8):
            order = (1 << m) - 1
            for e in rng.integers(1, order, size=10).tolist():
                if gcd(e, order) != 1:
                    continue
                d = inverse_exponent(e, m)
                assert (e * d) % order == 1

    def test_not_coprime(self):
        with pytest.raises(GbentError, match=r"gcd\(3, 15\) = 3 != 1"):
            inverse_exponent(3, 4)  # gcd(3, 15) = 3

    def test_power_map_is_permutation(self):
        fld = Field(4)
        d = inverse_exponent(11, 4)
        image = {fld.pow(y, d) for y in range(16)}
        assert len(image) == 16
