import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbent.boolfn import (
    BooleanFunction,
    SpectralClass,
    WalshSpectrum,
    classify,
    dual,
    fwht_,
    wht,
)
from gbent.errors import FormatError, NotBent

from conftest import random_boolfn, wht_naive


def bf(n, table):
    return BooleanFunction(n, np.array(table, dtype=np.uint8))


AND2 = bf(2, [0, 0, 0, 1])  # x0 x1


class TestWht:
    def test_constant_zero(self):
        assert list(wht(BooleanFunction.constant(2, 0)).values) == [4, 0, 0, 0]

    def test_quadratic_bent(self):
        assert list(wht(AND2).values) == [2, 2, 2, -2]

    def test_linear_concentrates(self):
        spec = wht(BooleanFunction.linear(3, 5))
        expected = np.zeros(8, dtype=np.int64)
        expected[5] = 8
        assert np.array_equal(spec.values, expected)

    def test_matches_naive_oracle(self, rng):
        for n in range(1, 9):
            for _ in range(8):
                f = random_boolfn(rng, n)
                assert np.array_equal(wht(f).values, wht_naive(f))

    @given(st.integers(1, 6), st.integers(0, 2**63))
    @settings(max_examples=60, deadline=None)
    def test_parseval_and_parity(self, n, seed):
        f = random_boolfn(np.random.default_rng(seed), n)
        spec = wht(f)  # WalshSpectrum construction enforces both invariants
        assert int(spec.values[0]) == (1 << n) - 2 * f.weight()

    def test_fwht_scaled_involution(self, rng):
        a = rng.integers(-50, 50, size=64).astype(np.int64)
        b = a.copy()
        fwht_(b)
        fwht_(b)
        assert np.array_equal(b, 64 * a)

    def test_fwht_axis(self, rng):
        a = rng.integers(-5, 5, size=(8, 4, 3)).astype(np.int64)
        out = fwht_(a.copy(), axis=0)
        for i in range(4):
            for j in range(3):
                assert np.array_equal(out[:, i, j], fwht_(a[:, i, j].copy()))

    def test_fwht_rejects_bad_length(self):
        with pytest.raises(ValueError):
            fwht_(np.zeros(6, dtype=np.int64))


class TestClassify:
    def test_bent(self):
        assert classify(wht(AND2)) == SpectralClass("Bent", 0)

    def test_constant_is_plateaued_n(self):
        assert classify(wht(BooleanFunction.constant(2))) == SpectralClass("Plateaued", 2)

    def test_affine_never_semibent(self):
        # single-spike spectra report s = n even when n is odd
        assert classify(wht(BooleanFunction.linear(1, 1))) == SpectralClass("Plateaued", 1)
        assert classify(wht(BooleanFunction.linear(3, 5, const=1))) == SpectralClass("Plateaued", 3)

    def test_semibent(self):
        f = bf(3, [0, 0, 0, 1, 1, 1, 1, 0])  # x0 x1 + x2
        assert classify(wht(f)) == SpectralClass("SemiBent", 1)

    def test_plateaued_middle(self):
        f = bf(4, [0, 0, 0, 1] * 4)  # x0 x1 viewed on 4 variables
        assert classify(wht(f)) == SpectralClass("Plateaued", 2)

    def test_general(self):
        f = bf(3, [0, 0, 0, 0, 0, 0, 0, 1])  # x0 x1 x2, W(0) = 6
        assert classify(wht(f)).kind == "General"

    def test_parity_invariant(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(40):
                c = classify(wht(random_boolfn(rng, n)))
                if c.kind == "Bent":
                    assert n % 2 == 0
                if c.kind == "SemiBent":
                    assert n % 2 == 1
                if c.kind == "Plateaued":
                    assert (c.s - n) % 2 == 0


class TestWalshSpectrum:
    def test_rejects_parseval_violation(self):
        with pytest.raises(ValueError):
            WalshSpectrum(2, np.array([2, 2, 2, 2**10], dtype=np.int64))

    def test_rejects_odd_values(self):
        # passes Parseval (49+9+4+1+1 = 64) but has odd entries
        with pytest.raises(ValueError):
            WalshSpectrum(3, np.array([7, 3, 2, 1, 1, 0, 0, 0], dtype=np.int64))

    def test_handmade_bent_values(self):
        assert classify(WalshSpectrum(2, np.array([2, 2, 2, -2]))) == SpectralClass("Bent", 0)


class TestDual:
    def test_and_is_self_dual(self):
        assert dual(AND2) == AND2

    def test_inner_product_dual(self):
        # f(x, y) = x . y on F_2^2 x F_2^2; its dual is u . v
        x = np.arange(16)
        tab = (np.bitwise_count((x & 3) & ((x >> 2) & 3)) & 1).astype(np.uint8)
        f = BooleanFunction(4, tab)
        assert dual(f) == f

    def test_involution(self, rng):
        found = 0
        while found < 5:
            f = random_boolfn(rng, 4)
            if classify(wht(f)).kind != "Bent":
                continue
            found += 1
            assert dual(dual(f)) == f

    def test_not_bent_raises(self):
        with pytest.raises(NotBent):
            dual(BooleanFunction.constant(2))
        with pytest.raises(NotBent):
            dual(bf(3, [0, 0, 0, 1, 1, 0, 0, 0]))  # semi-bent, odd n


class TestTextHex:
    def test_text_round_trip(self, rng):
        f = random_boolfn(rng, 5)
        assert BooleanFunction.from_text(f.to_text()) == f

    def test_text_tolerates_comments(self):
        f = BooleanFunction.from_text("# a comment\n2\n# another\n0110\n")
        assert f == bf(2, [0, 1, 1, 0])

    def test_text_errors(self):
        for bad in ["", "x\n0101", "2\n010", "2\n01a1", "99\n01"]:
            with pytest.raises(FormatError):
                BooleanFunction.from_text(bad)

    def test_hex_round_trip(self, rng):
        for n in (2, 4, 7):
            f = random_boolfn(rng, n)
            assert BooleanFunction.from_hex(f.to_hex(), n) == f
            assert BooleanFunction.from_hex(f.to_hex()) == f

    def test_hex_known_value(self):
        # table 0001 -> nibble 0b0001 = 1
        assert AND2.to_hex() == "1"
        assert bf(2, [1, 0, 0, 0]).to_hex() == "8"

    def test_hex_errors(self):
        with pytest.raises(FormatError):
            BooleanFunction.from_hex("123")  # 12 bits, not a power of two
        with pytest.raises(FormatError):
            BooleanFunction.from_hex("1g")
        with pytest.raises(FormatError):
            BooleanFunction.linear(1, 1).to_hex()


class TestBasics:
    def test_xor_and_complement(self, rng):
        f, g = random_boolfn(rng, 4), random_boolfn(rng, 4)
        assert np.array_equal((f ^ g).table, f.table ^ g.table)
        assert (f ^ f.complement()) == BooleanFunction.constant(4, 1)

    def test_eq_hash(self):
        assert AND2 == bf(2, [0, 0, 0, 1])
        assert hash(AND2) == hash(bf(2, [0, 0, 0, 1]))
        assert AND2 != bf(2, [0, 0, 1, 1])

    def test_call(self):
        assert [AND2(x) for x in range(4)] == [0, 0, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            BooleanFunction(0, np.zeros(1, dtype=np.uint8))
        with pytest.raises(ValueError):
            BooleanFunction(2, np.array([0, 1, 2, 0], dtype=np.uint8))

    def test_table_is_frozen(self):
        with pytest.raises(ValueError):
            AND2.table[0] = 1
