"""Tests for gbent duals and the generalized Gray map."""

import itertools

import numpy as np
import pytest

from gbent.analysis import is_gbent_direct
from gbent.boolfn import BooleanFunction, classify, dual, wht
from gbent.cyclotomic import CyclotomicInt
from gbent.duality import (
    GrayImage,
    dual_gbent,
    gray_map,
    gray_walsh_identity,
    verify_gray_plateaued,
)
from gbent.errors import GbentError, IndexOutOfRange, NotGbent
from gbent.gbf import GeneralizedBooleanFunction, components, gwht

IP4 = [(x & 1) * ((x >> 2) & 1) ^ ((x >> 1) & 1) * ((x >> 3) & 1)
       for x in range(16)]
SEED22 = GeneralizedBooleanFunction(2, 2, [0, 1, 0, 3])
SEED32 = GeneralizedBooleanFunction(3, 2, [0, 0, 0, 2, 1, 1, 1, 3])
SEED33 = GeneralizedBooleanFunction(3, 3, 2 * SEED32.values)
SEED43 = GeneralizedBooleanFunction(
    4, 3, [(x & 1) + 2 * ((x >> 1) & 1) + 4 * IP4[x] for x in range(16)])


def all_gbent(n, k):
    for vals in itertools.product(range(1 << k), repeat=1 << n):
        f = GeneralizedBooleanFunction(n, k, vals)
        if is_gbent_direct(f).verdict:
            yield f


def random_gbf(rng, n, k):
    return GeneralizedBooleanFunction(n, k, rng.integers(0, 1 << k, size=1 << n))


class TestDual:
    def test_quadratic_self_dual(self):
        # a_1 = x0 x1, a_0 = 0
        f = GeneralizedBooleanFunction(2, 2, [0, 0, 0, 2])
        assert dual_gbent(f) == f

    def test_defining_identity(self):
        for f in (SEED22, SEED43):
            fd = dual_gbent(f)
            spec = gwht(f)
            c = 1 << (f.n // 2)
            for u in range(1 << f.n):
                zeta = CyclotomicInt.zeta_pow(f.k, int(fd.values[u]))
                assert spec[u] == c * zeta

    def test_involution_exhaustive(self):
        seen = 0
        for f in all_gbent(2, 2):
            fd = dual_gbent(f)
            assert is_gbent_direct(fd).verdict
            assert dual_gbent(fd) == f
            seen += 1
        assert seen == 64

    def test_component_duality(self):
        for f in (SEED22, SEED43):
            fd = dual_gbent(f)
            for g, h in zip(components(f), components(fd)):
                assert h == dual(g)

    def test_k1_reduces_to_boolean_dual(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        fd = dual_gbent(f)
        assert fd.coordinate(0) == dual(f.coordinate(0))

    def test_rejects_odd_n(self):
        with pytest.raises(GbentError, match=r"no dual is constructed for odd n"):
            dual_gbent(SEED32)

    def test_rejects_non_gbent(self):
        f = GeneralizedBooleanFunction(2, 2, [0, 2, 1, 3])
        with pytest.raises(NotGbent):
            dual_gbent(f)


class TestGrayMap:
    def test_pointwise_formula(self, rng):
        for n, k in [(2, 2), (3, 3), (2, 4)]:
            f = random_gbf(rng, n, k)
            image = gray_map(f)
            assert image.function.n == n + k - 1
            for x in range(1 << n):
                bits = [int(f.coordinate(j)(x)) for j in range(k)]
                for y in range(1 << (k - 1)):
                    val = bits[k - 1]
                    for j in range(k - 1):
                        val ^= ((y >> j) & 1) & bits[j]
                    assert image.function(x + (y << n)) == val

    def test_blocks_are_components(self, rng):
        f = random_gbf(rng, 3, 3)
        image = gray_map(f)
        size = 1 << f.n
        for i, g in enumerate(components(f)):
            block = image.function.table[i * size:(i + 1) * size]
            assert block.tolist() == g.table.tolist()

    def test_zero_maps_to_zero(self):
        f = GeneralizedBooleanFunction(2, 3, [0, 0, 0, 0])
        assert not gray_map(f).function.table.any()

    def test_degenerate_low_coordinates(self):
        # a_0 = a_1 = 0: the image repeats a_2 on every y slice
        f = GeneralizedBooleanFunction(2, 3, [4 * IP4[x] for x in range(4)])
        image = gray_map(f)
        top = f.coordinate(2).table
        assert image.function.table.tolist() == np.tile(top, 4).tolist()

    def test_rejects_k1(self):
        with pytest.raises(GbentError, match=r"the Gray map needs k >= 2"):
            gray_map(GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1]))

    def test_text_emission_round_trip(self):
        image = gray_map(SEED22)
        text = image.to_text()
        assert text.startswith("# gray image")
        assert BooleanFunction.from_text(text) == image.function


class TestGrayWalshIdentity:
    def test_matches_direct_wht(self, rng):
        f = random_gbf(rng, 4, 3)
        w = wht(gray_map(f).function)
        for u in range(16):
            for z in range(4):
                assert gray_walsh_identity(f, u, z) == w[u + (z << 4)]

    def test_holds_for_non_gbent(self, rng):
        for _ in range(5):
            f = random_gbf(rng, 3, 2)
            w = wht(gray_map(f).function)
            for u in range(8):
                for z in range(2):
                    assert gray_walsh_identity(f, u, z) == w[u + (z << 3)]

    def test_zero_function_at_origin(self):
        f = GeneralizedBooleanFunction(3, 3, [0] * 8)
        assert gray_walsh_identity(f, 0, 0) == 4 * 8

    def test_gbent_value_set(self):
        level = 1 << (4 // 2 + 3 - 1)
        vals = {gray_walsh_identity(SEED43, u, z)
                for u in range(16) for z in range(4)}
        assert vals <= {0, level, -level}

    def test_range_checks(self):
        with pytest.raises(IndexOutOfRange):
            gray_walsh_identity(SEED22, 4, 0)
        with pytest.raises(IndexOutOfRange):
            gray_walsh_identity(SEED22, 0, 2)


class TestGrayPlateaued:
    def test_exhaustive_n2_k2(self):
        for f in all_gbent(2, 2):
            cls = verify_gray_plateaued(f)
            assert cls.s == 1
            w = wht(gray_map(f).function)
            assert set(np.abs(w.values).tolist()) <= {0, 4}

    def test_even_k3(self):
        cls = verify_gray_plateaued(SEED43)
        assert cls.kind == "Plateaued" and cls.s == 2

    def test_odd_k2_image_is_bent(self):
        cls = verify_gray_plateaued(SEED32)
        assert cls.kind == "Bent" and cls.s == 0

    def test_odd_k3(self):
        cls = verify_gray_plateaued(SEED33)
        assert cls.kind == "SemiBent" and cls.s == 1

    def test_rejects_non_gbent(self):
        f = GeneralizedBooleanFunction(2, 2, [0, 2, 1, 3])
        with pytest.raises(NotGbent):
            verify_gray_plateaued(f)
