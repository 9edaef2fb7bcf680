"""Batch sweep kernels against the naive oracles and the consensus verdict."""

import numpy as np
import pytest

from gbent.analysis import is_gbent
from gbent.boolfn import BooleanFunction
from gbent.cyclotomic import CyclotomicInt, norm_squared
from gbent.errors import GbentError
from gbent.gbf import GeneralizedBooleanFunction
from gbent.sweep import (
    batch_component_walsh,
    batch_direct_flat,
    batch_quadruple_verdict,
    batch_spectral_pass,
    exhaustive_values,
    random_values,
    search_gbent,
    sweep_exhaustive,
    sweep_three_routes,
)

from conftest import gwht_naive_at, wht_naive


def naive_flat(n, k, values):
    """Per-u mask |H_f(u)|^2 = 2^n from the definitional GWHT sums."""
    target = CyclotomicInt.from_int(k, 1 << n)
    return np.array([norm_squared(gwht_naive_at(values, n, k, u)) == target
                     for u in range(1 << n)])


class TestBatchKernels:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 2), (3, 2),
                                     (4, 3), (3, 3), (4, 4), (5, 4)])
    def test_matches_scalar_routes(self, rng, n, k):
        # the scalar reference is the per-u definitional sum, not a route
        V = random_values(rng, n, k, 40)
        direct = batch_direct_flat(n, k, V)
        W = batch_component_walsh(n, k, V)
        spectral = batch_spectral_pass(n, k, W)
        if k >= 2:
            quad = batch_quadruple_verdict(n, k, W)
        for i in range(len(V)):
            want = naive_flat(n, k, V[i])
            assert (direct[i] == want).all()
            assert (spectral[i] == want).all()
            if k >= 2:
                assert quad[i] == want.all()

    def test_component_walsh_values(self, rng):
        for n, k in [(2, 1), (3, 2), (3, 3), (4, 4)]:
            V = random_values(rng, n, k, 5)
            W = batch_component_walsh(n, k, V)
            for i, values in enumerate(V):
                bits = [(values >> j) & 1 for j in range(k)]
                for c in range(1 << (k - 1)):
                    # g_c = a_{k-1} + sum of the a_j with bit j of c set
                    g = bits[k - 1].copy()
                    for j in range(k - 1):
                        if (c >> j) & 1:
                            g ^= bits[j]
                    want = wht_naive(BooleanFunction(n, g.astype(np.uint8)))
                    assert (W[i, :, c] == want).all()


class TestSweep:
    def test_exhaustive_gb24_count(self):
        res = sweep_exhaustive(2, 2)
        assert res.total == 256
        assert res.gbent_count == 64
        assert res.agree

    def test_exhaustive_gb14_count(self):
        res = sweep_exhaustive(2, 1)
        assert res.total == 16
        assert res.gbent_count == 8
        assert res.agree

    def test_odd_space_sweep(self):
        res = sweep_exhaustive(1, 2)
        assert res.total == 16
        assert res.agree
        assert res.gbent_count == sum(
            is_gbent(GeneralizedBooleanFunction(1, 2, [a, b]))
            for a in range(4) for b in range(4))

    def test_random_sweep_agreement(self, rng):
        for n, k in [(4, 2), (4, 3), (3, 3), (5, 3), (4, 4)]:
            res = sweep_three_routes(n, k, random_values(rng, n, k, 200))
            assert res.agree, (n, k, res.mismatches)

    def test_verdicts_match_scalar(self, rng):
        V = random_values(rng, 4, 3, 30)
        res = sweep_three_routes(4, 3, V)
        for i in range(30):
            assert res.verdicts[i] == is_gbent(
                GeneralizedBooleanFunction(4, 3, V[i]))


class TestEnumeration:
    def test_lexicographic_order(self):
        chunks = list(exhaustive_values(1, 2, chunk=7))
        V = np.concatenate(chunks)
        assert len(V) == 16
        tuples = [tuple(r) for r in V]
        assert tuples == sorted(tuples)
        assert tuples[0] == (0, 0)
        assert tuples[-1] == (3, 3)

    def test_space_cap(self):
        with pytest.raises(GbentError, match=r"exceeds the enumeration cap"):
            next(exhaustive_values(4, 2))

    def test_random_values_shape(self, rng):
        V = random_values(rng, 3, 4, 17)
        assert V.shape == (17, 8)
        assert V.min() >= 0 and V.max() < 16


class TestSearch:
    def test_exhaustive_search(self):
        found, total = search_gbent(2, 2)
        assert total == 256
        assert len(found) == 64
        tables = [tuple(f.values) for f in found]
        assert tables == sorted(tables)

    def test_random_search_verified(self, rng):
        found, total = search_gbent(2, 2, count=300, rng=rng)
        assert total == 300
        for f in found:
            assert is_gbent(f)
