"""Batch sweep kernels against the naive oracles and the consensus verdict."""

import hashlib
import itertools

import numpy as np
import pytest

import gbent.sweep
from gbent.analysis import is_gbent
from gbent.boolfn import BooleanFunction
from gbent.cyclotomic import CyclotomicInt, norm_squared
from gbent.errors import GbentError
from gbent.gbf import GeneralizedBooleanFunction, component_walsh, gwht_coeffs
from gbent.sweep import (
    CHUNK,
    _split_spectra,
    batch_component_walsh,
    batch_direct_flat,
    batch_quadruple_verdict,
    chunk_rows,
    exhaustive_values,
    random_values,
    search_gbent,
    sweep_exhaustive,
    sweep_three_routes,
    walsh_routes,
)

from conftest import gwht_naive_at, wht_naive


def naive_flat(n, k, values):
    """Per-u mask |H_f(u)|^2 = 2^n from the definitional GWHT sums."""
    target = CyclotomicInt.from_int(k, 1 << n)
    return np.array([norm_squared(gwht_naive_at(values, n, k, u)) == target
                     for u in range(1 << n)])


KERNEL_SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 3), (3, 3), (4, 4), (5, 4)]

# sha256 of the concatenated verdict bytes, gbent count and mismatch count,
# as the kernels gave them before the function axis moved last
PINNED_SWEEPS = {
    "GB_2^16": (1408, 0, "308ce92ddbe9cdb1c31ce26e39eb47946414ec5d8683e649cbb5ad4baeb24956"),
    "GB_3^4": (896, 0, "6f41ea689d187c39d494702b819ae47ebd6e2da1a2117ee06061d26ed95fbc68"),
    "GB_3^8 first 64 chunks": (
        96, 0, "53a1560c8c4e7b948c849d7fec826a4c3d0f7ddca451f352d0b570889509ae71"),
}


def pinned_sweep(name):
    if name == "GB_2^16":
        return [sweep_exhaustive(2, 4)]
    if name == "GB_3^4":
        return [sweep_exhaustive(3, 2)]
    return [sweep_three_routes(3, 3, V)
            for V in itertools.islice(exhaustive_values(3, 3), 64)]


class TestBatchKernels:
    @pytest.mark.parametrize("n,k", KERNEL_SHAPES)
    def test_matches_scalar_routes(self, rng, n, k):
        # the scalar reference is the per-u definitional sum, not a route
        V = random_values(rng, n, k, 40)
        direct = batch_direct_flat(n, k, V.T)
        _, _, (_, _, spectral), quadruple = walsh_routes(n, k, V.T)
        if k >= 2:
            quad = batch_quadruple_verdict(*quadruple)
        for i in range(len(V)):
            want = naive_flat(n, k, V[i])
            assert (direct[:, i] == want).all()
            assert (spectral[:, i] == want).all()
            if k >= 2:
                assert quad[i] == want.all()

    @pytest.mark.parametrize("n,k", KERNEL_SHAPES)
    def test_batch_is_stack_of_single_calls(self, rng, n, k):
        # a 1-D value table has the batch layout without the function axis
        V = random_values(rng, n, k, 40)
        hits, _ = search_gbent(n, k, count=4000, rng=rng)
        V = np.vstack([V, hits[:8]])

        def kernels(values):
            W, _, (r, sign, spectral), quadruple = walsh_routes(n, k, values)
            return [batch_direct_flat(n, k, values), W, spectral, *(quadruple or ()),
                    *(c for c in (r, sign) if c is not None)]

        batch = kernels(np.ascontiguousarray(V.T))
        for i, values in enumerate(V):
            for got, want in zip(batch, kernels(values), strict=True):
                assert got.shape[-1] == len(V)
                assert np.array_equal(got[..., i], want)

    def test_component_walsh_values(self, rng):
        for n, k in [(2, 1), (3, 2), (3, 3), (4, 4)]:
            V = random_values(rng, n, k, 5)
            W = batch_component_walsh(n, k, V.T)
            for i, values in enumerate(V):
                bits = [(values >> j) & 1 for j in range(k)]
                for c in range(1 << (k - 1)):
                    # g_c = a_{k-1} + sum of the a_j with bit j of c set
                    g = bits[k - 1].copy()
                    for j in range(k - 1):
                        if (c >> j) & 1:
                            g ^= bits[j]
                    want = wht_naive(BooleanFunction(n, g.astype(np.uint8)))
                    assert (W[:, c, i] == want).all()


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

    @pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
    def test_pinned_verdicts(self, name):
        parts = pinned_sweep(name)
        verdicts = np.concatenate([res.verdicts for res in parts])
        got = (sum(res.gbent_count for res in parts),
               sum(len(res.mismatches) for res in parts),
               hashlib.sha256(verdicts.tobytes()).hexdigest())
        assert verdicts.dtype == bool
        assert got == PINNED_SWEEPS[name]


# every space with k 2^n <= 16
SMALL_SPACES = [(n, k) for n in range(1, 5) for k in range(1, 13) if k << n <= 16]


def chunk_kernels(V, k):
    """gwht_coeffs and component_walsh of one exhaustive_values chunk."""
    V = np.ascontiguousarray(V.T)
    return gwht_coeffs(V, k), component_walsh(V, k)


def per_chunk_sweep(n, k):
    """(total, count, verdicts, mismatches) of sweep_three_routes chunk by chunk."""
    parts = [sweep_three_routes(n, k, V) for V in exhaustive_values(n, k)]
    starts = itertools.accumulate((res.total for res in parts), initial=0)
    return (sum(res.total for res in parts), sum(res.gbent_count for res in parts),
            np.concatenate([res.verdicts for res in parts]),
            tuple(s + i for res, s in zip(parts, starts) for i in res.mismatches))


class TestSplitSpectra:
    """Chunk spectra as suffix tables plus prefix terms, against the kernels."""

    @pytest.mark.parametrize("n,k,chunks", [
        (2, 2, None), (3, 1, None), (1, 6, None), (2, 4, None), (3, 2, None),
        (4, 1, None), (1, 7, None), (2, 5, 16), (3, 3, 16)])
    def test_chunks_equal_kernels_of_enumeration(self, n, k, chunks):
        split = _split_spectra(n, k, (gwht_coeffs, component_walsh))
        pairs = itertools.islice(itertools.zip_longest(split, exhaustive_values(n, k)), chunks)
        seen = 0
        for got, V in pairs:
            assert got is not None and V is not None
            for table, want in zip(got, chunk_kernels(V, k), strict=True):
                assert table.dtype == want.dtype == np.int8
                assert np.array_equal(table, want)
            seen += 1
        assert seen == (chunks or -(-(1 << (k << n)) // CHUNK))

    @pytest.mark.parametrize("n,k", [(2, 2), (1, 6), (2, 4), (2, 5), (1, 7), (4, 1), (1, 12)])
    def test_suffix_is_the_largest_that_fits(self, n, k):
        # the first kernel call is the suffix tables: 2^{sk} <= CHUNK functions,
        # s points, and one more point would not fit; a space of one chunk
        # makes that call only
        sizes = []

        def recorded(V, k):
            sizes.append(V.shape[1])
            return gwht_coeffs(V, k)

        next(_split_spectra(n, k, (recorded,)))
        s = sizes[0].bit_length() - 1
        assert s % k == 0 and sizes[0] <= CHUNK
        s //= k
        if s == 1 << n:
            assert sizes == [sizes[0]] == [1 << (k << n)]
        else:
            assert 1 << ((s + 1) * k) > CHUNK
            assert max(sizes) <= CHUNK

    @pytest.mark.parametrize("n,k,chunk", [(3, 3, CHUNK), (4, 1, CHUNK), (4, 1, 16)])
    def test_extreme_prefix_term(self, monkeypatch, n, k, chunk):
        # every prefix value 2^{k-1}: zeta^{2^{k-1}} = -1 and component sign
        # -1 at every prefix point, so D_0(0) = -2 (2^n - s), the bound
        monkeypatch.setattr("gbent.sweep.CHUNK", chunk)
        N = 1 << n
        s = min(N, (chunk.bit_length() - 1) // k)
        Q, P = 1 << (s * k), chunk >> (s * k)
        p = sum((1 << (k - 1)) << (k * j) for j in range(N - s))
        c, col = divmod(p, P)
        split = _split_spectra(n, k, (gwht_coeffs, component_walsh))
        C, W = next(itertools.islice(split, c, None))
        V = next(itertools.islice(exhaustive_values(n, k), c, None))
        assert (V[col * Q, :N - s] == 1 << (k - 1)).all() and not V[col * Q, N - s:].any()
        for table, want in zip((C, W), chunk_kernels(V, k), strict=True):
            assert np.array_equal(table, want)
            # the zero function's spectrum at u = 0 is 2^n, so this is 2^n + D_0(0)
            assert table[0, 0, col * Q] == N - 2 * (N - s)

    @pytest.mark.parametrize("n,k", SMALL_SPACES)
    def test_sweep_equals_per_chunk_sweeps(self, n, k):
        res = sweep_exhaustive(n, k)
        total, count, verdicts, mismatches = per_chunk_sweep(n, k)
        assert (res.total, res.gbent_count, res.mismatches) == (total, count, mismatches)
        assert res.verdicts.dtype == bool and np.array_equal(res.verdicts, verdicts)

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 2), (1, 3)])
    def test_mismatches_are_global_indices(self, monkeypatch, n, k):
        # a spectral pass that fails function 3 of every chunk is a mismatch
        # there, named by its index in the space, on both paths
        spectral_pass = gbent.sweep.batch_spectral_pass

        def broken(n, k, W, halves):
            r, sign, mask = spectral_pass(n, k, W, halves)
            mask[:, 3] = ~mask[:, 3]
            return r, sign, mask

        monkeypatch.setattr("gbent.sweep.batch_spectral_pass", broken)
        res = sweep_exhaustive(n, k)
        want = per_chunk_sweep(n, k)[3]
        assert res.mismatches == want == tuple(range(3, res.total, CHUNK))

    @pytest.mark.parametrize("n,k", SMALL_SPACES)
    def test_search_hits_equal_per_chunk_path(self, n, k):
        want = np.concatenate([V[batch_direct_flat(n, k, np.ascontiguousarray(V.T)).all(axis=0)]
                               for V in exhaustive_values(n, k)])
        found, total = search_gbent(n, k)
        assert total == 1 << (k << n)
        assert found.dtype == np.int64 and np.array_equal(found, want)


class TestEnumeration:
    def test_lexicographic_order(self, monkeypatch):
        monkeypatch.setattr("gbent.sweep.CHUNK", 7)
        chunks = list(exhaustive_values(1, 2))
        assert [len(c) for c in chunks] == [7, 7, 2]
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
        assert found.shape == (64, 4) and found.dtype == np.int64
        tables = [tuple(row) for row in found.tolist()]
        assert tables == sorted(tables)

    def test_random_search_verified(self, rng):
        found, total = search_gbent(2, 2, count=300, rng=rng)
        assert total == 300
        for values in found:
            assert is_gbent(GeneralizedBooleanFunction(2, 2, values))

    def test_random_search_streams_chunks(self, monkeypatch):
        # CHUNK functions per kernel call, and the seeded hits of one block
        sizes = []

        def counted(n, k, V):
            sizes.append(V.shape[1])
            return batch_direct_flat(n, k, V)

        monkeypatch.setattr("gbent.sweep.batch_direct_flat", counted)
        count = 2 * CHUNK + 1808
        found, total = search_gbent(2, 2, count=count, rng=np.random.default_rng(17))
        V = random_values(np.random.default_rng(17), 2, 2, count)
        want = V[batch_direct_flat(2, 2, np.ascontiguousarray(V.T)).all(axis=0)]
        assert total == count and len(found) == len(want) > 0
        assert np.array_equal(found, want)
        assert max(sizes) == CHUNK == 4096 and sizes.count(CHUNK) >= 2

    def test_random_chunk_bounded_by_entries(self, monkeypatch):
        # at n = 12 a block of 16 functions holds 16 CHUNK values; the blocks
        # are the one-block draw, cut in order
        blocks = []

        def recorded(n, k, V):
            blocks.append(V.T.copy())
            return batch_direct_flat(n, k, V)

        monkeypatch.setattr("gbent.sweep.batch_direct_flat", recorded)
        count = 3 * 16 + 5
        found, total = search_gbent(12, 2, count=count, rng=np.random.default_rng(4))
        V = random_values(np.random.default_rng(4), 12, 2, count)
        want = V[batch_direct_flat(12, 2, np.ascontiguousarray(V.T)).all(axis=0)]
        assert chunk_rows(12) == 16 and chunk_rows(4) == chunk_rows(1) == CHUNK
        assert [len(b) for b in blocks] == [16, 16, 16, 5]
        assert np.array_equal(np.concatenate(blocks), V)
        assert total == count and np.array_equal(found, want)
        assert found.shape == (len(want), 1 << 12) and found.dtype == np.int64

    def test_hits_verified_as_they_pile_up(self, monkeypatch):
        # each three-route sweep sees at most CHUNK hits, the first one long
        # before the last draw, and together they see every hit once, in order
        draws, sweeps = [], []

        def drawn(*args):
            draws.append(random_values(*args))
            return draws[-1]

        def swept(n, k, V):
            sweeps.append((len(draws), V.copy()))
            return sweep_three_routes(n, k, V)

        monkeypatch.setattr("gbent.sweep.random_values", drawn)
        monkeypatch.setattr("gbent.sweep.sweep_three_routes", swept)
        found, total = search_gbent(2, 2, count=12 * CHUNK, rng=np.random.default_rng(8))
        assert total == 12 * CHUNK and len(draws) == 12
        assert max(len(V) for _, V in sweeps) == CHUNK < len(found)
        assert sweeps[0][0] < len(draws) // 2
        assert np.array_equal(np.concatenate([V for _, V in sweeps]), found)
