import itertools

import numpy as np
import pytest

from gbent.errors import GbentError, IndexOutOfRange
from gbent.hadamard import (
    RowMatch,
    match_row,
    products_hold,
    quadruple_condition,
    row,
    zero_sum_quadruples,
)


def all_pm1(length):
    for bits in itertools.product((1, -1), repeat=length):
        yield np.array(bits, dtype=np.int64)


class TestRow:
    def test_h2(self):
        assert list(row(1, 0)) == [1, 1]
        assert list(row(1, 1)) == [1, -1]

    def test_h1(self):
        assert list(row(0, 0)) == [1]

    def test_h4_row3(self):
        assert list(row(2, 3)) == [1, -1, -1, 1]

    def test_row_zero_all_ones(self):
        for k in range(6):
            assert (row(k, 0) == 1).all()

    def test_kronecker_recursion(self):
        H2 = np.array([[1, 1], [1, -1]])
        for k in range(1, 5):
            H = H2
            for _ in range(k - 1):
                H = np.kron(H2, H)
            for r in range(1 << k):
                assert np.array_equal(row(k, r), H[r])

    def test_orthogonality(self):
        for k in range(7):
            for r in range(1 << k):
                for rp in range(1 << k):
                    assert row(k, r) @ row(k, rp) == (1 << k) * (r == rp)

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            row(2, 4)
        with pytest.raises(IndexOutOfRange):
            row(2, -1)
        with pytest.raises(GbentError, match=r"k must be >= 0"):
            row(-1, 0)


class TestMatchRow:
    def test_examples(self):
        assert match_row([1, -1, -1, 1]) == RowMatch(3, 1)
        assert match_row([-1, -1, -1, -1]) == RowMatch(0, -1)
        assert match_row([1, 1, 1, -1]) is None

    def test_recovers_all_rows(self):
        for k in range(7):
            for r in range(1 << k):
                assert match_row(row(k, r)) == RowMatch(r, 1)
                assert match_row(-row(k, r)) == RowMatch(r, -1)

    def test_rejects_perturbed_rows(self, rng):
        for k in (2, 3, 4):
            for _ in range(20):
                r = int(rng.integers(1 << k))
                v = row(k, r).copy()
                v[rng.integers(1 << k)] *= -1
                assert match_row(v) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            match_row([1, -1, 0, 1])
        with pytest.raises(ValueError):
            match_row([1, 1, 1])


class TestZeroSumQuadruples:
    def test_counts(self):
        # number of 2-flats in F_2^t: 2^{t-2} (2^t - 1)(2^t - 2) / 6
        assert len(zero_sum_quadruples(4)) == 1
        assert len(zero_sum_quadruples(8)) == 14
        assert len(zero_sum_quadruples(16)) == 140

    def test_validity(self):
        for size in (4, 8, 16, 32):
            quads = zero_sum_quadruples(size)
            assert len(set(quads)) == len(quads)
            for j, c, l, v in quads:
                assert j < c < l < v < size
                assert j ^ c ^ l ^ v == 0

    def test_refuses_size_beyond_cap(self):
        with pytest.raises(GbentError, match=r"44608256 zero-sum quadruples .* cap is 512"):
            zero_sum_quadruples(1024)

    def test_small_sizes_empty(self):
        assert zero_sum_quadruples(1) == ()
        assert zero_sum_quadruples(2) == ()

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            zero_sum_quadruples(6)


class TestQuadrupleCondition:
    def test_length4_even_minus_count(self):
        good = [w for w in all_pm1(4) if quadruple_condition(w)]
        assert len(good) == 8
        for w in good:
            assert (w == -1).sum() % 2 == 0

    def test_length8_exactly_signed_rows(self):
        signed_rows = {tuple(s * row(3, r)) for r in range(8) for s in (1, -1)}
        good = {tuple(w) for w in all_pm1(8) if quadruple_condition(w)}
        assert good == signed_rows
        assert len(good) == 16

    def test_single_quadruple_failure(self):
        assert not quadruple_condition([1, 1, 1, -1])

    def test_matches_match_row_exhaustively(self):
        for length in (2, 4, 8):
            for w in all_pm1(length):
                assert quadruple_condition(w) == (match_row(w) is not None)

    def test_matches_match_row_sampled(self, rng):
        # k = 2..6, entries +-c: batch-evaluate the full zero-sum loop, the
        # 2-flats through 0 of products_hold and a row match on the samples,
        # seeding in signed rows and near-rows so the true branch is hit
        for k, c in itertools.product(range(2, 7), (1, 4)):
            size = 1 << k
            samples = (100_000, 100_000, 100_000, 20_000, 10_000)[k - 2]
            W = 1 - 2 * rng.integers(0, 2, size=(samples, size)).astype(np.int64)
            planted = np.array([s * row(k, r) for r in range(size) for s in (1, -1)])
            near = np.vstack([planted, planted])
            near[:len(planted), 0] *= -1  # one flipped entry breaks row structure
            near[len(planted):, -1] *= -1
            W = c * np.vstack([W, planted, near])

            # reference: every zero-sum quadruple, on contiguous columns
            T = np.ascontiguousarray(W.T)
            quad_ok = np.ones(len(W), dtype=bool)
            for a, b, d, e in zero_sum_quadruples(size):
                quad_ok &= T[a] * T[b] == T[d] * T[e]

            # vectorized row match: reconstruct r from entries at powers of 2
            sign = np.sign(W[:, 0])
            r = np.zeros(len(W), dtype=np.int64)
            for s in range(k):
                r |= ((sign * W[:, 1 << s]) < 0).astype(np.int64) << s
            cols = np.arange(size, dtype=np.uint32)
            expected = 1 - 2 * (np.bitwise_count(cols[None, :] & r[:, None].astype(np.uint32)) & 1).astype(np.int64)
            match_ok = (W == c * sign[:, None] * expected).all(axis=1)

            assert np.array_equal(quad_ok, match_ok)
            assert np.array_equal(products_hold(W), quad_ok)
            assert match_ok[-6 * size: -4 * size].all()          # planted rows accepted
            assert not match_ok[-4 * size:].any()                # near-rows rejected

            # scalar spot check of the batch forms on the +-1 vectors
            for idx in rng.integers(0, len(W), size=100):
                w = W[int(idx)] // c
                assert quadruple_condition(w) == bool(quad_ok[int(idx)])
                got = match_row(w)
                assert (got is not None) == bool(match_ok[int(idx)])
