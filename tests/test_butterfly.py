"""The butterfly's stage order and the +-1 table gather, against independent oracles.

fwht_ runs its short stages grouped in a scratch buffer and its long ones in
place.  Every check here compares it with a dense Sylvester-Hadamard
product or with conftest's radix-2 stage loop, never with fwht_ itself, and
the gather with a per-column take.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbent.boolfn
from conftest import fwht_reference
from gbent.boolfn import SCRATCH_BYTES, SHORT_STAGE, fwht_, spectrum_dtype
from gbent.gbf import _gather, component_signs, zeta_powers

DTYPES = (np.int8, np.int16, np.int32, np.int64)


def sylvester(m: int) -> np.ndarray:
    """H_{2^m} as a dense int64 matrix: entry (u, x) is (-1)^{popcount(u & x)}."""
    x = np.arange(1 << m)
    return 1 - 2 * (np.bitwise_count(x[:, None] & x) & 1).astype(np.int64)


def spy_stages(monkeypatch) -> list:
    """Record the arrays fwht_'s stage loop runs on."""
    calls = []
    original = gbent.boolfn._stages

    def recorded(a, h):
        calls.append((a, h))
        return original(a, h)

    monkeypatch.setattr(gbent.boolfn, "_stages", recorded)
    return calls


def test_sylvester_product_on_the_grouped_path(monkeypatch):
    # 2^11 rows of one entry: the stages h < SHORT_STAGE run in the scratch
    calls = spy_stages(monkeypatch)
    a = np.random.default_rng(11).integers(-3, 4, size=1 << 11)
    got = fwht_(a.copy(), axis=0)
    assert np.array_equal(got, sylvester(11) @ a)
    (scratch, h0), (_, h1) = calls
    assert h0 == 1 and h1 == SHORT_STAGE and not np.shares_memory(scratch, got)


def test_sylvester_product_down_the_last_axis():
    # 2^12 rows of length 8: every stage is short and runs in the scratch
    a = np.random.default_rng(8).integers(-3, 4, size=(1 << 9, 8))
    assert np.array_equal(fwht_(a.copy(), axis=-1), a @ sylvester(3))


def test_short_tables_stay_in_place(monkeypatch):
    # census and search chunks: axis length <= 16, or blocks of >= SHORT_STAGE entries
    calls = spy_stages(monkeypatch)
    for shape in ((16, 8, 30), (4, 8, 88), (8, 4, 4096), (1 << 11, 1024)):
        a = np.ones(shape, dtype=np.int8 if shape[0] < 64 else np.int32)
        fwht_(a, axis=0)
    assert [h for _, h in calls] == [1, 1, 1, 1]


@st.composite
def tables(draw):
    """(array, axis) with axis length 2^1..2^12 and trailing shape (), (m,), (m, 1) or (m, F)."""
    m = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (3,), (64,)]))
    trail = draw(st.sampled_from([(), (5,), (5, 1), (3, 7)]))
    if (1 << m) * math.prod(lead + trail) > 1 << 17:
        lead, trail = (), ()
    dtype = draw(st.sampled_from([t for t in DTYPES if np.iinfo(t).max >= 1 << m]))
    shape = lead + (1 << m,) + trail
    a = np.random.default_rng(draw(st.integers(0, 2**32))).integers(-1, 2, size=shape)
    axis = draw(st.sampled_from([len(lead), len(lead) - len(shape)]))
    return a.astype(dtype), axis


@settings(max_examples=150, deadline=None)
@given(tables())
def test_against_the_stage_loop(case):
    a, axis = case
    want = fwht_reference(a.astype(np.int64), axis)
    got = fwht_(a.copy(), axis)
    assert got.dtype == a.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", (6, 7, 14, 15))
@pytest.mark.parametrize("layout", ("1d", "column", "batch", "last"))
def test_tables_at_the_dtype_bound(n, layout):
    # all ones reaches +2^n at u = 0, and the negated Hadamard row r reaches
    # -2^n at u = r, in spectrum_dtype(n); both with trailing axes of 1 and 3
    x = np.arange(1 << n)
    row = 1 - 2 * (np.bitwise_count(x & 0b101) & 1).astype(np.int64)
    cols = np.stack([np.ones(1 << n, dtype=np.int64), -row, row], axis=1)
    a, axis = {"1d": (cols[:, 1], 0), "column": (cols[:, 1:2], 0),
               "batch": (cols, 0), "last": (np.ascontiguousarray(cols.T), -1)}[layout]
    got = fwht_(a.astype(spectrum_dtype(n)), axis)
    want = fwht_reference(a, axis)
    assert np.abs(want).max() == 1 << n
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape,axis", [((1 << 20,), 0), ((1 << 17, 8), 0),
                                        ((1 << 18, 4), -1), ((8, 1 << 17), -1)])
def test_allocates_at_most_the_scratch(shape, axis):
    # beyond the scratch, only numpy's ufunc iterator buffers (np.getbufsize()
    # entries per operand) and a few views; a temporary of half the 4 MB
    # input, as a stage lo - hi would make, fails
    a = np.ones(shape, dtype=spectrum_dtype(20))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fwht_(a, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= SCRATCH_BYTES + (256 << 10)
    assert a.flat[0] == shape[axis] and np.count_nonzero(a) == a.size // shape[axis]


def test_rejects_a_non_contiguous_array():
    a = np.ones((8, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="contiguous"):
        fwht_(a.T, axis=0)


def gather_reference(rows: np.ndarray, V: np.ndarray) -> np.ndarray:
    """out[:, c] = rows[:, c][V], one take per column."""
    out = np.empty(V.shape[:1] + rows.shape[1:] + V.shape[1:], dtype=rows.dtype)
    for c in range(rows.shape[1]):
        out[:, c] = np.take(rows[:, c], V)
    return out


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("shape", [(32,), (32, 1), (32, 3)])
def test_gather_against_per_column_takes(k, shape):
    V = np.random.default_rng(k).integers(0, 1 << k, size=shape)
    rows = np.random.default_rng(-k % 7).integers(-9, 9, size=(1 << k, 1 << (k - 1)))
    got = _gather(rows.astype(np.int16), V)
    assert got.flags.c_contiguous and got.dtype == np.int16
    assert np.array_equal(got, gather_reference(rows.astype(np.int16), V))
    # the two tables gathered: zeta^v is a signed basis vector, and the
    # component signs are (-1)^{a_{k-1}} times a Hadamard row
    v = V[..., None]
    Z = np.moveaxis(zeta_powers(V, k), 1, -1)
    t = np.arange(1 << (k - 1))
    assert np.array_equal(Z, np.where(v % (1 << (k - 1)) == t, 1 - 2 * (v >> (k - 1)), 0))
    S = np.moveaxis(component_signs(V, k), 1, -1)
    parity = (v >> (k - 1)) ^ (np.bitwise_count(v & t) & 1)
    assert np.array_equal(S, 1 - 2 * parity)
