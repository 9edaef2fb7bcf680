"""The spectral kernels' narrow integer types, at the edges of their bounds.

A +-1/0 table butterflied over 2^n points is held in spectrum_dtype(n), and
products and short sums of its entries are taken one step wider.  n = 6
and n = 14 are the last n of int8 and int16, n = 7 and n = 15 the first of
int16 and int32.  A constant f reaches |H(0)| = |W(0)| = 2^n.  Every result
is compared with the same computation in int64, with a closed form, or with
a naive oracle from conftest.
"""

import functools

import numpy as np
import pytest

from conftest import gwht_naive_at, wht_naive
from gbent.analysis import (
    _difference_spectra,
    _majorities_pass,
    _majority_walsh,
    bent_space_report,
    is_gbent,
)
from gbent.boolfn import fwht_, wht
from gbent.constructions import lift
from gbent.cyclotomic import CyclotomicInt, norm_squared_coeffs
from gbent.duality import gray_map, gray_walsh_identity
from gbent.gbf import (
    GeneralizedBooleanFunction,
    component_signs,
    component_walsh,
    components,
    gwht,
    gwht_coeffs,
    gwht_via_components,
    spectrum_dtype,
    zeta_powers,
)
from gbent.hadamard import match_rows, products_hold
from gbent.sweep import batch_component_walsh, sweep_three_routes

BOUNDARY_N = (6, 7, 14, 15)
NARROW = {6: np.int8, 7: np.int16, 14: np.int16, 15: np.int32}
WIDE = {6: np.int16, 7: np.int32, 14: np.int32, 15: np.int64}

SEED22 = GeneralizedBooleanFunction(2, 2, [0, 1, 0, 3])
SEED32 = GeneralizedBooleanFunction(3, 2, [0, 0, 0, 2, 1, 1, 1, 3])


def direct_sum(f, g):
    """(f + g)(x, y) = f(x) + g(y) mod 2^k, x the low bits: gbent when f and g are."""
    values = (f.values[None, :] + g.values[:, None]) % (1 << f.k)
    return GeneralizedBooleanFunction(f.n + g.n, f.k, values.reshape(-1))


def gbent_at(n, k):
    """A gbent function in GB_n^{2^k}: SEED32 (odd n) plus copies of SEED22."""
    parts = [SEED32] * (n % 2) + [SEED22] * ((n - 3 * (n % 2)) // 2)
    return lift(functools.reduce(direct_sum, parts), k)


def constant(n, v):
    return np.full(1 << n, v, dtype=np.int64)


def test_spectrum_dtype_table():
    want = [np.int8] * 6 + [np.int16] * 8 + [np.int32] * 10
    assert [spectrum_dtype(n) for n in range(1, 25)] == [np.dtype(t) for t in want]
    types = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)]
    for n in range(1, 63):
        i = types.index(spectrum_dtype(n))
        assert np.iinfo(types[i]).max >= 1 << n
        assert i == 0 or np.iinfo(types[i - 1]).max < 1 << n     # the smallest


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_kernel_dtypes(n):
    rng = np.random.default_rng(n)
    V = rng.integers(0, 8, size=(1 << n, 2))
    for kernel in (zeta_powers, gwht_coeffs, component_signs, component_walsh):
        assert kernel(V, 3).dtype == NARROW[n], kernel.__name__
        assert kernel(V[:, 0], 3).dtype == NARROW[n], kernel.__name__
    assert batch_component_walsh(n, 3, V).dtype == NARROW[n]
    C = gwht_coeffs(V, 3)
    assert norm_squared_coeffs(C).dtype == WIDE[n]
    assert norm_squared_coeffs(C.astype(np.int64)).dtype == np.int64
    assert match_rows(component_walsh(V, 3))[1].dtype == NARROW[n]
    spec = gwht(GeneralizedBooleanFunction(n, 3, V[:, 0]))
    assert spec.coeffs.dtype == spec.norm_squared_all().dtype == np.int64


@pytest.mark.parametrize("n", BOUNDARY_N)
@pytest.mark.parametrize("k", (1, 3, 4))
def test_constant_reaches_the_bound(n, k):
    # H_f(0) = 2^n zeta^v and W_{g_i}(0) = +-2^n; every other point is 0
    v = (1 << k) - 1 - (k > 1)
    V = constant(n, v)
    H = gwht_coeffs(V, k)
    want = np.zeros(H.shape, dtype=np.int64)
    want[0] = np.array(CyclotomicInt.zeta_pow(k, v).coeffs) << n
    assert np.array_equal(H, want)
    W = component_walsh(V, k)
    assert np.array_equal(W, fwht_(component_signs(V, k).astype(np.int64), axis=0))
    assert (np.abs(W[0].astype(np.int64)) == 1 << n).all() and not W[1:].any()
    norms = norm_squared_coeffs(H)
    assert norms[0, 0] == 1 << (2 * n) and not norms[0, 1:].any()
    assert np.array_equal(norms, norm_squared_coeffs(H.astype(np.int64)))


@pytest.mark.parametrize("n", BOUNDARY_N)
@pytest.mark.parametrize("k", (2, 4))
def test_random_against_int64(n, k):
    V = np.random.default_rng(100 * n + k).integers(0, 1 << k, size=(1 << n, 3))
    H = gwht_coeffs(V, k)
    assert np.array_equal(H, fwht_(zeta_powers(V, k).astype(np.int64), axis=0))
    W = component_walsh(V, k)
    assert np.array_equal(W, fwht_(component_signs(V, k).astype(np.int64), axis=0))
    assert np.array_equal(norm_squared_coeffs(H), norm_squared_coeffs(H.astype(np.int64)))
    assert np.array_equal(products_hold(W), products_hold(W.astype(np.int64)))


@pytest.mark.parametrize("n", (6, 7))
def test_small_boundary_against_naive_oracles(n):
    f = GeneralizedBooleanFunction(
        n, 3, np.random.default_rng(n).integers(0, 8, size=1 << n))
    H = gwht_coeffs(f.values, f.k)
    for u in range(1 << n):
        assert tuple(H[u].tolist()) == gwht_naive_at(f.values, n, f.k, u).coeffs
    W = component_walsh(f.values, f.k)
    for i, g in enumerate(components(f)):
        assert np.array_equal(W[:, i], wht_naive(g))


@pytest.mark.parametrize("n", BOUNDARY_N)
@pytest.mark.parametrize("values", ("constant", "random"))
def test_component_route_to_gwht_at_k4(n, values):
    # constant f: S(0) = H_8 W(0) has one entry +-2^{3+n}, beyond int16 at n = 14
    k = 4
    V = (constant(n, 13) if values == "constant"
         else np.random.default_rng(n).integers(0, 1 << k, size=1 << n))
    f = GeneralizedBooleanFunction(n, k, V)
    assert gwht_via_components(f) == gwht(f)


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_gray_walsh_identity_at_k4(n):
    # constant f: the Gray image's Walsh value at (0, z) is +-2^{3+n} or 0
    f = GeneralizedBooleanFunction(n, 4, constant(n, 13))
    image = wht(gray_map(f).function)
    got = [gray_walsh_identity(f, 0, z) for z in range(8)]
    assert got == [image[z << n] for z in range(8)]
    assert sorted(map(abs, got)) == [0] * 7 + [8 << n]


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_products_at_2_to_the_2n(n):
    # W(0) of a constant f is +-2^n times a Hadamard row: every relation holds
    # with both sides +-2^{2n}; one flipped entry must break the relations,
    # which narrow products would hide at n = 6 and n = 14
    W = component_walsh(constant(n, 5), 4)
    assert products_hold(W).all()
    flipped = W.copy()
    flipped[0, 1] *= -1
    got = products_hold(flipped)
    assert not got[0] and got[1:].all()
    assert np.array_equal(got, products_hold(flipped.astype(np.int64)))


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_carlet_sums(n):
    # four entries of +-2^n: the sum reaches 4 2^n
    top = NARROW[n](1 << n)
    w = [np.array([top, -top], dtype=NARROW[n]) for _ in range(3)]
    M = _majority_walsh(*w, np.array([-top, top], dtype=NARROW[n]))
    assert M.dtype == WIDE[n]
    assert M.tolist() == [2 << n, -(2 << n)]
    # the components of f = 0 sum to zero on {0, 1, 2, 3} and all have
    # W(0) = 2^n: the partial sums reach 3 2^n and the result is 2^n
    W = component_walsh(constant(n, 0), 3)
    M = _majority_walsh(W[:, 0], W[:, 1], W[:, 2], W[:, 3])
    W64 = W.astype(np.int64)
    assert np.array_equal(M, _majority_walsh(W64[:, 0], W64[:, 1], W64[:, 2], W64[:, 3]))
    assert M[0] == 1 << n
    assert _majorities_pass(n, W) == _majorities_pass(n, W64)


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_gbent_at_boundary(n):
    f = gbent_at(n, 4)
    assert is_gbent(f)
    rep = bent_space_report(f)
    assert rep.all_hold
    assert rep.odd_split_subspace == (1 << (f.k - 2) if n % 2 else None)
    assert not is_gbent(GeneralizedBooleanFunction(n, 4, constant(n, 3)))


@pytest.mark.parametrize("n", (6, 7))
def test_sweep_at_boundary(n):
    rng = np.random.default_rng(n)
    f = gbent_at(n, 3)
    V = np.vstack([f.values, rng.integers(0, 8, size=(5, 1 << n)), constant(n, 7)])
    res = sweep_three_routes(n, 3, V)
    assert res.agree and res.verdicts.tolist() == [True] + [False] * 6


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_match_rows_with_c_beyond_the_dtype(n):
    W = component_walsh(constant(n, 5), 4)
    r, sign, ok = match_rows(W, 1 << n)
    assert ok[0] and not ok[1:].any()
    for c in (np.iinfo(W.dtype).max + 1, 1 << 40):
        got = match_rows(W, c)
        want = match_rows(W.astype(np.int64), c)
        assert not got[2].any() and not want[2].any()
        assert np.array_equal(got[0], r) and np.array_equal(got[1], sign)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", (6, 7, 14))
def test_difference_spectra(n):
    # R stays int64; the constant f gives R_0(0) = 2^{2n}
    rng = np.random.default_rng(n)
    for k, values in ((2, constant(n, 1)), (3, rng.integers(0, 8, size=1 << n))):
        R = _difference_spectra(values, k)
        q = 1 << k
        I = np.zeros((1 << n, q), dtype=np.int64)
        I[np.arange(1 << n), values] = 1
        I = fwht_(I, axis=0).T
        want = [sum(I[(v + c) % q] * I[v] for v in range(q)) for c in range(q // 2 + 1)]
        assert R.dtype == np.int64 and np.array_equal(R, np.array(want))
    assert _difference_spectra(constant(n, 0), 1)[0, 0] == 1 << (2 * n)
