"""Shared oracles and fixtures.

The oracles here are deliberately naive (quadratic loops, definitional
sums): they are the ground truth the fast implementations are tested
against.
"""

import numpy as np
import pytest

from gbent.boolfn import BooleanFunction
from gbent.cyclotomic import CyclotomicInt


def wht_naive(f: BooleanFunction) -> np.ndarray:
    """O(4^n) Walsh-Hadamard transform by direct summation."""
    size = 1 << f.n
    x = np.arange(size)
    u = x[:, None]
    H = 1 - 2 * (np.bitwise_count(u & x) & 1).astype(np.int64)
    return H @ (1 - 2 * f.table.astype(np.int64))


def fwht_reference(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Radix-2 Walsh-Hadamard butterfly along one axis, stage h = 1, 2, 4, ...
    in place on a copy of a: the stage loop boolfn.fwht_ reorders."""
    a = np.array(a)
    axis = axis % a.ndim
    n = a.shape[axis]
    pre, post = a.shape[:axis], a.shape[axis + 1:]
    h = 1
    while h < n:
        b = a.reshape(pre + (n // (2 * h), 2, h) + post)
        ix = (slice(None),) * (len(pre) + 1)
        lo, hi = b[ix + (0,)], b[ix + (1,)]
        tmp = lo - hi
        lo += hi
        hi[...] = tmp
        h *= 2
    return a


def gwht_naive_at(values, n: int, k: int, u: int) -> CyclotomicInt:
    """Definitional GWHT at one point, term by term in Z[zeta_{2^k}]."""
    acc = CyclotomicInt.zero(k)
    for x in range(1 << n):
        term = CyclotomicInt.zeta_pow(k, int(values[x]))
        if bin(u & x).count("1") & 1:
            term = -term
        acc = acc + term
    return acc


def rds_naive(values, n: int, k: int) -> bool:
    """Graph of f is a relative difference set, by one difference count per d.

    For every d != 0 the differences f(x) - f(x + d) mod 2^k must take each
    value exactly 2^{n-k} times.
    """
    size, q = 1 << n, 1 << k
    lam, rem = divmod(size, q)
    if rem:
        return False
    values = np.asarray(values, dtype=np.int64)
    x = np.arange(size)
    for d in range(1, size):
        diffs = (values - values[x ^ d]) % q
        if not (np.bincount(diffs, minlength=q) == lam).all():
            return False
    return True


def gf_mul_naive(a: int, b: int, modulus: int) -> int:
    """Field product of two bitmasks: shift-and-add carry-less product, then
    long division by the modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    dp = modulus.bit_length()
    while r.bit_length() >= dp:
        r ^= modulus << (r.bit_length() - dp)
    return r


def gf_trace_naive(a: int, m: int, modulus: int) -> int:
    """Absolute trace a + a^2 + a^4 + ... + a^{2^{m-1}}, term by term."""
    t = acc = a
    for _ in range(m - 1):
        acc = gf_mul_naive(acc, acc, modulus)
        t ^= acc
    return t


def random_boolfn(rng: np.random.Generator, n: int) -> BooleanFunction:
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)
