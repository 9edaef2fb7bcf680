"""Sylvester-Hadamard matrix rows and recognition of +-1 vectors as rows.

H_{2^k} is the k-fold Kronecker power of H_2 = [[1, 1], [1, -1]]; its row r
has entry (-1)^{popcount(j AND r)} at column j, the evaluation of a linear
form.  Rows are never materialized as full matrices: everything works from
single rows computed on demand.

The quadruple condition characterizes signed rows among all +-1 vectors:
w is +-H^{(r)} for some r exactly when w_j w_c = w_l w_v holds for every
set of four distinct indices with z_j + z_c + z_l + z_v = 0 (a 2-flat in
the index space).  The 2-flats through index 0 imply the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfn import _wider
from .errors import GbentError, IndexOutOfRange

# 5,559,680 quadruples, about 0.9 GB: the largest index set enumerated
QUADRUPLE_SIZE_CAP = 1 << 9


def row(k: int, r: int) -> np.ndarray:
    """Row r of H_{2^k} as a +-1 vector of length 2^k."""
    if k < 0:
        raise GbentError(f"k must be >= 0, got {k}")
    if not 0 <= r < (1 << k):
        raise IndexOutOfRange(f"row index {r} outside [0, {1 << k})")
    j = np.arange(1 << k, dtype=np.uint32)
    parity = (np.bitwise_count(j & np.uint32(r)) & 1).astype(np.int64)
    return 1 - 2 * parity


@dataclass(frozen=True)
class RowMatch:
    """w = sign * H^{(r)} entrywise."""

    r: int
    sign: int


def _validate_pm1(w) -> np.ndarray:
    v = np.asarray(w, dtype=np.int64).reshape(-1)
    size = v.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two")
    if not np.isin(v, (-1, 1)).all():
        raise ValueError("entries must be +1 or -1")
    return v


def match_rows(W: np.ndarray, c: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed-row match along axis 1: (r, sign, ok) per index of the other axes.

    W has shape (P, m, ...): one vector of length m per point, then any
    trailing axes (the functions of a batch); r, sign and ok have shape
    (P, ...).  The sign is that of W[:, 0] and bit s of r is set where
    sign * W[:, 2^s] < 0, since H^{(r)}[2^s] = (-1)^{r_s}; ok holds exactly
    where W[:, j] == sign * c * (-1)^{popcount(r & j)} for every j.  That
    expected entry is built up bit by bit: the entries for j + 2^s, j < 2^s,
    are those for j times (-1)^{r_s}.

    sign and the expected entries are in W's dtype, and r is int64.  The
    entries of W are taken to be at most the dtype's maximum in magnitude,
    as every spectrum in spectrum_dtype(n) is; so when c exceeds that
    maximum no entry equals +-c and ok is False everywhere.
    """
    m = W.shape[1]
    sign = np.where(W[:, 0] > 0, 1, -1).astype(W.dtype)
    r = np.zeros(sign.shape, dtype=np.int64)
    fits = c <= np.iinfo(W.dtype).max
    expect = [sign * c] if fits else []
    for s in range(m.bit_length() - 1):
        bit = (sign * W[:, 1 << s]) < 0
        r |= bit.astype(np.int64) << s
        flip = 1 - 2 * bit.astype(W.dtype)
        expect += [e * flip for e in expect]
    if not fits:
        return r, sign, np.zeros(sign.shape, dtype=bool)
    ok = W[:, 0] == expect[0]
    for j in range(1, m):
        ok &= W[:, j] == expect[j]
    return r, sign, ok


def match_row(w) -> RowMatch | None:
    """Identify w as a signed Sylvester-Hadamard row, or None."""
    r, sign, ok = match_rows(_validate_pm1(w)[None])
    return RowMatch(int(r[0]), int(sign[0])) if ok[0] else None


@lru_cache(maxsize=None)
def zero_sum_quadruples(size: int) -> tuple[tuple[int, int, int, int], ...]:
    """All index sets {j < c < l < v} in [0, size) with j^c^l^v = 0.

    Each 2-flat appears exactly once: taking (j, c, l) as the three smallest
    members forces v = j^c^l to be the largest.  There are
    size (size-1) (size-2) / 24 of them, about 165 bytes each as tuples, so
    sizes above QUADRUPLE_SIZE_CAP fail fast instead of exhausting memory.
    products_hold needs only the flats through 0; this is the full set.
    """
    if size <= 0 or size & (size - 1):
        raise ValueError(f"size {size} is not a power of two")
    if size > QUADRUPLE_SIZE_CAP:
        count = size * (size - 1) * (size - 2) // 24
        raise GbentError(
            f"{count} zero-sum quadruples of {size} indices would need about "
            f"{count * 165 / 2**30:.0f} GiB; the cap is {QUADRUPLE_SIZE_CAP} indices")
    quads = []
    for j in range(size):
        for c in range(j + 1, size):
            for l in range(c + 1, size):
                v = j ^ c ^ l
                if v > l:
                    quads.append((j, c, l, v))
    return tuple(quads)


def products_hold(W: np.ndarray) -> np.ndarray:
    """w_0 w_i == w_j w_{i^j} on every 2-flat {0, i, j, i^j} of axis 1.

    W has shape (P, m, ...) like match_rows takes it, and the result has
    shape (P, ...).  These (m-1)(m-2)/6 zero-sum relations through index 0
    imply all m(m-1)(m-2)/24 when every |w_t| is one c > 0, which each
    caller also checks.  Proof: then a relation on a 2-flat {a, b, d, e}
    says w_a w_b w_d w_e = c^4 in any pairing, so chi(i) = w_0 w_i / c^2 has
    chi(i) chi(j) = w_i w_j / c^2 = w_0 w_{i^j} / c^2 = chi(i^j): a
    character.  So w_t = (c^2 / w_0) chi(t), and w_j w_c w_l w_v = c^4 on
    every zero-sum quadruple.  Each flat is taken once, as 0 < i < j < i^j;
    i^j > j says that j lacks the top bit of i, so no j is left for i >= m/2.

    Both products are taken one step wider than W's dtype: for a spectrum
    in spectrum_dtype(n), |w_a w_b| <= 2^{2n} fits there.
    """
    m = W.shape[1]
    wide = _wider(W.dtype)
    out = np.ones(W.shape[:1] + W.shape[2:], dtype=bool)
    for i in range(1, m // 2):
        j = np.arange(i + 1, m)
        j = j[(j & (1 << (i.bit_length() - 1))) == 0]
        lhs = np.multiply(W[:, :1], W[:, i:i + 1], dtype=wide)
        out &= (lhs == np.multiply(W[:, j], W[:, i ^ j], dtype=wide)).all(axis=1)
    return out


def quadruple_condition(w) -> bool:
    """True iff w_j w_c = w_l w_v on every zero-sum index quadruple.

    For +-1 vectors this is equivalent to w being a signed Hadamard row;
    vectors shorter than 8 satisfy it vacuously or via the single quadruple
    (0,1,2,3).
    """
    return bool(products_hold(_validate_pm1(w)[None])[0])
