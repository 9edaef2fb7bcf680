"""Generators for concrete gbent, Z_q-bent, and bent functions.

Families covered: Maiorana-McFarland bent functions Tr(x pi(y)); a trace
function on GF(2^m) x GF(2^m) that is Z_8-bent whenever 4 | m and 5 does
not divide m; spread-based Z_{2^k}-bent functions from a balanced map on
the lines of a spread; the bent majority g_0 g_1 + g_0 g_2 + g_1 g_2 of a
dual-sum-zero quadruple; and the equivalence and lifting transforms that
preserve gbentness.

Every generator verifies its own postcondition before returning (bentness,
gbentness, or Z_q-bentness as appropriate) on the sizes where this is
feasible; a failed postcondition is an internal error, never a silent
return.  Transforms additionally enforce the odd-n representation
constraint: the matrix B acting on the low coordinates must fix the
designated splitting subspace when its mask is supplied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import gbent_verdict, is_zq_bent
from .boolfn import MAX_N, BooleanFunction, classify, dual, wht
from .errors import (
    DualSumNonzero,
    GbentError,
    InternalInconsistency,
    NotBent,
    NotGbent,
)
from .gbf import MAX_K, GeneralizedBooleanFunction, coordinates
from .gf2m import Field, inverse_exponent


def _field_ops(m: int):
    """(mul, trace) callables; GF(2) handled without a Field object."""
    if m == 1:
        return (lambda a, b: a & b), (lambda a: a)
    fld = Field(m)
    return fld.mul, fld.trace


# -- spreads ------------------------------------------------------------------


def _span_rank(vecs) -> np.ndarray:
    """F_2-rank of the bitmask vectors along the last axis, per leading index:
    per bit, a pivot (the first vector with it) is xored into all with it."""
    v = np.array(vecs)
    rank = np.zeros(v.shape[:-1], dtype=np.int64)
    for j in range(int(v.max(initial=0)).bit_length()):
        has = ((v >> j) & 1).astype(bool)
        pivot = np.take_along_axis(v, has.argmax(axis=-1)[..., None], axis=-1)
        v ^= has * pivot
        rank += has.any(axis=-1)
    return rank


def _f2_rank(mat: np.ndarray) -> int:
    """Rank of a bit matrix; its rows become bitmasks, as Python ints for any width."""
    return int(_span_rank((mat.astype(object) << np.arange(mat.shape[1])).sum(axis=1)))


@dataclass(frozen=True)
class Spread:
    """2^m + 1 subspaces of V_{2m} of dimension m meeting pairwise in 0.

    subspaces[0] is the distinguished line assigned value 0 by the spread
    construction; the remaining lines are indexed 1..2^m.  Validation keeps
    them as sets in _lines: row s holds line s's points in increasing order.
    """

    n: int
    subspaces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("a spread needs n = 2m")
        m = self.n // 2
        if len(self.subspaces) != (1 << m) + 1:
            raise ValueError(
                f"expected {(1 << m) + 1} subspaces, got {len(self.subspaces)}")
        size = 1 << self.n
        line = np.repeat(np.arange(len(self.subspaces)), list(map(len, self.subspaces)))
        pts = np.array([*itertools.chain.from_iterable(self.subspaces)])
        if pts.dtype.kind not in "biu" or ((pts < 0) | (pts >= size)).any():
            raise ValueError(f"subspace points must lie in V_{self.n} = [0, {size})")
        key = np.sort(line * size + pts.astype(np.int64))
        line, pts = np.divmod(key[np.diff(key, prepend=-1) != 0], size)
        if ((np.bincount(line, minlength=len(self.subspaces)) != 1 << m).any()
                or pts.reshape(-1, 1 << m)[:, 0].any()):
            raise ValueError("each subspace must have 2^m points including 0")
        lines = pts.reshape(-1, 1 << m)             # 0 first in each row
        # 2^m points with 0 span 2^rank points, so they are closed under
        # addition exactly when the rank is m
        if (_span_rank(lines) != m).any():
            raise ValueError("subspace set is not F_2-linear")
        # (2^m + 1)(2^m - 1) = 2^n - 1 nonzero points: no overlap means cover
        if (np.bincount(lines[:, 1:].ravel(), minlength=size)[1:] != 1).any():
            raise ValueError("subspaces overlap outside 0 and do not cover V_n")
        object.__setattr__(self, "_lines", lines)

    @property
    def m(self) -> int:
        return self.n // 2


def regular_spread(m: int) -> Spread:
    """The spread {(0, y)} union {(x, sx) : s in GF(2^m)} of V_{2m}."""
    if not 1 <= m <= 8:
        raise ValueError(f"regular spread supported for 1 <= m <= 8, got {m}")
    mul, _ = _field_ops(m)
    x = np.arange(1 << m)
    lines = np.vstack([x << m, x + (mul(x[:, None], x) << m)])
    return Spread(2 * m, tuple(map(tuple, lines.tolist())))


def spread_zqbent(spread: Spread, k: int,
                  phi) -> GeneralizedBooleanFunction:
    """Z_{2^k}-bent function from a balanced map on the lines of a spread.

    f vanishes on subspaces[0] and at 0, and takes the constant value
    phi[s-1] on the rest of line s.  phi must hit every value of Z_{2^k}
    exactly 2^{m-k} times.
    """
    m = spread.m
    if k > m:
        raise GbentError(f"k = {k} exceeds the spread parameter m = {m}")
    phi = np.array(list(phi))
    if len(phi) != 1 << m:
        raise GbentError(f"phi must have 2^m = {1 << m} entries")
    if phi.dtype.kind not in "biu" or ((phi < 0) | (phi >= 1 << k)).any():
        raise GbentError(f"phi values must lie in [0, {1 << k})")
    if (np.bincount(phi, minlength=1 << k) != 1 << (m - k)).any():
        raise GbentError("phi must take each value exactly 2^{m-k} times")
    values = np.zeros(1 << spread.n, dtype=np.int64)
    values[spread._lines[1:, 1:]] = phi[:, None]
    f = GeneralizedBooleanFunction(spread.n, k, values)
    if m <= 4 and not is_zq_bent(f).verdict:
        raise InternalInconsistency("spread construction is not Z_q-bent")
    return f


# -- trace constructions ------------------------------------------------------


def mm_bent(m: int, pi) -> BooleanFunction:
    """Maiorana-McFarland bent function Tr(x pi(y)) on 2m variables.

    pi is a permutation of GF(2^m) given as a table of field elements;
    the point (x, y) is packed as index x + 2^m y.
    """
    if not 1 <= m <= 8:
        raise ValueError(f"supported for 1 <= m <= 8, got {m}")
    pi = list(pi)
    if sorted(pi) != list(range(1 << m)):
        raise GbentError("pi must be a permutation of GF(2^m)")
    mul, tr = _field_ops(m)
    x = np.arange(1 << m)
    table = tr(mul(x, np.array(pi)[:, None])).astype(np.uint8)
    f = BooleanFunction(2 * m, table.ravel())
    if classify(wht(f)).kind != "Bent":
        raise InternalInconsistency("Tr(x pi(y)) failed the bentness check")
    return f


def example1(m: int, c: int = 1) -> GeneralizedBooleanFunction:
    """Z_8-bent trace function on GF(2^m) x GF(2^m), for 4 | m, 5 not | m.

    f(x, y) = Tr(c(1+b) y^d x) + 2 Tr(c(1+b^{-1}) y^d x) + 4 Tr(c y^d x)
    with b a root of z^4 + z + 1, d the inverse of 11 mod 2^m - 1, and
    0^d = 0.  The exponent condition gcd(11, 2^m - 1) = 1 is checked
    independently of the divisibility conditions on m.
    """
    # bounds m before 2^m - 1 is formed or a 2^m x 2^m grid is allocated
    if m % 4 != 0 or m % 5 == 0 or not 4 <= m <= MAX_N // 2:
        raise GbentError(
            f"need 4 | m and 5 not | m, with 4 <= m <= {MAX_N // 2}, got m = {m}")
    if c < 1 or c.bit_length() > m:
        # c in [1, 2^m), the domain of Field.mul
        raise GbentError("c must be a nonzero field element")
    fld = Field(m)
    d = inverse_exponent(11, m)
    b = fld.find_root(0b10011)
    mults = (fld.mul(c, 1 ^ b), fld.mul(c, 1 ^ fld.inv(b)), c)
    # every operand and partial product of Field.mul is below 2^{2m-1} <= 2^23
    x = np.arange(fld.order, dtype=np.uint32)
    t = fld.mul(fld.pow(x, d)[:, None], x)          # y^d x at row y, column x
    values = sum(fld.trace(fld.mul(cj, t)) << j for j, cj in enumerate(mults))
    f = GeneralizedBooleanFunction(2 * m, 3, values.ravel())
    if m == 4 and not is_zq_bent(f).verdict:
        raise InternalInconsistency("trace construction is not Z_8-bent")
    return f


# -- secondary construction ---------------------------------------------------


def mesnager_secondary(g0: BooleanFunction, g1: BooleanFunction,
                       g2: BooleanFunction) -> BooleanFunction:
    """Bent majority g0 g1 + g0 g2 + g1 g2 of a dual-sum-zero quadruple.

    Requires g0, g1, g2 and g3 = g0 + g1 + g2 all bent with
    g0* + g1* + g2* + g3* = 0; this is exactly the condition under which
    the majority is bent, and then its dual is the majority of the duals
    (verified before returning).
    """
    g3 = g0 ^ g1 ^ g2
    quad = (g0, g1, g2, g3)
    duals = []
    for g in quad:
        try:
            duals.append(dual(g))
        except NotBent as exc:
            raise NotBent(f"all four functions must be bent: {exc}") from exc
    if (duals[0] ^ duals[1] ^ duals[2] ^ duals[3]).weight() != 0:
        raise DualSumNonzero(
            "g0* + g1* + g2* + g3* != 0; the majority would not be bent")
    maj = BooleanFunction(g0.n, (g0.table & g1.table) ^ (g0.table & g2.table)
                          ^ (g1.table & g2.table))
    dmaj = BooleanFunction(g0.n,
                           (duals[0].table & duals[1].table)
                           ^ (duals[0].table & duals[2].table)
                           ^ (duals[1].table & duals[2].table))
    if classify(wht(maj)).kind != "Bent" or dual(maj) != dmaj:
        raise InternalInconsistency("majority failed its bent/dual check")
    return maj


# -- equivalence and lifting --------------------------------------------------


def _validate_bit_matrix(mat: np.ndarray, size: int, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.int64)
    if mat.shape != (size, size):
        raise GbentError(f"{name} must be {size}x{size}, got {mat.shape}")
    if not np.isin(mat, (0, 1)).all():
        raise ValueError(f"{name} entries must be bits")
    mat = mat.astype(np.uint8)
    if size and _f2_rank(mat) != size:
        raise GbentError(f"{name} is singular over F_2")
    return mat


@dataclass(frozen=True, eq=False)
class LinearTransform:
    """Equivalence data (A, B, b_mask) for functions in GB_n^{2^k}.

    A is an invertible n x n bit matrix precomposed as x -> Ax; B is an
    invertible (k-1) x (k-1) bit matrix mixing the low coordinates; b_mask
    selects the combination of low coordinates added to the top one.
    """

    A: np.ndarray
    B: np.ndarray
    b_mask: int = 0

    def __post_init__(self):
        object.__setattr__(self, "A",
                           _validate_bit_matrix(self.A, len(self.A), "A"))
        object.__setattr__(self, "B",
                           _validate_bit_matrix(self.B, len(self.B), "B"))
        if not 0 <= self.b_mask < 1 << len(self.B):
            raise ValueError(f"b_mask {self.b_mask} out of range")


def identity_transform(n: int, k: int) -> LinearTransform:
    return LinearTransform(np.eye(n, dtype=np.uint8),
                           np.eye(k - 1, dtype=np.uint8))


def random_invertible(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform invertible bit matrix by rejection sampling."""
    if size == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    while True:
        mat = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
        if _f2_rank(mat) == size:
            return mat


def random_transform(rng: np.random.Generator, n: int, k: int,
                     l1_mask: int | None = None) -> LinearTransform:
    """Random equivalence transform; B fixes the split mask when given."""
    B = random_invertible(rng, k - 1)
    if l1_mask is not None:
        while not _fixes_mask(B, l1_mask):
            B = random_invertible(rng, k - 1)
    return LinearTransform(random_invertible(rng, n), B,
                           int(rng.integers(0, 1 << (k - 1))))


def _mask_bits(mask: int, size: int) -> np.ndarray:
    return np.array([(mask >> j) & 1 for j in range(size)], dtype=np.uint8)


def _fixes_mask(B: np.ndarray, mask: int) -> bool:
    bits = _mask_bits(mask, len(B))
    return bool((((B @ bits) & 1) == bits).all())


def _index_map(A: np.ndarray) -> np.ndarray:
    """idx[x] = index of A x, computed from the images of the basis."""
    n = len(A)
    img = [int(((A[:, j] & 1) << np.arange(n)).sum()) for j in range(n)]
    x = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        out[((x >> j) & 1) == 1] ^= img[j]
    return out


def apply_equivalence(f: GeneralizedBooleanFunction, t: LinearTransform,
                      l1_mask: int | None = None) -> GeneralizedBooleanFunction:
    """Equivalent function with coordinates B a^T, top a_{k-1} + b, at Ax.

    For odd n the designated splitting subspace must survive in the new
    representation: when its mask is supplied, B c = c is required.
    """
    if len(t.A) != f.n:
        raise GbentError(f"A is {len(t.A)}x{len(t.A)}, function has n={f.n}")
    if len(t.B) != f.k - 1:
        raise GbentError(f"B is {len(t.B)}x{len(t.B)}, function has k={f.k}")
    if f.n % 2 and l1_mask is not None and not _fixes_mask(t.B, l1_mask):
        raise GbentError(
            f"B does not fix the splitting subspace mask {l1_mask}")
    coords = coordinates(f)
    tables = np.stack([g.table for g in coords])
    low = (t.B @ tables[:-1]) & 1 if f.k > 1 else tables[:0]
    shift = tables[-1].copy()
    for j in range(f.k - 1):
        if (t.b_mask >> j) & 1:
            shift ^= tables[j]
    new_tables = np.vstack([low, shift[None, :]]).astype(np.int64)
    weights = (1 << np.arange(f.k, dtype=np.int64))[:, None]
    values = (new_tables * weights).sum(axis=0)[_index_map(t.A)]
    return GeneralizedBooleanFunction(f.n, f.k, values)


def lift(f: GeneralizedBooleanFunction, r: int) -> GeneralizedBooleanFunction:
    """Embed a gbent function of GB_n^{2^k} as a gbent function of GB_n^{2^r}.

    Even n: the top coordinate moves to position r-1, the rest stay.  Odd
    n: a_{k-2} moves to r-2 and a_{k-1} to r-1.  The result is verified
    gbent before returning.
    """
    if r < f.k:
        raise GbentError(f"need r >= k, got r = {r} < k = {f.k}")
    if r > MAX_K:
        raise GbentError(f"k must be an integer in [1, {MAX_K}], got {r}")
    if not gbent_verdict(f):
        raise NotGbent("only gbent functions are lifted")
    if r == f.k:
        return f
    low = f.k - 1 - f.n % 2             # coordinates below the moved ones
    values = (f.values & ((1 << low) - 1)) | ((f.values >> low) << (low + r - f.k))
    out = GeneralizedBooleanFunction(f.n, r, values)
    if not gbent_verdict(out):
        raise InternalInconsistency("lifted function is not gbent")
    return out
