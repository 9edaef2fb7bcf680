"""Generalized Boolean functions f: V_n -> Z_{2^k} and their exact
generalized Walsh-Hadamard transform.

A function is stored as its value table and decomposes uniquely as

    f(x) = a_0(x) + 2 a_1(x) + ... + 2^{k-1} a_{k-1}(x)

with Boolean coordinate functions a_i (bit i of the value).  For k >= 2 the
2^{k-1} component functions

    g_i = a_{k-1} xor i_0 a_0 xor ... xor i_{k-2} a_{k-2},

indexed by the little-endian bits of i, tie the Z_{2^k}-valued spectrum to
ordinary Walsh spectra: with S(u) = H_{2^{k-1}} (W_{g_0}(u), ..., W_{g_{2^{k-1}-1}}(u))^T
one has 2^{k-1} H_f(u) = sum_t S_t(u) zeta^t, which this module implements
as an independent second route to the GWHT.

The GWHT itself is computed exactly: each value zeta^{f(x)} is a signed
basis vector of Z[zeta_{2^k}], the whole spectrum is one integer coefficient
matrix of shape (2^n, 2^{k-1}), and the transform is a butterfly down the
position axis.  The array functions (zeta_powers, gwht_coeffs,
component_signs, component_walsh, flat_mask) take the function axis last:
a value table of shape (2^n,) or a batch of shape (2^n, F) gives arrays of
shape (2^n, 2^{k-1}) or (2^n, 2^{k-1}, F), indexed by point, basis power or
component, then function.  One function and a batch run through the same
code, and every test over the basis or component axis is an elementwise
operation on contiguous rows of F entries.  The +-1 tables are gathered
as whole rows of a table over Z_{2^k}, with one transposed copy per batch.

Dtype rule (spectrum_dtype and the one-step widening live in the boolfn
module, beside the butterfly): a +-1/0 table that is butterflied over 2^n
points is stored in spectrum_dtype(n), the smallest signed integer type
that holds +-2^n:

    n <= 6: int8    n <= 14: int16    n <= 30: int32    otherwise int64

In any stage order (see fwht_) every partial sum is a signed sum of at most
2^n entries of +-1 or 0, so the whole butterfly stays within 2^n.  Any
product of two entries, or sum of two or more, is taken one step wider
(int8 -> int16 -> int32 -> int64, int64 staying int64): 2^{2n} and 4 2^n
fit there for every n that maps to the narrower type.  A longer sum is
taken in int64.  GwhtSpectrum converts its coefficients to int64 and keeps
them so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import MAX_N, BooleanFunction, fwht_, spectrum_dtype
from .cyclotomic import CyclotomicInt, norm_squared_coeffs
from .errors import FormatError, GbentError, InternalInconsistency

MAX_K = 12


def _points_dtype(V: np.ndarray) -> np.dtype:
    """spectrum_dtype of a value table whose axis 0 runs over the 2^n points."""
    return spectrum_dtype(V.shape[0].bit_length() - 1)


@dataclass(frozen=True, eq=False)
class GeneralizedBooleanFunction:
    """Value table of a map V_n -> Z_{2^k}."""

    n: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.k, int) or not 1 <= self.k <= MAX_K:
            raise GbentError(f"k must be an integer in [1, {MAX_K}], got {self.k!r}")
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be an integer in [1, {MAX_N}], got {self.n!r}")
        vals = np.ascontiguousarray(self.values, dtype=np.int64)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"values must have length 2^{self.n}")
        if vals.size and (vals.min() < 0 or vals.max() >= (1 << self.k)):
            raise ValueError(f"values must lie in [0, 2^{self.k})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralizedBooleanFunction):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and bool(
            np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.values.tobytes()))

    # -- coordinate access ---------------------------------------------------

    def coordinate(self, j: int) -> BooleanFunction:
        """a_j, bit j of the value table."""
        if not 0 <= j < self.k:
            raise IndexError(f"coordinate index {j} outside [0, {self.k})")
        return BooleanFunction(self.n, ((self.values >> j) & 1).astype(np.uint8))

    def scale(self, a: int) -> "GeneralizedBooleanFunction":
        """The multiple (a f) mod 2^k, same modulus."""
        return GeneralizedBooleanFunction(self.n, self.k, (self.values * a) % (1 << self.k))

    def truncate(self, t: int) -> "GeneralizedBooleanFunction":
        """Drop the top t coordinates: f mod 2^{k-t} in GB_n^{2^{k-t}}."""
        if not 0 <= t <= self.k - 1:
            raise ValueError(f"t must be in [0, {self.k - 1}], got {t}")
        return GeneralizedBooleanFunction(self.n, self.k - t, self.values % (1 << (self.k - t)))

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        return values_text(self.n, self.k, self.values[None])

    @classmethod
    def from_text(cls, text: str) -> "GeneralizedBooleanFunction":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise FormatError("empty input")
        header = lines[0].split()
        if len(header) != 2:
            raise FormatError(f"header must be 'n k', got {lines[0]!r}")
        try:
            n, k = int(header[0]), int(header[1])
        except ValueError as e:
            raise FormatError(f"bad header {lines[0]!r}") from e
        if not 1 <= n <= MAX_N:
            raise FormatError(f"n out of range: {n}")
        if not 1 <= k <= MAX_K:
            raise FormatError(f"k out of range: {k}")
        tokens = " ".join(lines[1:]).split()
        if len(tokens) != 1 << n:
            raise FormatError(f"expected {1 << n} values, got {len(tokens)}")
        try:
            vals = np.array(tokens, dtype=np.int64)      # int()'s grammar
        except ValueError as e:
            raise FormatError("values must be integers") from e
        except OverflowError as e:      # a value beyond int64, or a later non-integer
            try:
                [int(t) for t in tokens]
            except ValueError:
                raise FormatError("values must be integers") from e
            raise FormatError(f"values must lie in [0, {1 << k})") from e
        if vals.min() < 0 or vals.max() >= (1 << k):
            raise FormatError(f"values must lie in [0, {1 << k})")
        return cls(n, k, vals)


def values_text(n: int, k: int, V: np.ndarray) -> str:
    """The "n k" line and the values line of each row of an (H, 2^n) matrix."""
    names = [str(v) for v in range(1 << k)]
    return "".join([f"{n} {k}\n{' '.join(map(names.__getitem__, row))}\n"
                    for row in V.tolist()])


def coordinates(f: GeneralizedBooleanFunction) -> list[BooleanFunction]:
    """The k coordinate functions a_0, ..., a_{k-1}."""
    return [f.coordinate(j) for j in range(f.k)]


def component_signs(V: np.ndarray, k: int) -> np.ndarray:
    """(-1)^{g_i(x)} for value tables V of shape (2^n, ...): shape (2^n, 2^{k-1}, ...).

    Entry (x, i) is (-1)^{a_{k-1}(x)} times the Hadamard row indexed by the
    low k-1 bits of f(x), since g_i(x) = a_{k-1}(x) xor (bits of i).(low bits
    of f(x)).  For k = 1 the single component is (-1)^{a_0(x)}.  Row v of
    the sign table over Z_{2^k} holds the signs of all components at value
    v, and one gather of whole rows reads them off.  The dtype is
    spectrum_dtype(n).
    """
    v = np.arange(1 << k, dtype=np.uint32)[:, None]
    i = np.arange(1 << (k - 1), dtype=np.uint32)
    bits = ((v >> (k - 1)) ^ (np.bitwise_count(v & i) & 1)).astype(_points_dtype(V))
    return _gather(1 - 2 * bits, V)


def _gather(rows: np.ndarray, V: np.ndarray) -> np.ndarray:
    """out[x, c, ...] = rows[V[x, ...], c] for a (2^k, m) table: shape (2^n, m, ...).

    One take of whole rows, in rows' dtype.  For a 1-D or (2^n, 1) table V
    the result is already contiguous; a batch makes one transposed copy.
    """
    return np.ascontiguousarray(np.moveaxis(np.take(rows, V, axis=0), -1, 1))


def component_walsh(V: np.ndarray, k: int) -> np.ndarray:
    """W_{g_i}(u) for value tables V of shape (2^n, ...): shape (2^n, 2^{k-1}, ...).

    The butterfly of component_signs down the position axis, in
    spectrum_dtype(n): every |W_{g_i}(u)| <= 2^n.
    """
    S = component_signs(V, k)
    fwht_(S, axis=0)
    return S


def _component_k(f: GeneralizedBooleanFunction) -> int:
    if f.k < 2:
        raise GbentError(f"component functions need k >= 2, got k={f.k}")
    return f.k


def component_walsh_matrix(f: GeneralizedBooleanFunction) -> np.ndarray:
    """W_{g_i}(u) for all components at once: shape (2^n, 2^{k-1}), row u, k >= 2."""
    return component_walsh(f.values, _component_k(f))


def components(f: GeneralizedBooleanFunction) -> tuple[BooleanFunction, ...]:
    """All component functions g_i = a_{k-1} xor i_0 a_0 xor ... xor i_{k-2} a_{k-2}."""
    signs = component_signs(f.values, _component_k(f))
    tables = ((1 - signs) // 2).astype(np.uint8)
    return tuple(BooleanFunction(f.n, tables[:, i]) for i in range(signs.shape[1]))


@dataclass(frozen=True, eq=False)
class GwhtSpectrum:
    """Exact GWHT values H_f(u) for all u, held as one coefficient matrix.

    coeffs has shape (2^n, 2^{k-1}); row u lists the power-basis coefficients
    of H_f(u) in Z[zeta_{2^k}].  Construction computes the |H(u)|^2
    coefficient matrix once, checks the generalized Parseval identity
    sum_u |H(u)|^2 = 2^{2n} exactly on it, and keeps it read-only for
    norm_squared_all; it takes no part in == or hash.
    """

    n: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.int64)
        if arr.shape != (1 << self.n, 1 << (self.k - 1)):
            raise ValueError(f"coefficient matrix must be 2^{self.n} x 2^{self.k - 1}")
        # safe in int64: per row |coefficient t of |H(u)|^2| <= coefficient 0,
        # and the coefficient-0 column sums to 2^{2n} <= 2^48
        norms = norm_squared_coeffs(arr)
        total = norms.sum(axis=0)
        if int(total[0]) != 1 << (2 * self.n) or total[1:].any():
            raise ValueError("generalized Parseval check failed")
        arr.flags.writeable = False
        norms.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_norms", norms)

    def __getitem__(self, u: int) -> CyclotomicInt:
        return CyclotomicInt(self.k, tuple(int(c) for c in self.coeffs[u]))

    def norm_squared_all(self) -> np.ndarray:
        """|H(u)|^2 coefficient matrix, shape (2^n, 2^{k-1}), read-only."""
        return self._norms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GwhtSpectrum):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and bool(
            np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.coeffs.tobytes()))


def zeta_powers(V: np.ndarray, k: int) -> np.ndarray:
    """zeta^{f(x)} as power-basis rows for value tables V of shape (2^n, ...).

    zeta^v is +-1 times a basis power (sign from the top bit of v), so the
    result, of shape (2^n, 2^{k-1}, ...) and dtype spectrum_dtype(n), has one
    +-1 entry per row, gathered from the table of all zeta^v, v in Z_{2^k},
    as component_signs gathers its sign rows.
    """
    m = 1 << (k - 1)
    eye = np.eye(m, dtype=_points_dtype(V))
    return _gather(np.vstack([eye, -eye]), V)


def gwht_coeffs(V: np.ndarray, k: int) -> np.ndarray:
    """H_f(u) coefficient rows for value tables V of shape (2^n, ...).

    The butterfly down the position axis of zeta_powers sums the character
    terms coefficientwise: shape (2^n, 2^{k-1}, ...), spectrum_dtype(n) with
    every coefficient bounded by 2^n.
    """
    Z = zeta_powers(V, k)
    fwht_(Z, axis=0)
    return Z


def flat_mask(n: int, norms: np.ndarray) -> np.ndarray:
    """|H(u)|^2 = 2^n exactly, for a norm array of shape (2^n, 2^{k-1}, ...).

    norms holds |H(u)|^2 coefficient rows, as norm_squared_coeffs returns
    them; the caller computes them once and may reuse them.  The mask has
    shape (2^n, ...).
    """
    return (norms[:, 0] == 1 << n) & (norms[:, 1:] == 0).all(axis=1)


def gwht(f: GeneralizedBooleanFunction) -> GwhtSpectrum:
    """H_f(u) = sum_x zeta^{f(x)} (-1)^{u.x}, exactly, for all u at once."""
    # the int64 copy is made before the spectrum forms its norms, so the
    # narrow coefficients are freed first
    return GwhtSpectrum(f.n, f.k, gwht_coeffs(f.values, f.k).astype(np.int64))


def gwht_via_components(f: GeneralizedBooleanFunction) -> GwhtSpectrum:
    """Second route to the GWHT through component Walsh spectra, k >= 2.

    Computes W_{g_i} for all i, forms S(u) = H_{2^{k-1}} W(u), and divides
    by 2^{k-1}; the division must be exact and the result must equal gwht(f).
    S(u) sums 2^{k-1} entries of magnitude up to 2^n, so it is formed in
    int64: |S(u)| <= 2^{k-1+n} <= 2^35.
    """
    S = component_walsh_matrix(f).astype(np.int64)
    fwht_(S, axis=1)              # row u is now S(u)
    m = 1 << (f.k - 1)
    if (S & (m - 1)).any():
        raise InternalInconsistency("component route: S(u) not divisible by 2^{k-1}")
    return GwhtSpectrum(f.n, f.k, S >> (f.k - 1))
