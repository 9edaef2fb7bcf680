"""Exact arithmetic in Z[zeta], zeta = e^{2 pi i / 2^k} a primitive 2^k-th
root of unity.

Elements are stored in the power basis {1, zeta, ..., zeta^{2^{k-1}-1}} with
the reduction zeta^{2^{k-1}} = -1 applied eagerly; the representation is
unique, so the zero test and equality are coefficientwise.  This is all the
ring structure the generalized Walsh-Hadamard transform needs: values and
their squared moduli stay exact integers, and the irrational quantity
sqrt(2) zeta^j appearing for odd n is handled through its two-term
decomposition sqrt(2) zeta^j = +-zeta^{J1} +- zeta^{J2} with
J2 - J1 = 2^{k-2}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .boolfn import _wider
from .errors import GbentError, InternalInconsistency

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _checked(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if not INT64_MIN <= c <= INT64_MAX:
            raise OverflowError(f"coefficient {c} exceeds signed 64-bit range")
    return coeffs


@dataclass(frozen=True)
class CyclotomicInt:
    """Element of Z[zeta_{2^k}] as sum coeffs[j] * zeta^j, j < 2^{k-1}."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise GbentError(f"k must be >= 1, got {self.k}")
        if len(self.coeffs) != 1 << (self.k - 1):
            raise ValueError(f"need exactly {1 << (self.k - 1)} coefficients")
        object.__setattr__(self, "coeffs", _checked(tuple(int(c) for c in self.coeffs)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "CyclotomicInt":
        return cls(k, (0,) * (1 << (k - 1)))

    @classmethod
    def from_int(cls, k: int, c: int) -> "CyclotomicInt":
        return cls(k, (c,) + (0,) * ((1 << (k - 1)) - 1))

    @classmethod
    def zeta_pow(cls, k: int, e: int) -> "CyclotomicInt":
        """zeta^e for any integer e, reduced into the power basis."""
        m = 1 << (k - 1)
        e %= 1 << k
        sign = 1
        if e >= m:
            e -= m
            sign = -1
        coeffs = [0] * m
        coeffs[e] = sign
        return cls(k, tuple(coeffs))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CyclotomicInt":
        if isinstance(other, CyclotomicInt):
            if other.k != self.k:
                raise ValueError(f"mixed root orders: k={self.k} vs k={other.k}")
            return other
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.k, other)
        return NotImplemented

    def __add__(self, other) -> "CyclotomicInt":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.k, tuple(x + y for x, y in zip(self.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "CyclotomicInt":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.k, tuple(x - y for x, y in zip(self.coeffs, b.coeffs)))

    def __rsub__(self, other) -> "CyclotomicInt":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return b - self

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.k, tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "CyclotomicInt":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        m = 1 << (self.k - 1)
        out = [0] * m
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj == 0:
                    continue
                e = i + j
                if e >= m:
                    out[e - m] -= ci * cj
                else:
                    out[e] += ci * cj
        return CyclotomicInt(self.k, tuple(out))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self) -> int | None:
        """The integer this element equals, or None if it is irrational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def complex_value(self) -> complex:
        """Floating-point shadow, for sanity checks only."""
        zeta = cmath.exp(2j * cmath.pi / (1 << self.k))
        return sum(c * zeta**j for j, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(f"{c}")
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "z" if j == 1 else f"z^{j}"
                terms.append(("-" if c < 0 else "+") + f" {mag}{var}"
                             if terms else (("-" if c < 0 else "") + f"{mag}{var}"))
        body = " ".join(terms) if terms else "0"
        return f"{body} (z = zeta_{1 << self.k})"


def conj(a: CyclotomicInt) -> CyclotomicInt:
    """Complex conjugate: zeta^j -> zeta^{-j} = -zeta^{2^{k-1}-j} for j > 0."""
    m = 1 << (a.k - 1)
    out = [0] * m
    out[0] = a.coeffs[0]
    for j in range(1, m):
        out[j] = -a.coeffs[m - j]
    return CyclotomicInt(a.k, tuple(out))


def norm_squared(a: CyclotomicInt) -> CyclotomicInt:
    """a * conj(a).  Rational exactly when as_rational() is not None."""
    return a * conj(a)


@dataclass(frozen=True)
class Sqrt2Decomposition:
    """sqrt(2) zeta^j = s1 zeta^{J1} + s2 zeta^{J2}, with J2 - J1 = 2^{k-2}."""

    k: int
    j: int
    J1: int
    J2: int
    s1: int
    s2: int

    def value(self) -> CyclotomicInt:
        return (self.s1 * CyclotomicInt.zeta_pow(self.k, self.J1)
                + self.s2 * CyclotomicInt.zeta_pow(self.k, self.J2))


def sqrt2_decompose(k: int, j: int) -> Sqrt2Decomposition:
    """The unique two-term basis representation of sqrt(2) zeta^j, k >= 3.

    From zeta^{2^{k-3}} + zeta^{-2^{k-3}} = 2 cos(pi/4) = sqrt(2), we get
    sqrt(2) zeta^j = zeta^{j - 2^{k-3}} + zeta^{j + 2^{k-3}}, then fold either
    exponent back into [0, 2^{k-1}) with a sign flip when needed.
    """
    if k < 3:
        raise GbentError(f"sqrt(2) decomposition needs k >= 3, got {k}")
    m = 1 << (k - 1)
    if not 0 <= j < m:
        raise ValueError(f"j must be in [0, {m}), got {j}")
    e = 1 << (k - 3)
    lo, hi = j - e, j + e
    if lo < 0:
        dec = Sqrt2Decomposition(k, j, hi, lo + m, 1, -1)
    elif hi >= m:
        dec = Sqrt2Decomposition(k, j, hi - m, lo, -1, 1)
    else:
        dec = Sqrt2Decomposition(k, j, lo, hi, 1, 1)
    if dec.J2 - dec.J1 != 1 << (k - 2):
        raise InternalInconsistency(
            f"sqrt(2) zeta^{j}: exponents {dec.J1}, {dec.J2} are not 2^(k-2) apart")
    return dec


def norm_squared_coeffs(C: np.ndarray) -> np.ndarray:
    """Batch |a|^2 for coefficient arrays, axis 1 the power basis.

    C has shape (P, M, ...) with M = 2^{k-1}: one coefficient row per point,
    then any trailing axes (the functions of a batch).  Returns the
    coefficient array of a * conj(a) per entry, same shape.
    out[:, 0] = sum_l c_l^2 and for t >= 1
    out[:, t] = sum_{l <= M-1-t} c_{l+t} c_l - sum_{l >= M-t} c_{l+t-M} c_l,
    the negacyclic autocorrelation.  Since |a|^2 is real and conj sends
    zeta^t to -zeta^{M-t}, out[:, M-t] = -out[:, t] and out[:, M/2] = 0,
    so only t < M/2 is formed.

    Layout: one basis-major copy of C puts each basis coefficient in its own
    contiguous plane, and each formed t is two whole-plane einsums, so a call
    makes O(M) numpy calls.  The result is a view of the basis-major output
    with the basis moved back to axis 1.

    Exact one step wider than the input dtype (int8 -> int16, int16 -> int32,
    int32 and int64 -> int64), which is also the output dtype: the
    basis-major copy is made in that type.  Each output entry and each
    partial sum is at most sum_l c_l^2 in magnitude (Cauchy-Schwarz).  GWHT
    rows have sum_l |c_l| <= 2^n, hence norms <= 2^{2n}: in spectrum_dtype(n)
    that is 2^12 in int16 (n <= 6, int8 input), 2^28 in int32 (n <= 14, int16
    input) and 2^48 in int64 (n <= 24).  An int64 input gives int64, as for
    GwhtSpectrum.
    """
    M = C.shape[1]
    P = np.ascontiguousarray(np.moveaxis(C, 1, 0), dtype=_wider(C.dtype))
    out = np.empty_like(P)
    for t in range(max(1, M // 2)):
        out[t] = np.einsum("i...,i...->...", P[t:], P[: M - t])
        if t:
            out[t] -= np.einsum("i...,i...->...", P[:t], P[M - t:])
    if M > 1:
        out[M // 2] = 0
        out[M // 2 + 1:] = -out[M // 2 - 1: 0: -1]
    return np.moveaxis(out, 0, 1)
