"""Arithmetic in GF(2^m) for the explicit constructions.

Elements are polynomial bitmasks over F_2 (bit i is the coefficient of
x^i).  A Field carries the extension degree m (2 <= m <= 16) and an
irreducible modulus; the default modulus is the lexicographically smallest
irreducible polynomial of degree m, which gives the classical choices
x^4 + x + 1 for m = 4 and x^8 + x^4 + x^3 + x + 1 for m = 8.
Irreducibility is verified at construction by trial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import DivisionByZero, GbentError, InternalInconsistency


def _pmul(a: int, b: int) -> int:
    """Carry-less (polynomial) product of two bitmasks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(a: int, p: int) -> int:
    """Remainder of the bitmask polynomial a modulo p."""
    dp = p.bit_length()
    while a.bit_length() >= dp:
        a ^= p << (a.bit_length() - dp)
    return a


def _is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree up to deg(p)/2."""
    deg = p.bit_length() - 1
    if deg < 1:
        return False
    for q in range(2, 1 << (deg // 2 + 1)):
        if q.bit_length() - 1 >= 1 and _pmod(p, q) == 0:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Smallest irreducible degree-m polynomial in bitmask order."""
    for p in range((1 << m) + 1, 1 << (m + 1), 2):
        if _is_irreducible(p):
            return p
    raise GbentError(f"no irreducible polynomial of degree {m}")  # unreachable


@dataclass(frozen=True)
class Field:
    """GF(2^m) in polynomial-basis representation.

    modulus = 0 selects the default irreducible for the degree.  All
    operations take and return plain int bitmasks; rendering to hex is
    provided for file and report output.
    """

    m: int
    modulus: int = 0

    def __post_init__(self):
        if not 2 <= self.m <= 16:
            raise ValueError(f"extension degree must be in [2, 16], got {self.m}")
        if self.modulus == 0:
            object.__setattr__(self, "modulus", default_modulus(self.m))
        if self.modulus.bit_length() - 1 != self.m:
            raise ValueError(
                f"modulus degree {self.modulus.bit_length() - 1} != m = {self.m}")
        if not _is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.m

    def mul(self, a: int, b: int) -> int:
        return _pmod(_pmul(a, b), self.modulus)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply; pow(a, 0) = 1 including a = 0."""
        if e < 0:
            raise ValueError("negative exponent; use inv() first")
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def trace(self, a: int) -> int:
        """Absolute trace a + a^2 + a^4 + ... + a^{2^{m-1}}, in {0, 1}."""
        t, acc = a, a
        for _ in range(self.m - 1):
            acc = self.mul(acc, acc)
            t ^= acc
        if t not in (0, 1):
            raise InternalInconsistency(f"trace of {a} in GF(2^{self.m}) is {t}, not a bit")
        return t

    def poly_eval(self, poly: int, x: int) -> int:
        """Evaluate a polynomial with F_2 coefficients at a field element."""
        acc = 0
        for i in range(poly.bit_length() - 1, -1, -1):
            acc = self.mul(acc, x) ^ ((poly >> i) & 1)
        return acc

    def find_root(self, poly: int) -> int:
        """Smallest field element annihilating the given F_2 polynomial."""
        for e in range(self.order):
            if self.poly_eval(poly, e) == 0:
                return e
        raise GbentError(f"{poly:#b} has no root in GF(2^{self.m})")


def inverse_exponent(e: int, m: int) -> int:
    """d with e d = 1 (mod 2^m - 1), for exponents coprime to the order."""
    order = (1 << m) - 1
    if gcd(e, order) != 1:
        raise GbentError(f"gcd({e}, {order}) = {gcd(e, order)} != 1")
    d = pow(e, -1, order)
    if (e * d) % order != 1 or not 1 <= d < order:
        raise InternalInconsistency(f"{d} does not invert {e} modulo {order}")
    return d
