"""Arithmetic in GF(2^m) for the explicit constructions.

Elements are polynomial bitmasks over F_2 (bit i is the coefficient of
x^i).  A Field carries the extension degree m (2 <= m <= 16) and an
irreducible modulus; the default modulus is the lexicographically smallest
irreducible polynomial of degree m, which gives the classical choices
x^4 + x + 1 for m = 4 and x^8 + x^4 + x^3 + x + 1 for m = 8.
Irreducibility is verified at construction by trial division.

Every operation but inv is elementwise over broadcasting integer arrays,
and returns an int for int inputs, so a formula is evaluated once over a
grid.  An unsigned 32-bit grid serves every m <= 16: the operands and
partial products of mul stay below 2^{2m-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import DivisionByZero, GbentError, InternalInconsistency


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

    modulus = 0 selects the default irreducible for the degree.  Elements
    are int bitmasks, or integer arrays of them for the elementwise
    operations.
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
        # Tr is F_2-linear: Tr(a) is the parity of a & T, where bit i of T is
        # Tr(x^i), formed from the definition x^i + x^{2i} + x^{4i} + ...
        t = acc = 1 << np.arange(self.m)
        for _ in range(self.m - 1):
            acc = self.mul(acc, acc)
            t = t ^ acc
        if (t > 1).any():
            raise InternalInconsistency(f"a trace in GF(2^{self.m}) is not a bit: {t}")
        object.__setattr__(self, "_trace_mask", int((t << np.arange(self.m)).sum()))

    @property
    def order(self) -> int:
        return 1 << self.m

    def mul(self, a, b):
        """Product of elements a, b in [0, 2^m), elementwise; not defined outside.

        The carry-less product has degree <= 2m - 2; the modulus then clears
        degrees 2m - 2 down to m.
        """
        r = 0
        for i in range(self.m):
            r ^= (a << i) * ((b >> i) & 1)
        for i in range(2 * self.m - 2, self.m - 1, -1):
            r ^= (self.modulus << (i - self.m)) * ((r >> i) & 1)
        return r

    def pow(self, a, e: int):
        """a^e by square-and-multiply, elementwise in a; a^0 = 1 including 0^0."""
        if e < 0:
            raise ValueError("negative exponent; use inv() first")
        r, base = a ** 0, a                 # 1, shaped like a
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

    def trace(self, a):
        """Absolute trace a + a^2 + a^4 + ... + a^{2^{m-1}}, in {0, 1}, elementwise."""
        t = a & self._trace_mask
        for s in (8, 4, 2, 1):          # parity of the m <= 16 bits
            t ^= t >> s
        return t & 1

    def poly_eval(self, poly: int, x):
        """Evaluate a polynomial with F_2 coefficients at x, elementwise."""
        acc = 0
        for i in range(poly.bit_length() - 1, -1, -1):
            acc = self.mul(acc, x) ^ ((poly >> i) & 1)
        return acc

    def find_root(self, poly: int) -> int:
        """Smallest field element annihilating the given F_2 polynomial."""
        roots = np.flatnonzero(self.poly_eval(poly, np.arange(self.order)) == 0)
        if roots.size:
            return int(roots[0])
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
