"""Boolean functions on V_n = F_2^n as packed truth tables.

Conventions used throughout the package: an integer index x in [0, 2^n)
encodes the vector (x_0, ..., x_{n-1}) little-endian, bit i of x being the
value of variable x_i.  The inner product u.x is the parity of
popcount(u AND x).  The Walsh-Hadamard transform is

    W_f(u) = sum_{x in V_n} (-1)^{f(x) xor u.x},

computed by an in-place butterfly in O(n 2^n) word operations.  A function
is bent when |W_f(u)| = 2^{n/2} everywhere (n even), semi-bent when
W_f(u) in {0, +-2^{(n+1)/2}} (n odd), and s-plateaued when
W_f(u) in {0, +-2^{(n+s)/2}}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotBent

MAX_N = 24


def fwht_(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform along one axis.

    Applies the +-1 Sylvester-Hadamard matrix H_{2^m} (no normalization):
    out[u] = sum_x (-1)^{popcount(u & x)} a[x].  The axis length must be a
    power of two.  Returns the same array for convenience.
    """
    axis = axis % a.ndim
    n = a.shape[axis]
    if n & (n - 1):
        raise ValueError(f"axis length {n} is not a power of two")
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


def spectrum_dtype(n: int) -> np.dtype:
    """The smallest signed integer type that holds +-2^n, the bound of every
    Walsh or GWHT coefficient over 2^n points and of every partial sum of
    their butterflies (the dtype rule is stated in the gbf module)."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= 1 << n)


def _wider(dtype) -> np.dtype:
    """The signed integer type one step wider than dtype: int8 -> int16 ->
    int32 -> int64, int64 staying int64.

    Products and short sums of spectrum entries are taken here: entries of
    magnitude at most 2^n in spectrum_dtype(n) give products of at most
    2^{2n} and four-term sums of at most 4 2^n, and both fit the next type.
    """
    return np.dtype({1: np.int16, 2: np.int32}.get(np.dtype(dtype).itemsize, np.int64))


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """Truth table of a map V_n -> F_2, the atom of all spectral analysis.

    table[x] = f(x) for every integer index x in [0, 2^n).
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be an integer in [1, {MAX_N}], got {self.n!r}")
        tab = np.ascontiguousarray(self.table, dtype=np.uint8)
        if tab.shape != (1 << self.n,):
            raise ValueError(f"table must have length 2^{self.n} = {1 << self.n}")
        if tab.size and tab.max() > 1:
            raise ValueError("table entries must be 0 or 1")
        tab.flags.writeable = False
        object.__setattr__(self, "table", tab)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, table) -> "BooleanFunction":
        tab = np.asarray(table, dtype=np.uint8)
        n = int(tab.size).bit_length() - 1
        return cls(n, tab)

    @classmethod
    def constant(cls, n: int, value: int = 0) -> "BooleanFunction":
        return cls(n, np.full(1 << n, value & 1, dtype=np.uint8))

    @classmethod
    def linear(cls, n: int, mask: int, const: int = 0) -> "BooleanFunction":
        """f(x) = mask.x xor const."""
        x = np.arange(1 << n, dtype=np.uint32)
        tab = (np.bitwise_count(x & np.uint32(mask)) & 1) ^ (const & 1)
        return cls(n, tab.astype(np.uint8))

    # -- basic protocol ----------------------------------------------------

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.n, self.table.tobytes()))

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("xor requires equal n")
        return BooleanFunction(self.n, self.table ^ other.table)

    def complement(self) -> "BooleanFunction":
        return BooleanFunction(self.n, self.table ^ 1)

    def weight(self) -> int:
        return int(self.table.sum())

    # -- text and hex forms --------------------------------------------------

    def to_text(self) -> str:
        return f"{self.n}\n{''.join('01'[b] for b in self.table)}\n"

    @classmethod
    def from_text(cls, text: str) -> "BooleanFunction":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if len(lines) < 2:
            raise FormatError("truth table needs a header line 'n' and a bits line")
        try:
            n = int(lines[0])
        except ValueError as e:
            raise FormatError(f"bad n header: {lines[0]!r}") from e
        if not 1 <= n <= MAX_N:
            raise FormatError(f"n out of range: {n}")
        bits = "".join(lines[1:])
        if len(bits) != 1 << n:
            raise FormatError(f"expected {1 << n} bits, got {len(bits)}")
        if set(bits) - {"0", "1"}:
            raise FormatError("bits line may contain only 0 and 1")
        return cls(n, np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0"))

    def to_hex(self) -> str:
        if self.n < 2:
            raise FormatError("hex form needs n >= 2")
        nibbles = self.table.reshape(-1, 4)
        vals = nibbles @ np.array([8, 4, 2, 1], dtype=np.uint8)
        return "".join(f"{v:x}" for v in vals)

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "BooleanFunction":
        s = "".join(text.split())
        if n is None:
            size = len(s) * 4
            if size == 0 or size & (size - 1):
                raise FormatError(f"hex length {len(s)} is not a power of two quarter-table")
            n = size.bit_length() - 1
        if len(s) * 4 != 1 << n:
            raise FormatError(f"expected {(1 << n) // 4} hex digits for n={n}, got {len(s)}")
        try:
            vals = np.array([int(c, 16) for c in s], dtype=np.uint8)
        except ValueError as e:
            raise FormatError(f"bad hex digit in {s!r}") from e
        tab = np.empty((len(s), 4), dtype=np.uint8)
        for j, shift in enumerate((3, 2, 1, 0)):
            tab[:, j] = (vals >> shift) & 1
        return cls(n, tab.reshape(-1))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """The 2^n signed-integer Walsh-Hadamard values of a Boolean function.

    Construction enforces Parseval (sum of squares = 2^{2n}) and the parity
    invariant (all values even for n >= 1), so every instance is at least
    energy-consistent with some +-1 vector.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.int64)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"values must have length 2^{self.n}")
        if int(np.abs(vals).max()) > 1 << self.n:
            raise ValueError("Parseval check failed: |value| exceeds 2^n")
        sq = vals * vals
        if self.n <= 14:
            total = int(sq.sum())
        else:
            # chunks of 2^14 squares, each <= 2^{2n} <= 2^48, stay inside
            # int64; the outer sum is arbitrary-precision
            total = sum(int(c) for c in sq.reshape(-1, 1 << 14).sum(axis=1))
        if total != 1 << (2 * self.n):
            raise ValueError("Parseval check failed: sum of squares != 2^(2n)")
        if self.n >= 1 and (vals & 1).any():
            raise ValueError("spectrum parity check failed: odd value present")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))

    def __getitem__(self, u: int) -> int:
        return int(self.values[u])


@dataclass(frozen=True)
class SpectralClass:
    """Classification of a Walsh spectrum by its value set.

    kind is one of "Bent", "SemiBent", "Plateaued", "FlatOther", "General";
    s is the plateau order 0 <= s <= n when the spectrum is flat
    (values within {0, +-2^{(n+s)/2}}), None otherwise.
    """

    kind: str
    s: int | None = None

    def __str__(self) -> str:
        if self.kind == "Plateaued":
            return f"Plateaued({self.s})"
        return self.kind


def wht(f: BooleanFunction) -> WalshSpectrum:
    """Walsh-Hadamard transform, W_f(u) = sum_x (-1)^{f(x) xor u.x}."""
    signs = 1 - 2 * f.table.astype(np.int64)
    fwht_(signs)
    return WalshSpectrum(f.n, signs)


def classify(spec: WalshSpectrum) -> SpectralClass:
    """Classify a spectrum as Bent / SemiBent / Plateaued(s) / FlatOther / General.

    A single nonzero magnitude 2^{(n+s)/2} gives the s-plateaued family,
    reported with minimal s; s=0 is Bent (n even), s=1 is SemiBent (n odd),
    except that a spectrum concentrated on one point (s=n, constant and
    affine functions) is always reported as Plateaued(n).  A flat spectrum
    whose level is not a power of two of admissible exponent is FlatOther;
    anything with two or more nonzero magnitudes is General.
    """
    n = spec.n
    mags = np.unique(np.abs(spec.values))
    nonzero = mags[mags > 0]
    if len(nonzero) != 1:
        # zero or several distinct levels; all-zero cannot pass Parseval
        return SpectralClass("General")
    c = int(nonzero[0])
    if c & (c - 1):
        return SpectralClass("FlatOther")
    s = 2 * (c.bit_length() - 1) - n
    if s < 0 or s > n:
        return SpectralClass("FlatOther")
    if s == n:
        return SpectralClass("Plateaued", n)
    if s == 0:
        return SpectralClass("Bent", 0)
    if s == 1:
        return SpectralClass("SemiBent", 1)
    return SpectralClass("Plateaued", s)


def dual(f: BooleanFunction) -> BooleanFunction:
    """Dual f* of a bent function: W_f(u) = 2^{n/2} (-1)^{f*(u)}.

    Raises NotBent unless |W_f(u)| = 2^{n/2} for every u.
    """
    spec = wht(f)
    if f.n % 2 or not np.array_equal(np.abs(spec.values), np.full(1 << f.n, 1 << (f.n // 2))):
        raise NotBent(f"function is not bent (n={f.n})")
    return BooleanFunction(f.n, (spec.values < 0).astype(np.uint8))

