"""Definitional gbent oracle, written without any part of the gbent package.

For f: V_n -> Z_{2^k} the generalized Walsh value is

    H_f(u) = sum_x zeta^{f(x)} (-1)^{u.x},   zeta = exp(2 pi i / 2^k),

held here as an integer coefficient vector in the power basis
1, zeta, ..., zeta^{M-1} with M = 2^{k-1} and zeta^M = -1.  f is gbent iff
|H_f(u)|^2 = 2^n at every u.  Everything is exact integer arithmetic, and
the algorithms differ on purpose from the library's: spectra come from
per-point character sums or a dense character-matrix product instead of a
butterfly, and the norm is the plain double sum over exponent pairs.

Points x are integers whose bit i is x_i, and u.x is the parity of
popcount(u & x), the convention of the package under test.
"""

from __future__ import annotations

import numpy as np


def characters(n: int, u) -> np.ndarray:
    """(-1)^{u.x} for x in V_n, one row per entry of u."""
    x = np.arange(1 << n, dtype=np.uint32)
    u = np.asarray(u, dtype=np.uint32)
    return 1 - 2 * (np.bitwise_count(u[..., None] & x) & 1).astype(np.int64)


def zeta_power(k: int, e: int) -> np.ndarray:
    """Coefficient vector of zeta^e."""
    M = 1 << (k - 1)
    e %= 2 * M
    out = np.zeros(M, dtype=np.int64)
    out[e % M] = 1 if e < M else -1
    return out


def spectrum_at(values: np.ndarray, k: int, u: int) -> np.ndarray:
    """H_f(u) by summing the 2^n character terms of one point."""
    M = 1 << (k - 1)
    n = int(values.size).bit_length() - 1
    v = np.asarray(values, dtype=np.int64) % (2 * M)
    sign = np.where(v >= M, -1, 1) * characters(n, u)
    idx = v % M
    return (np.bincount(idx[sign > 0], minlength=M)
            - np.bincount(idx[sign < 0], minlength=M)).astype(np.int64)


def spectra(V: np.ndarray, n: int, k: int) -> np.ndarray:
    """(F, 2^n, M) spectra of a (F, 2^n) value matrix via the character matrix."""
    M = 1 << (k - 1)
    V = np.asarray(V, dtype=np.int64) % (2 * M)
    onehot = np.zeros(V.shape + (M,), dtype=np.int64)
    np.put_along_axis(onehot, (V % M)[..., None],
                      np.where(V >= M, -1, 1)[..., None], axis=-1)
    return np.einsum("ux,fxm->fum", characters(n, np.arange(1 << n)), onehot)


def norm_squared(C: np.ndarray) -> np.ndarray:
    """a * conj(a) for coefficient vectors on the last axis.

    conj(zeta^j) = zeta^{-j}, so a conj(a) = sum_{i,j} c_i c_j zeta^{i-j}, and
    zeta^e for -M < e < 0 is -zeta^{e+M}.
    """
    M = C.shape[-1]
    out = np.zeros_like(C)
    for i in range(M):
        for j in range(M):
            e = i - j
            if e >= 0:
                out[..., e] += C[..., i] * C[..., j]
            else:
                out[..., e + M] -= C[..., i] * C[..., j]
    return out


def flat(C: np.ndarray, n: int) -> np.ndarray:
    """|H|^2 = 2^n exactly, per coefficient vector on the last axis."""
    N2 = norm_squared(C)
    return (N2[..., 0] == 1 << n) & (N2[..., 1:] == 0).all(axis=-1)


def gbent_verdicts(V: np.ndarray, n: int, k: int, block: int = 1 << 13) -> np.ndarray:
    """Exact gbent verdict of every row of a (F, 2^n) value matrix, small n."""
    out = np.empty(len(V), dtype=bool)
    for s in range(0, len(V), block):
        out[s:s + block] = flat(spectra(V[s:s + block], n, k), n).all(axis=1)
    return out


def decode_lex(indices, n: int, k: int) -> np.ndarray:
    """Value rows of functions by index in lexicographic truth-table order.

    The index is the base-2^k numeral f(0) f(1) ... f(2^n - 1), f(0) most
    significant.
    """
    idx = np.asarray(indices, dtype=np.int64)
    N = 1 << n
    out = np.empty(idx.shape + (N,), dtype=np.int64)
    for x in range(N):
        out[..., x] = (idx >> (k * (N - 1 - x))) & ((1 << k) - 1)
    return out


def dual_holds(values: np.ndarray, dual_values: np.ndarray, n: int, k: int,
               points) -> bool:
    """H_f(u) = 2^{n/2} zeta^{f*(u)} at every given point u."""
    scale = 1 << (n // 2)
    return all(np.array_equal(spectrum_at(values, k, int(u)),
                              scale * zeta_power(k, int(dual_values[u])))
               for u in points)


def parse_functions(text: str) -> list[tuple[int, int, np.ndarray]]:
    """Generalized functions in the "n k" + values text form, back to back.

    Lines that do not start a two-token header are left to the caller; the
    parser consumes exactly one value line after each header.
    """
    lines = text.splitlines()
    out = []
    i = 0
    while i + 1 < len(lines):
        head = lines[i].split()
        if len(head) != 2:
            break
        n, k = int(head[0]), int(head[1])
        out.append((n, k, np.array(lines[i + 1].split(), dtype=np.int64)))
        i += 2
    return out
