"""Vectorized gbent testing over whole families of functions.

The three routes run over F functions at once, entirely in integer numpy:

  direct     zeta-power tensor, FWHT along the point axis, exact
             negacyclic norms: flat iff |H(u)|^2 = 2^n
  spectral   component sign tensors, FWHT, vectorized Hadamard row match
  quadruple  component magnitudes plus the product relations

The kernels take the function axis last: value tables of shape (2^n, F),
coefficient and component Walsh tensors of shape (2^n, 2^{k-1}, F), and
per-u masks of shape (2^n, F).  So every test over the basis or component
axis is an elementwise operation on contiguous rows of F entries, each
butterfly stage runs down axis 0 over contiguous blocks, and per-function
verdicts accumulate over axis 0.  The enumeration helpers and
sweep_three_routes keep one function per row, shape (F, 2^n); a sweep
transposes its chunk once.

These kernels are the only implementation of each route: the single-function
routes in the analysis module call them for one function and then read
their per-u witnesses off the same coefficient and Walsh arrays.  The two
Walsh routes share one pass, walsh_routes, in a sweep and in a report.  Every
kernel also takes a single function without the function axis: a value
table of shape (2^n,) gives arrays of shape (2^n, 2^{k-1}) and (2^n,).

The coefficient and Walsh tensors are in spectrum_dtype(n), the smallest
signed integer type that holds their bound 2^n (int8 for n <= 6, int16 for
n <= 14, int32 above); norms (at most 2^{2n}) and the products of the
relations are taken one step wider (see the gbf module).  A sweep compares
the direct and spectral per-u pass masks pointwise and the verdicts of all
routes; any discrepancy is collected rather than raised, so callers can
report it.

Enumeration helpers provide exhaustive (lexicographic truth-table order)
and random function families in chunks; search_gbent drives them and
returns the re-verified hits of the command-line search as one matrix.

The exhaustive jobs, sweep_exhaustive and search_gbent without a count,
build no value tables per chunk.  In lexicographic order the functions of
a chunk share their values on the leading points, and both transforms are
sums of one term per point, so _split_spectra forms each chunk's
coefficient and Walsh tensors as per-space suffix tables plus a per-chunk
prefix term, one addition each.  The routes stay independent: the
coefficients come from zeta-powers and the Walsh values from component
signs, each through its own kernel.  Search decodes only its hits into
rows, and sweep_three_routes re-verifies each of them from its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .boolfn import MAX_N
from .cyclotomic import norm_squared_coeffs
from .errors import GbentError, InternalInconsistency
from .gbf import MAX_K, component_walsh, flat_mask, gwht_coeffs
from .hadamard import match_rows, products_hold

SEARCH_BITS_CAP = 24
CHUNK = 1 << 12     # functions per enumeration chunk


def batch_direct_flat(n: int, k: int, V: np.ndarray) -> np.ndarray:
    """(2^n, F) mask: |H_f(u)|^2 = 2^n exactly, for each u and function."""
    return flat_mask(n, norm_squared_coeffs(gwht_coeffs(V, k)))


def batch_component_walsh(n: int, k: int, V: np.ndarray) -> np.ndarray:
    """(2^n, 2^{k-1}, F) tensor of component Walsh values W_{g_i}(u)."""
    return component_walsh(V, k)


def split_halves(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low_zero, high_zero, active) for odd n along the component axis of W.

    low_zero and high_zero tell which half of W(u) vanishes; active is the
    high half where the low one vanishes and the low half otherwise.
    """
    half = W.shape[1] // 2
    low, high = W[:, :half], W[:, half:]
    low_zero = (low == 0).all(axis=1)
    high_zero = (high == 0).all(axis=1)
    return low_zero, high_zero, np.where(low_zero[:, None], high, low)


def batch_spectral_pass(n: int, k: int, W: np.ndarray, halves: tuple | None) -> tuple:
    """(r, sign, mask): mask, (2^n, F), holds where W(u) has the gbent shape.

    Even n: W(u) = +-2^{n/2} H^{(r)}.  Odd n: one half of W(u) vanishes and
    the other is +-2^{(n+1)/2} H^{(r)}; impossible for k = 1.  halves is
    split_halves(W) for odd n and unused for even n.  r and sign, the
    witness columns where mask holds, are match_rows' signed-row match of
    W, or for odd n of the active half (None for k = 1).
    """
    if n % 2 == 0:
        return match_rows(W, 1 << (n // 2))
    low_zero, high_zero, active = halves
    if k == 1:
        return None, None, np.zeros(low_zero.shape, dtype=bool)
    r, sign, ok = match_rows(active, 1 << ((n + 1) // 2))
    return r, sign, (low_zero ^ high_zero) & ok


def _magnitudes(n: int, W: np.ndarray) -> np.ndarray:
    """|W| = 2^{n/2} (bent, even n), or W in {0, +-2^{(n+1)/2}} (odd n), entrywise."""
    c = 1 << ((n + 1) // 2)
    if n % 2 == 0:
        return (W == c) | (W == -c)
    return (W == 0) | (W == c) | (W == -c)


def quadruple_masks(n: int, W: np.ndarray,
                    halves: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """(magnitudes, relations) of the product-relation route, k >= 2.

    magnitudes has the shape of W and holds where |W_{g_i}(u)| = 2^{n/2}
    (even n) or W_{g_i}(u) is 0 or +-2^{(n+1)/2} (odd n).  relations is
    per u and function: even n, the product relations hold on W(u); odd n,
    exactly one half of W(u) vanishes and the other has no zero and
    satisfies the product relations; it decides nothing where magnitudes
    fail.  halves is split_halves(W) for odd n and unused for even n.
    """
    if n % 2 == 0:
        return _magnitudes(n, W), products_hold(W)
    low_zero, high_zero, active = halves
    relations = ((low_zero ^ high_zero)
                 & (active != 0).all(axis=1)
                 & products_hold(active))
    return _magnitudes(n, W), relations


def batch_quadruple_verdict(magnitudes: np.ndarray, relations: np.ndarray) -> np.ndarray:
    """(F,) verdicts of the product-relation route from its quadruple_masks."""
    return magnitudes.all(axis=(0, 1)) & relations.all(axis=0)


def walsh_routes(n: int, k: int, V: np.ndarray) -> tuple:
    """(W, halves, spectral, quadruple): the one pass both Walsh routes read.

    W = batch_component_walsh(n, k, V) and the rest is _walsh_tests(n, k, W).
    """
    return _walsh_tests(n, k, batch_component_walsh(n, k, V))


def _walsh_tests(n: int, k: int, W: np.ndarray) -> tuple:
    """(W, halves, spectral, quadruple) of a component Walsh tensor W.

    halves = split_halves(W) for odd n (else None), the triple spectral =
    batch_spectral_pass(n, k, W, halves), and quadruple = quadruple_masks(n,
    W, halves) for k >= 2 (else None).
    """
    halves = split_halves(W) if n % 2 else None
    spectral = batch_spectral_pass(n, k, W, halves)
    quadruple = quadruple_masks(n, W, halves) if k >= 2 else None
    return W, halves, spectral, quadruple


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one batched three-route sweep."""

    n: int
    k: int
    total: int
    gbent_count: int
    verdicts: np.ndarray
    mismatches: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return not self.mismatches


def sweep_three_routes(n: int, k: int, V: np.ndarray) -> SweepResult:
    """Run all routes over a values matrix and collect disagreements.

    V holds one function per row, shape (F, 2^n), as the enumeration
    helpers yield it.  A function index lands in mismatches if the direct
    and spectral per-u masks differ anywhere, or if any route verdict
    differs (the quadruple route participates for k >= 2).
    """
    V = np.ascontiguousarray(np.asarray(V, dtype=np.int64).T)
    verdicts, bad = _compared(batch_direct_flat(n, k, V), walsh_routes(n, k, V))
    return SweepResult(n, k, V.shape[1], int(verdicts.sum()), verdicts,
                       tuple(np.flatnonzero(bad).tolist()))


def _compared(direct: np.ndarray, walsh: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(verdicts, bad), each (F,), from the direct mask and a walsh_routes pass.

    bad holds where the direct and spectral per-u masks differ anywhere, or
    where the quadruple verdict (k >= 2) differs from the direct one.
    """
    _, _, (_, _, spectral), quadruple = walsh
    bad = (direct != spectral).any(axis=0)
    verdicts = direct.all(axis=0)
    if quadruple is not None:
        bad |= verdicts != batch_quadruple_verdict(*quadruple)
    return verdicts, bad


def _check_space(n: int, k: int) -> None:
    """GB_n^{2^k} must have 1 <= n <= MAX_N and 1 <= k <= MAX_K."""
    if not 1 <= n <= MAX_N:
        raise GbentError(f"n must be an integer in [1, {MAX_N}], got {n}")
    if not 1 <= k <= MAX_K:
        raise GbentError(f"k must be an integer in [1, {MAX_K}], got {k}")


def _lex_rows(points: int, k: int, idx: np.ndarray) -> np.ndarray:
    """Value tables of the functions idx in lexicographic order: (len(idx), points).

    Function i has the base-2^k digits of i as its values, the most
    significant at point 0.
    """
    shifts = k * np.arange(points - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] >> shifts) & ((1 << k) - 1)


def exhaustive_values(n: int, k: int) -> Iterator[np.ndarray]:
    """All of GB_n^{2^k} as value matrices, lexicographic truth-table order.

    The value at point 0 is the most significant digit, so functions are
    ordered as tuples (f(0), f(1), ...).
    """
    _check_space(n, k)
    bits = k << n
    if bits > SEARCH_BITS_CAP:
        raise GbentError(
            f"|GB_{n}^{1 << k}| = 2^{bits} exceeds the enumeration cap 2^{SEARCH_BITS_CAP}")
    total = 1 << bits
    for start in range(0, total, CHUNK):
        yield _lex_rows(1 << n, k, np.arange(start, min(start + CHUNK, total), dtype=np.int64))


def _split_spectra(n: int, k: int, kernels: tuple) -> Iterator[list[np.ndarray]]:
    """Each kernel's output on each exhaustive_values chunk, formed by addition.

    kernels are gwht_coeffs and/or component_walsh; each is a sum over the
    points of one term per point value, so it is linear in the points.  The
    last s = min(2^n, log2(CHUNK) // k) points are the suffix, the largest
    one whose 2^{sk} tables fit in a chunk, and the others the prefix.
    Once per space, T = kernel(the 2^{sk} suffix tables, prefix 0).  A chunk
    is P = CHUNK / 2^{sk} consecutive prefixes times all suffixes, so it
    holds the functions of the matching exhaustive_values chunk, in order,
    and its output is T[:, :, None, :] + D[:, :, :, None] with
    D = kernel(the P prefix tables, suffix 0) - kernel(the zero table).
    D is taken for up to CHUNK prefixes in one kernel call.  A space of one
    chunk has no prefix: its output is T, the kernels of its one chunk.

    Dtype: T and T + D are spectra of functions, at most 2^n in magnitude,
    and D changes at most the 2^n - s prefix terms, by at most 2 each, so
    |D| <= 2 (2^n - s).  The enumeration cap k 2^n <= 24 gives n <= 4, so
    all three fit int8 = spectrum_dtype(n), and the sums are formed there.
    Past one chunk, the yielded arrays, of shape (2^n, 2^{k-1}, CHUNK), are
    buffers reused from chunk to chunk.
    """
    _check_space(n, k)
    N = 1 << n
    s = min(N, (CHUNK.bit_length() - 1) // k)
    if s == N:              # one chunk, all of it suffix
        for V in exhaustive_values(n, k):
            yield [kernel(np.ascontiguousarray(V.T), k) for kernel in kernels]
        return
    # the first 2^{sk} functions in lexicographic order are the suffix tables
    suffix = np.ascontiguousarray(next(exhaustive_values(n, k))[:1 << (s * k)].T)
    tables = [kernel(suffix, k) for kernel in kernels]
    zero = [kernel(np.zeros((N, 1), dtype=np.int64), k) for kernel in kernels]
    P = CHUNK >> (s * k)
    sums = [np.empty(T.shape[:2] + (P, T.shape[2]), dtype=T.dtype) for T in tables]
    chunks = [buf.reshape(buf.shape[:2] + (CHUNK,)) for buf in sums]
    prefixes = 1 << (k * (N - s))
    for block in range(0, prefixes, CHUNK):
        prefix = np.zeros((N, min(CHUNK, prefixes - block)), dtype=np.int64)
        prefix[:N - s] = _lex_rows(N - s, k, np.arange(
            block, block + prefix.shape[1], dtype=np.int64)).T
        D = [kernel(prefix, k) - Z for kernel, Z in zip(kernels, zero)]
        for p in range(0, prefix.shape[1], P):
            for T, Dk, buf in zip(tables, D, sums):
                np.add(T[:, :, None, :], Dk[:, :, p:p + P, None], out=buf)
            yield chunks


def random_values(rng: np.random.Generator, n: int, k: int,
                  count: int) -> np.ndarray:
    return rng.integers(0, 1 << k, size=(count, 1 << n), dtype=np.int64)


def sweep_exhaustive(n: int, k: int) -> SweepResult:
    """Three-route sweep over all of GB_n^{2^k}, chunk by chunk.

    Each chunk's coefficient and component Walsh tensors come from
    _split_spectra, one addition of per-space suffix tables and per-chunk
    prefix terms, and go through the tests and the route comparison of
    sweep_three_routes.
    """
    parts, mismatches, start = [], [], 0
    for C, W in _split_spectra(n, k, (gwht_coeffs, component_walsh)):
        verdicts, bad = _compared(flat_mask(n, norm_squared_coeffs(C)), _walsh_tests(n, k, W))
        parts.append(verdicts)
        mismatches += (start + np.flatnonzero(bad)).tolist()
        start += len(verdicts)
    verdicts = np.concatenate(parts)
    return SweepResult(n, k, start, int(verdicts.sum()), verdicts, tuple(mismatches))


def chunk_rows(n: int) -> int:
    """Functions per search block: CHUNK, or 16 CHUNK values where 2^n > 16."""
    return max(1, min(CHUNK, (CHUNK << 4) >> n))


def _verified(n: int, k: int, hits: np.ndarray) -> np.ndarray:
    """hits, if three-route sweeps of chunk_rows(n) rows at a time find all gbent."""
    rows = chunk_rows(n)
    for start in range(0, len(hits), rows):
        check = sweep_three_routes(n, k, hits[start:start + rows])
        if check.mismatches or check.gbent_count != check.total:
            raise InternalInconsistency(
                f"{check.total} search hits in GB_{n}^{1 << k}: routes disagree on "
                f"{len(check.mismatches)}, {check.total - check.gbent_count} not gbent")
    return hits


def _exhaustive_hits(n: int, k: int) -> Iterator[tuple[np.ndarray, int]]:
    """(hit rows, functions examined) per chunk of GB_n^{2^k}, in enumeration order."""
    start = 0
    for C, in _split_spectra(n, k, (gwht_coeffs,)):
        hit = np.flatnonzero(flat_mask(n, norm_squared_coeffs(C)).all(axis=0))
        yield _lex_rows(1 << n, k, start + hit), C.shape[-1]
        start += C.shape[-1]


def _random_hits(n: int, k: int, count: int,
                 rng: np.random.Generator) -> Iterator[tuple[np.ndarray, int]]:
    """(hit rows, functions examined) per block of count random draws."""
    rows = chunk_rows(n)
    for start in range(0, count, rows):
        V = random_values(rng, n, k, min(rows, count - start))
        yield V[batch_direct_flat(n, k, np.ascontiguousarray(V.T)).all(axis=0)], len(V)


def search_gbent(n: int, k: int, count: int | None = None,
                 rng: np.random.Generator | None = None) -> tuple[np.ndarray, int]:
    """Gbent functions from exhaustive (count=None) or random enumeration.

    The exhaustive mode decides each chunk of _split_spectra by the direct
    route and decodes only its hits into rows; the random mode scans
    chunk_rows(n) functions at a time, and its chunks consume rng as one
    draw of all count functions would.  Once chunk_rows(n) hits are
    pending, and at the end, three-route sweeps re-verify them; a route
    disagreement or a hit that fails there raises InternalInconsistency.
    Returns (hits, total): the (H, 2^n) int64 value matrix of the found
    functions in enumeration or draw order, and the number examined.
    """
    _check_space(n, k)
    if count is None:
        chunks = _exhaustive_hits(n, k)
    else:
        if not 0 <= count < 1 << 63:
            raise GbentError(f"count must be an integer in [0, 2^63), got {count}")
        chunks = _random_hits(n, k, count, np.random.default_rng() if rng is None else rng)
    found, pending = [], np.empty((0, 1 << n), dtype=np.int64)
    total = 0
    for hits, examined in chunks:
        pending = np.concatenate([pending, hits])
        total += examined
        if len(pending) >= chunk_rows(n):
            found.append(_verified(n, k, pending))
            pending = pending[:0]
    found.append(_verified(n, k, pending))
    return np.concatenate(found), total
