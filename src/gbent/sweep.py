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
their per-u witnesses off the same coefficient and Walsh arrays.  Every
kernel also takes a single function without the function axis: a value
table of shape (2^n,) gives arrays of shape (2^n, 2^{k-1}) and (2^n,).

The coefficient and Walsh tensors are in spectrum_dtype(n), the smallest
signed integer type that holds their bound 2^n (int8 for n <= 6, int16 for
n <= 14, int32 above); norms (at most 2^{2n}) and the products of the
relations are taken one step wider (see the gbf module).  A sweep compares the direct and spectral per-u pass masks
pointwise and the verdicts of all routes; any discrepancy is collected
rather than raised, so callers can report it.

Enumeration helpers provide exhaustive (lexicographic truth-table order)
and random function families in chunks, and search_gbent drives them for
the command-line search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cyclotomic import norm_squared_coeffs
from .errors import GbentError, InternalInconsistency
from .gbf import GeneralizedBooleanFunction, component_walsh, flat_mask, gwht_coeffs
from .hadamard import match_rows, products_hold

SEARCH_BITS_CAP = 24


def batch_direct_flat(n: int, k: int, V: np.ndarray) -> np.ndarray:
    """(2^n, F) mask: |H_f(u)|^2 = 2^n exactly, for each u and function."""
    return flat_mask(n, norm_squared_coeffs(gwht_coeffs(V, k)))


def batch_component_walsh(n: int, k: int, V: np.ndarray) -> np.ndarray:
    """(2^n, 2^{k-1}, F) tensor of component Walsh values W_{g_i}(u)."""
    return component_walsh(V, k)


def split_halves(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low_zero, high_zero, active) for odd n along the component axis of W.

    low_zero and high_zero tell which half of W(u) vanishes; active is the
    high half where the low one vanishes and the low half otherwise.  The
    spectral and quadruple kernels take this split as their halves argument,
    so a caller that runs both computes it once.
    """
    half = W.shape[1] // 2
    low, high = W[:, :half], W[:, half:]
    low_zero = (low == 0).all(axis=1)
    high_zero = (high == 0).all(axis=1)
    return low_zero, high_zero, np.where(low_zero[:, None], high, low)


def batch_spectral_pass(n: int, k: int, W: np.ndarray, halves: tuple | None) -> np.ndarray:
    """(2^n, F) mask: the component vector W(u) has the gbent shape.

    Even n: W(u) = +-2^{n/2} H^{(r)}.  Odd n: one half of W(u) vanishes and
    the other is +-2^{(n+1)/2} H^{(r)}; impossible for k = 1.  halves is
    split_halves(W) for odd n and unused for even n.
    """
    if n % 2 == 0:
        return match_rows(W, 1 << (n // 2))[2]
    if k == 1:
        return np.zeros(W.shape[:1] + W.shape[2:], dtype=bool)
    low_zero, high_zero, active = halves
    return (low_zero ^ high_zero) & match_rows(active, 1 << ((n + 1) // 2))[2]


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


def batch_quadruple_verdict(n: int, k: int, W: np.ndarray,
                            halves: tuple | None) -> np.ndarray:
    """(F,) verdicts of the product-relation route, k >= 2; halves as in quadruple_masks."""
    magnitudes, relations = quadruple_masks(n, W, halves)
    return magnitudes.all(axis=(0, 1)) & relations.all(axis=0)


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
    direct = batch_direct_flat(n, k, V)
    W = batch_component_walsh(n, k, V)
    halves = split_halves(W) if n % 2 else None
    spectral = batch_spectral_pass(n, k, W, halves)
    bad = (direct != spectral).any(axis=0)
    verdicts = direct.all(axis=0)
    if k >= 2:
        bad |= verdicts != batch_quadruple_verdict(n, k, W, halves)
    bad |= verdicts != spectral.all(axis=0)
    return SweepResult(n, k, V.shape[1], int(verdicts.sum()), verdicts,
                       tuple(np.flatnonzero(bad).tolist()))


def exhaustive_values(n: int, k: int, chunk: int = 1 << 12) -> Iterator[np.ndarray]:
    """All of GB_n^{2^k} as value matrices, lexicographic truth-table order.

    The value at point 0 is the most significant digit, so functions are
    ordered as tuples (f(0), f(1), ...).
    """
    N = 1 << n
    bits = k * N
    if bits > SEARCH_BITS_CAP:
        raise GbentError(
            f"|GB_{n}^{1 << k}| = 2^{bits} exceeds the enumeration cap 2^{SEARCH_BITS_CAP}")
    total = 1 << bits
    mask = (1 << k) - 1
    shifts = np.array([k * (N - 1 - x) for x in range(N)], dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] >> shifts) & mask


def random_values(rng: np.random.Generator, n: int, k: int,
                  count: int) -> np.ndarray:
    return rng.integers(0, 1 << k, size=(count, 1 << n), dtype=np.int64)


def sweep_exhaustive(n: int, k: int) -> SweepResult:
    """Three-route sweep over all of GB_n^{2^k}, accumulated chunkwise."""
    total = gbent = 0
    verdicts = []
    mismatches: list[int] = []
    for V in exhaustive_values(n, k):
        res = sweep_three_routes(n, k, V)
        mismatches.extend(i + total for i in res.mismatches)
        total += res.total
        gbent += res.gbent_count
        verdicts.append(res.verdicts)
    return SweepResult(n, k, total, gbent, np.concatenate(verdicts),
                       tuple(mismatches))


def search_gbent(n: int, k: int, count: int | None = None,
                 rng: np.random.Generator | None = None,
                 ) -> tuple[list[GeneralizedBooleanFunction], int]:
    """Gbent functions from exhaustive (count=None) or random enumeration.

    The hits of each chunk are re-verified by one three-route sweep before
    being returned; a route disagreement or a hit that fails there raises
    InternalInconsistency.  Returns (found functions, total functions
    examined).
    """
    found: list[GeneralizedBooleanFunction] = []
    total = 0
    if count is None:
        chunks = exhaustive_values(n, k)
    else:
        if rng is None:
            rng = np.random.default_rng()
        chunks = iter([random_values(rng, n, k, count)])
    for V in chunks:
        hits = V[batch_direct_flat(n, k, np.ascontiguousarray(V.T)).all(axis=0)]
        check = sweep_three_routes(n, k, hits)
        if check.mismatches or check.gbent_count != check.total:
            raise InternalInconsistency(
                f"{check.total} search hits in GB_{n}^{1 << k}: routes disagree on "
                f"{len(check.mismatches)}, {check.total - check.gbent_count} not gbent")
        total += len(V)
        found.extend(GeneralizedBooleanFunction(n, k, v) for v in hits)
    return found, total
