"""Gbent verdicts and structural analysis.

Three independent routes decide gbentness and must always agree:

  direct     exact |H_f(u)|^2 = 2^n in Z[zeta_{2^k}] for every u
  spectral   the component-spectrum vector W(u) = (W_{g_0}(u), ...) matches
             +-2^{n/2} H^{(r)} for even n, or one of the two half-zero
             patterns (+-2^{(n+1)/2} H^{(r)}, 0) / (0, +-2^{(n+1)/2} H^{(r)})
             for odd n
  quadruple  component (semi-)bentness plus the product relations
             W_{g_j} W_{g_c} = W_{g_l} W_{g_v} on zero-sum index quadruples

Each route is the one-function call of its batch kernel in the sweep
module, so a single function and a sweep share one implementation.  The per-u
witness columns of a passing report (the Hadamard row index r(u), the
sign, and for odd n which half of the component spectrum vanishes) are
read off the same arrays: the GWHT coefficient rows for the direct route,
the component Walsh rows for the other two.  They are kept as columns of
ints, and only the text and JSON forms of a report walk them point by
point.

Beyond the verdicts, this module checks the affine (semi-)bent-space
structure of the component family (dual-sum closure, majority-function
closure, and for odd n the splitting subspace L_1) on the quadruple
route's component Walsh array, decides Z_q-bentness by two routes (all
nonzero multiples gbent; all truncations gbent), and verifies the
relative-difference-set property of the graph of f by exact difference
counts.  The last two read one difference spectrum
R_c(u) = sum_v I_{v+c}(u) I_v(u) of the level-set Walsh transforms I_v:
|H_{a f}(u)|^2 = sum_c zeta^{a c} R_c(u) exactly, and the inverse Walsh
transform of R_c counts the x with f(x) - f(x + d) = c.  R is int64 with
every entry, and every coefficient folded from it, at most 2^{2n} <= 2^48.

Component Walsh arrays come in spectrum_dtype(n) (see the gbf module); sums
of their entries are taken one step wider.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, WalshSpectrum, _wider, fwht_, spectrum_dtype, wht
from .errors import GbentError, InternalInconsistency
from .gbf import (
    GeneralizedBooleanFunction,
    component_walsh,
    component_walsh_matrix,
    flat_mask,
    gwht,
)
from .hadamard import match_rows, products_hold
from .sweep import (
    _magnitudes,
    batch_component_walsh,
    batch_direct_flat,
    batch_spectral_pass,
    quadruple_masks,
    split_halves,
)


@dataclass(frozen=True)
class GbentReport:
    """Verdict of one gbent route with per-point witness data.

    witnesses holds the witness columns, entry u of each belonging to
    point u: (r, sign) for even n, (r, sign, high) for odd n with high 1
    where the high half of the component spectrum vanishes, and () when
    the route fails.  At point u, H_f(u) = sign * 2^{n/2} zeta^{...} with
    r indexing a row of H_{2^{k-1}} (even n) or H_{2^{k-2}} (odd n).
    """

    verdict: bool
    method: str
    n: int
    k: int
    witnesses: tuple[tuple[int, ...], ...]
    failures: tuple[int, ...]

    def __post_init__(self):
        if self.verdict != (len(self.failures) == 0):
            raise InternalInconsistency(
                f"{self.method} report says verdict={self.verdict} "
                f"with {len(self.failures)} failures")

    def _points(self):
        """(u, r, sign, half) per point; half is "low"/"high" for odd n, else None."""
        if not self.witnesses:
            return ()
        r, sign, *high = self.witnesses
        halves = [("low", "high")[h] for h in high[0]] if high else [None] * len(r)
        return zip(itertools.count(), r, sign, halves)

    def to_text(self) -> str:
        lines = [f"# method: {self.method}",
                 f"# verdict: {'gbent' if self.verdict else 'not gbent'}"]
        if self.failures:
            lines.append(f"# failures: {' '.join(str(u) for u in self.failures)}")
        lines.append("# u r sign half")
        lines.extend(f"{u} {r} {sign:+d} {half or '-'}"
                     for u, r, sign, half in self._points())
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "n": self.n,
            "k": self.k,
            "per_u": [{"u": u, "r": r, "sign": sign, "half": half}
                      for u, r, sign, half in self._points()],
            "failures": list(self.failures),
        }


def _report(method, f, witnesses, failures) -> GbentReport:
    return GbentReport(not failures, method, f.n, f.k, witnesses, tuple(failures))


def _witnesses(r: np.ndarray, sign: np.ndarray, high=None) -> tuple[tuple[int, ...], ...]:
    """Witness columns from (r, sign) arrays and, for odd n, the high-half mask."""
    cols = (r, sign) if high is None else (r, sign, high)
    return tuple(tuple(c.astype(np.int64).tolist()) for c in cols)


def is_gbent_direct(f: GeneralizedBooleanFunction) -> GbentReport:
    """Definition route: |H_f(u)|^2 = 2^n exactly at every u.

    Witnesses are read off the cyclotomic value itself.  Even n: H_f(u) must
    be +-2^{n/2} zeta^r (one nonzero basis coefficient).  Odd n: H_f(u) must
    be sign * 2^{(n-1)/2} (zeta^r +- zeta^{r+2^{k-2}}), the two-term form of
    sqrt(2) times a root of unity; equal coefficient signs mean the high
    half of the component spectrum vanishes, opposite signs the low half.
    A norm pass without the matching shape would contradict the structure
    of cyclotomic integers of absolute value 2^{n/2} and raises
    InternalInconsistency.
    """
    spec = gwht(f)
    C = spec.coeffs
    failures = np.flatnonzero(~flat_mask(f.n, spec.norm_squared_all())).tolist()
    if failures:
        return _report("direct", f, (), failures)
    nz = C != 0
    r = nz.argmax(axis=1)
    points = np.arange(1 << f.n)
    first = C[points, r]
    if f.n % 2 == 0:
        bad = (nz.sum(axis=1) != 1) | (np.abs(first) != 1 << (f.n // 2))
        shape, high = "+-2^(n/2) zeta^r", None
    else:
        half_mag = 1 << ((f.n - 1) // 2)
        quarter = C.shape[1] // 2
        second = C[points, (r + quarter) % C.shape[1]]
        bad = ((nz.sum(axis=1) != 2) | (r >= quarter)
               | (np.abs(first) != half_mag) | (np.abs(second) != half_mag))
        shape, high = "sqrt(2) 2^((n-1)/2) zeta^j", second == first
    if bad.any():
        raise InternalInconsistency(
            f"norm passed at u={int(np.flatnonzero(bad)[0])} but value is not {shape}")
    sign = np.where(first > 0, 1, -1)
    return _report("direct", f, _witnesses(r, sign, high), failures)


def _walsh_report(method: str, f: GeneralizedBooleanFunction, W: np.ndarray,
                  halves: tuple | None, failures: list[int]) -> GbentReport:
    """Report with witnesses read off the component Walsh rows W(u).

    The sign and r are read from the entries at positions 0 and 2^s of W(u),
    or for odd n of its nonvanishing half, taken from halves =
    split_halves(W); the route's verdict never depends on them.
    """
    if failures:
        return _report(method, f, (), failures)
    high = None
    if f.n % 2:
        low_zero, _, W = halves
        high = ~low_zero
    r, sign, _ = match_rows(W)
    return _report(method, f, _witnesses(r, sign, high), failures)


def _component_walsh(f: GeneralizedBooleanFunction) -> tuple[np.ndarray, tuple | None]:
    """(W, halves): the (2^n, 2^{k-1}) component Walsh array of f and, for
    odd n, split_halves(W); the two Walsh routes take both.

    The batch kernels take a (2^n, F) value table; this is the F = 1 call,
    with the function axis dropped again.  perfbench's tracer sizes the
    kernel's block from that two-axis table.
    """
    W = batch_component_walsh(f.n, f.k, f.values[:, None])[..., 0]
    return W, split_halves(W) if f.n % 2 else None


def _spectral_report(f: GeneralizedBooleanFunction, W: np.ndarray,
                     halves: tuple | None) -> GbentReport:
    ok = batch_spectral_pass(f.n, f.k, W, halves)
    return _walsh_report("spectral", f, W, halves, np.flatnonzero(~ok).tolist())


def _quadruple_report(f: GeneralizedBooleanFunction, W: np.ndarray,
                      halves: tuple | None) -> GbentReport:
    magnitudes, relations = quadruple_masks(f.n, W, halves)
    bad = ~magnitudes.all(axis=1) if not magnitudes.all() else ~relations
    return _walsh_report("quadruple", f, W, halves, np.flatnonzero(bad).tolist())


def is_gbent_spectral(f: GeneralizedBooleanFunction) -> GbentReport:
    """Component-spectra route.

    Even n: for every u the vector W(u) of component Walsh values must be
    +-2^{n/2} times a row of H_{2^{k-1}}.  Odd n: W(u) must vanish on
    exactly one half and be +-2^{(n+1)/2} times a row of H_{2^{k-2}} on the
    other.  For k=1 this degenerates to the plain bentness test.
    """
    return _spectral_report(f, *_component_walsh(f))


def is_gbent_quadruple(f: GeneralizedBooleanFunction) -> GbentReport:
    """Product-relation route, k >= 2.

    Even n: every component must be bent and, at every u, every zero-sum
    index quadruple must satisfy W_{g_j} W_{g_c} = W_{g_l} W_{g_v}.  Odd n:
    every component must be semi-bent, the zero set of W(u) must be exactly
    one half of the indices, and the product relations must hold on the
    active half.  When some magnitude is off, the failures are the points
    where it is; otherwise they are the points where the relations fail.
    """
    if f.k < 2:
        raise GbentError(f"quadruple route needs k >= 2, got k={f.k}")
    return _quadruple_report(f, *_component_walsh(f))


def gbent_reports(f: GeneralizedBooleanFunction) -> tuple[GbentReport, ...]:
    """All applicable routes: three for k >= 2, two for k = 1.

    The spectral and quadruple routes apply their own tests to one
    component Walsh array, computed once here.
    """
    direct = is_gbent_direct(f)
    W, halves = _component_walsh(f)
    reports = [direct, _spectral_report(f, W, halves)]
    if f.k >= 2:
        reports.append(_quadruple_report(f, W, halves))
    return tuple(reports)


def gbent_verdict(f: GeneralizedBooleanFunction) -> bool:
    """Direct-route verdict alone: the F = 1 flatness kernel, no witnesses."""
    return bool(batch_direct_flat(f.n, f.k, f.values[:, None]).all())


def is_gbent(f: GeneralizedBooleanFunction) -> bool:
    """Consensus verdict; raises InternalInconsistency if routes disagree."""
    reports = gbent_reports(f)
    verdicts = {r.verdict for r in reports}
    if len(verdicts) != 1:
        raise InternalInconsistency(
            "gbent routes disagree: "
            + ", ".join(f"{r.method}={r.verdict}" for r in reports))
    return reports[0].verdict


# -- affine (semi-)bent space structure --------------------------------------


@dataclass(frozen=True)
class BentSpaceReport:
    """Structure of the component affine space A = a_{k-1} + <a_0..a_{k-2}>.

    Even n: is_affine_bent_space (all members bent), dual_sum_closed
    (h_j* + h_c* + h_l* + h_v* = 0 on every zero-sum quadruple), and
    mesnager_closed (every distinct-triple majority is bent).  Odd n:
    is_affine_bent_space means all members semi-bent, mesnager_closed means
    all triple majorities semi-bent, and odd_split_subspace is the found
    hyperplane mask c realizing the per-u vanishing split (component index
    i is in the subspace iff popcount(i & c) is even), or None.

    For even n, all_hold is equivalent to gbentness of f.  For odd n the
    structure is representation-independent: all_hold with a split mask
    other than 2^{k-2} certifies a function that becomes gbent after the
    low coordinates are re-adapted to the found subspace, while f as given
    is gbent only when the mask is the standard 2^{k-2}.
    """

    n: int
    k: int
    is_affine_bent_space: bool
    dual_sum_closed: bool | None
    mesnager_closed: bool
    odd_split_subspace: int | None

    @property
    def all_hold(self) -> bool:
        if self.n % 2 == 0:
            return bool(self.is_affine_bent_space and self.dual_sum_closed
                        and self.mesnager_closed)
        return bool(self.is_affine_bent_space and self.mesnager_closed
                    and self.odd_split_subspace is not None)


def _majority_walsh(w0, w1, w2, w3) -> np.ndarray:
    """Carlet's identity (w0 + w1 + w2 - w3) / 2, exact when g0 + g1 + g2 + g3 = 0.

    The sum, up to 4 2^n in magnitude, is taken one step wider than the
    spectra's dtype.
    """
    total = np.add(w0, w1, dtype=_wider(np.result_type(w0, w1, w2, w3)))
    total += w2
    total -= w3
    if (total & 1).any():
        raise InternalInconsistency("majority Walsh identity sum is odd")
    return total >> 1


def _majorities_pass(n: int, W: np.ndarray) -> bool:
    """Every majority of components i < j < l passes the member test.

    g_i + g_j + g_l + g_{i^j^l} = 0, so Carlet's identity gives each
    majority's spectrum from four columns of W, in blocks of about 2 MB.
    bent_space_report runs it for odd n only; for even n it is the test
    reference of the product relations (see bent_space_report).
    """
    m = W.shape[1]
    J, L = np.triu_indices(m, 1)        # pairs j < l, sorted by j
    step = max(1, (1 << 18) // len(W))
    for i in range(m - 2):
        for s in range(int(np.searchsorted(J, i, side="right")), len(J), step):
            j, l = J[s:s + step], L[s:s + step]
            M = _majority_walsh(W[:, i, None], W[:, j], W[:, l], W[:, i ^ j ^ l])
            if not _magnitudes(n, M).all():
                return False
    return True


def bent_space_report(f: GeneralizedBooleanFunction) -> BentSpaceReport:
    """Check the component family against the affine-space characterizations.

    All of it is read off one component Walsh array W.  For bent members
    g_j* + g_c* + g_l* + g_v* = 0 at u exactly when W_j W_c = W_l W_v there,
    so dual-sum closure is the quadruple route's product relations.

    For even n majority closure is the same condition.  The majority of
    g_i, g_j, g_l has the spectrum (W_i + W_j + W_l - W_v) / 2 with
    v = i^j^l (Carlet's identity).  When every W_t(u) = +-c, that sum of four
    signed c's has magnitude 2c exactly when an odd number of its terms
    are negative, that is when W_i W_j W_l (-W_v) = -c^4, or
    W_i W_j = W_l W_v.  The triples i < j < l run over every 2-flat
    {i, j, l, v}, so all majorities are bent exactly when the product
    relations hold, and mesnager_closed is dual_sum_closed.  For odd n the
    majorities are tested one block of triples at a time.
    """
    if f.k < 2:
        raise GbentError(f"bent space structure needs k >= 2, got k={f.k}")
    W = component_walsh_matrix(f)
    even = f.n % 2 == 0
    is_space = bool(_magnitudes(f.n, W).all())
    if even:
        dual_sum_closed = mesnager_closed = bool(is_space and products_hold(W).all())
    else:
        dual_sum_closed = None
        mesnager_closed = is_space and _majorities_pass(f.n, W)

    split_mask: int | None = None
    if not even:
        # every W(u) must vanish exactly on {i : popcount(i & c) even} or off
        # it, for one c != 0: then 1 - 2 [W(u) = 0] is +-H^{(c)} at every u
        r, _, ok = match_rows(1 - 2 * (W == 0))
        if ok.all() and (r == r[0]).all() and r[0]:
            split_mask = int(r[0])
    return BentSpaceReport(f.n, f.k, is_space, dual_sum_closed,
                           mesnager_closed, split_mask)


def carlet_walsh_identity(g0: BooleanFunction, g1: BooleanFunction,
                          g2: BooleanFunction, g3: BooleanFunction) -> WalshSpectrum:
    """Spectrum of the majority g0 g1 + g0 g2 + g1 g2 from the four spectra.

    Requires g0 + g1 + g2 + g3 = 0; then the majority function's Walsh
    transform is (W_{g0} + W_{g1} + W_{g2} - W_{g3}) / 2 pointwise.
    """
    if (g0 ^ g1 ^ g2 ^ g3).weight() != 0:
        raise GbentError("the four functions must XOR to zero")
    spectra = (wht(g).values for g in (g0, g1, g2, g3))
    return WalshSpectrum(g0.n, _majority_walsh(*spectra))


# -- Z_q-bentness and relative difference sets -------------------------------


@dataclass(frozen=True)
class ZqBentReport:
    """Z_q-bent verdict with both decision routes spelled out.

    per_a[a-1] is the gbent verdict of (a f) mod 2^k for a = 1..2^k-1;
    per_t[t] is the gbent verdict of the truncation to GB_n^{2^{k-t}} for
    t = 0..k-1.  A multiple a and the truncation t with 2^t = gcd(a, 2^k)
    have the same verdict (see is_zq_bent); the routes share their first
    entry, the verdict of f itself.
    """

    verdict: bool
    per_a: tuple[bool, ...]
    per_t: tuple[bool, ...]


def _difference_spectra(values: np.ndarray, k: int) -> np.ndarray:
    """R_c(u) = sum_v I_{v+c}(u) I_v(u) for 0 <= c <= 2^{k-1}: shape (2^{k-1} + 1, 2^n), int64.

    I_v is the Walsh transform of the level-set indicator [f = v], all 2^k of
    them taken in one butterfly, and c runs over Z_{2^k}.  Expanding
    H_{a f}(u) conj(H_{a f}(u)) over pairs of values gives
    |H_{a f}(u)|^2 = sum_c zeta_{2^k}^{a c} R_c(u), and the inverse Walsh
    transform of R_c counts the x with f(x) - f(x + d) = c.  R_{-c} = R_c, so
    the rows c <= 2^{k-1} formed here determine R, and no caller needs the rest.

    Exact: I is built in spectrum_dtype(n), which holds |I_v(u)| <= 2^n,
    every product is taken in int64, and
    |R_c(u)| <= (sum_v |I_v(u)|)^2 <= 2^{2n} <= 2^48, which bounds each
    partial sum as well.
    """
    q, size = 1 << k, values.shape[-1]
    I = np.zeros((size, q), dtype=spectrum_dtype(size.bit_length() - 1))
    I[np.arange(size), values] = 1
    # the butterfly runs down contiguous rows; the products want value rows
    I = np.ascontiguousarray(fwht_(I, axis=0).T)
    R = np.empty((q // 2 + 1, size), dtype=np.int64)
    for c in range(q // 2 + 1):
        R[c] = np.einsum("vu,vu->u", I[c:], I[:q - c], dtype=np.int64)
        if c:
            R[c] += np.einsum("vu,vu->u", I[:c], I[q - c:], dtype=np.int64)
    return R


def is_zq_bent(f: GeneralizedBooleanFunction) -> ZqBentReport:
    """Decide Z_q-bentness (even n) by multiples and by truncations.

    Route A follows the definition: (a f) mod 2^k must be gbent for every
    nonzero a.  Route B checks that every truncation f mod 2^{k-t} is gbent
    in GB_n^{2^{k-t}}.

    Both read one difference spectrum R (see _difference_spectra) and make
    no GWHT.  With q = 2^k, |H_{a f}(u)|^2 = sum_c zeta_q^{a c} R_c(u).  The
    map e(c) = a c mod q has period g = q / gcd(a, q), so the sum is R folded
    onto R'_j = sum of R_c over c = j mod g, j < g.  Since
    e(j + g/2) = e(j) + q/2 and zeta_q^{q/2} = -1, its power-basis
    coefficients are, up to sign and order, the rows R'_j - R'_{j+g/2} for
    j < g/2, with coefficient 0 at j = 0.  So (a f) is gbent exactly when
    that row is 2^n and the others vanish, a test that depends on a only
    through g.  The truncation f mod g has |H(u)|^2 = sum_c zeta_g^c R_c(u),
    the same fold with a = 1, so route B reads the same k tests: one per
    g = 2^k, ..., 2.  R' is symmetric like R, R'_{g-j} = R'_j, so rows
    j <= g/2 hold it: the test is R'_0 - R'_{g/2} = 2^n with rows 1..g/2-1
    a palindrome, and the next fold is R'_j + R'_{g/2-j}, taken in place.
    Every folded entry is at most sum_c |R_c(u)| <= 2^{2n} <= 2^48 in
    magnitude, so int64 is exact.
    """
    if f.n % 2:
        raise GbentError("Z_q-bentness is defined here for even n only")
    q = 1 << f.k
    R = _difference_spectra(f.values, f.k)
    flat = {}
    for g in (q >> i for i in range(f.k)):     # R[:g/2 + 1] holds R' for period g
        h = g // 2
        flat[g] = bool((R[0] - R[h] == 1 << f.n).all() and (R[1:h] == R[h - 1:0:-1]).all())
        if h > 1:
            R[:h // 2 + 1] += R[h:h // 2 - 1:-1]
    per_a = tuple(flat[q // math.gcd(a, q)] for a in range(1, q))
    per_t = tuple(flat[q >> t] for t in range(f.k))
    return ZqBentReport(all(per_a), per_a, per_t)


def coordinates_span_bent(f: GeneralizedBooleanFunction) -> bool:
    """True iff every nonzero F_2-combination of coordinates is bent.

    Those with top coordinate a_{j-1} are the components of f mod 2^j.
    """
    return f.n % 2 == 0 and all(
        _magnitudes(f.n, component_walsh(f.values % (1 << j), j)).all()
        for j in range(1, f.k + 1))


def verify_rds(f: GeneralizedBooleanFunction) -> bool:
    """Exact relative-difference-set check for the graph of f.

    The graph {(x, f(x))} is a (2^n, 2^k, 2^n, 2^{n-k}) relative difference
    set in V_n x Z_{2^k} iff for every d != 0 the multiset
    {f(x) - f(x + d) mod 2^k} takes each value exactly 2^{n-k} times;
    differences with vanishing V_n part never occur off the diagonal.

    The counts N_c(d) = #{x : f(x) - f(x + d) = c} come from the difference
    spectrum: R_c(u) = sum_d N_c(d) (-1)^{u.d}, so one inverse butterfly of R
    gives 2^n N_c(d), and the division by 2^n must be exact.  N_{-c} = N_c,
    so the rows c <= 2^{k-1} decide.  |R_c(u)| <= 2^{2n}, so every partial
    sum of the butterfly is at most 2^{3n} <= 2^48 under the counting cap
    n <= 16.
    """
    if f.n % 2:
        raise GbentError("relative difference set check is defined for even n")
    size = 1 << f.n
    if size > 1 << 16:
        raise GbentError(f"2^n = {size} exceeds the counting cap 2^16")
    q = 1 << f.k
    lam, rem = divmod(size, q)
    if rem:
        return False
    # R_c(0) = sum_d N_c(d), the cyclic autocorrelation of the value counts,
    # must be 2^{n-k} (2^n - 1) + 2^n [c = 0]: a necessary condition, checked
    # before R is formed at 2^k 2^n entries, that every balanced f fails
    h = np.bincount(f.values, minlength=q)
    lin = np.correlate(h, h, mode="full")       # lin[q - 1 + s] = sum_v h_{v+s} h_v
    totals = lin[q - 1:] + np.concatenate(([0], lin[:q - 1]))
    if (totals != lam * (size - 1) + size * (np.arange(q) == 0)).any():
        return False
    # the butterfly runs down contiguous rows, so count with d on axis 0
    counts = fwht_(np.ascontiguousarray(_difference_spectra(f.values, f.k).T), axis=0)
    if (counts & (size - 1)).any():
        raise InternalInconsistency("difference counts: 2^n N_c(d) not divisible by 2^n")
    return bool(((counts[1:] >> f.n) == lam).all())
