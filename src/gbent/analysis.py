"""Gbent verdicts and structural analysis.

Three independent routes decide gbentness and must always agree:

  direct     exact |H_f(u)|^2 = 2^n in Z[zeta_{2^k}] for every u
  spectral   the component-spectrum vector W(u) = (W_{g_0}(u), ...) matches
             +-2^{n/2} H^{(r)} for even n, or one of the two half-zero
             patterns (+-2^{(n+1)/2} H^{(r)}, 0) / (0, +-2^{(n+1)/2} H^{(r)})
             for odd n
  quadruple  component (semi-)bentness plus the product relations
             W_{g_j} W_{g_c} = W_{g_l} W_{g_v} on zero-sum index quadruples

Each route is the F = 1 call of its batch kernel in the sweep module, so a
single function and a sweep share one implementation.  The per-u
witness columns of a passing report (the Hadamard row index r(u), the
sign, and for odd n which half of the component spectrum vanishes) are
read off the same arrays: the GWHT coefficient rows for the direct route,
the component Walsh rows for the other two.  They are kept as columns of
ints, and only the text and JSON forms of a report walk them point by
point.

Beyond the verdicts, this module checks the affine (semi-)bent-space
structure of the component family (dual-sum closure, majority-function
closure, and for odd n the splitting subspace L_1), decides Z_q-bentness
by two routes (all nonzero multiples gbent; all truncations gbent), and
verifies the relative-difference-set property of the graph of f by exact
pair counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, WalshSpectrum, dual, wht
from .errors import GbentError, InternalInconsistency
from .gbf import (
    GeneralizedBooleanFunction,
    component_walsh_matrix,
    components,
    coordinates,
    flat_mask,
    gwht,
)
from .hadamard import match_rows, row, zero_sum_quadruples
from .sweep import (
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
                  failures: list[int]) -> GbentReport:
    """Report with witnesses read off the component Walsh rows W(u).

    The sign and r are read from the entries at positions 0 and 2^s of W(u),
    or of its nonvanishing half for odd n; the route's verdict never depends
    on them.
    """
    if failures:
        return _report(method, f, (), failures)
    high = None
    if f.n % 2:
        low_zero, _, W = split_halves(W)
        high = ~low_zero
    r, sign, _ = match_rows(W)
    return _report(method, f, _witnesses(r, sign, high), failures)


def is_gbent_spectral(f: GeneralizedBooleanFunction) -> GbentReport:
    """Component-spectra route.

    Even n: for every u the vector W(u) of component Walsh values must be
    +-2^{n/2} times a row of H_{2^{k-1}}.  Odd n: W(u) must vanish on
    exactly one half and be +-2^{(n+1)/2} times a row of H_{2^{k-2}} on the
    other.  For k=1 this degenerates to the plain bentness test.
    """
    W = batch_component_walsh(f.n, f.k, f.values[None])
    ok = batch_spectral_pass(f.n, f.k, W)[0]
    return _walsh_report("spectral", f, W[0], np.flatnonzero(~ok).tolist())


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
    W = batch_component_walsh(f.n, f.k, f.values[None])
    magnitudes, relations = quadruple_masks(f.n, W)
    bad = ~magnitudes[0].all(axis=1) if not magnitudes.all() else ~relations[0]
    return _walsh_report("quadruple", f, W[0], np.flatnonzero(bad).tolist())


def gbent_reports(f: GeneralizedBooleanFunction) -> tuple[GbentReport, ...]:
    """All applicable routes: three for k >= 2, two for k = 1."""
    reports = [is_gbent_direct(f), is_gbent_spectral(f)]
    if f.k >= 2:
        reports.append(is_gbent_quadruple(f))
    return tuple(reports)


def gbent_verdict(f: GeneralizedBooleanFunction) -> bool:
    """Direct-route verdict alone: the F = 1 flatness kernel, no witnesses."""
    return bool(batch_direct_flat(f.n, f.k, f.values[None]).all())


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


def _majority(a: BooleanFunction, b: BooleanFunction, c: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(a.n, (a.table & b.table) ^ (a.table & c.table)
                           ^ (b.table & c.table))


def _is_bent(g: BooleanFunction) -> bool:
    if g.n % 2:
        return False
    return bool((np.abs(wht(g).values) == 1 << (g.n // 2)).all())


def _is_semibent_valued(g: BooleanFunction) -> bool:
    # Walsh values within {0, +-2^{(n+1)/2}}; unlike the minimal-s
    # classification this accepts affine functions only at n = 1
    if g.n % 2 == 0:
        return False
    w = wht(g).values
    c = 1 << ((g.n + 1) // 2)
    return bool(((w == 0) | (np.abs(w) == c)).all())


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


def bent_space_report(f: GeneralizedBooleanFunction) -> BentSpaceReport:
    """Check the component family against the affine-space characterizations."""
    if f.k < 2:
        raise GbentError(f"bent space structure needs k >= 2, got k={f.k}")
    fam = list(components(f))
    m = len(fam)
    even = f.n % 2 == 0
    member_ok = _is_bent if even else _is_semibent_valued
    is_space = all(member_ok(g) for g in fam)

    dual_sum_closed: bool | None = None
    if even:
        dual_sum_closed = False
        if is_space:
            duals = [dual(g) for g in fam]
            dual_sum_closed = all(
                (duals[j] ^ duals[c] ^ duals[l] ^ duals[v]).weight() == 0
                for j, c, l, v in zero_sum_quadruples(m))

    mesnager_closed = all(
        member_ok(_majority(fam[i], fam[j], fam[l]))
        for i, j, l in itertools.combinations(range(m), 3)) if is_space else False
    if m < 3:
        mesnager_closed = is_space

    split_mask: int | None = None
    if not even:
        zero = component_walsh_matrix(f) == 0
        # prefer the hyperplane of the standard representation <a_0..a_{k-3}>
        candidates = [1 << (f.k - 2)] + [c for c in range(1, m) if c != 1 << (f.k - 2)]
        for c in candidates:
            # the zero set of every W(u) must be the hyperplane or its complement
            inside = row(f.k - 1, c) == 1
            if ((zero == inside).all(axis=1) | (zero == ~inside).all(axis=1)).all():
                split_mask = c
                break
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
    total = (wht(g0).values + wht(g1).values + wht(g2).values - wht(g3).values)
    if (total & 1).any():
        raise InternalInconsistency("majority Walsh identity sum is odd")
    return WalshSpectrum(g0.n, total >> 1)


# -- Z_q-bentness and relative difference sets -------------------------------


@dataclass(frozen=True)
class ZqBentReport:
    """Z_q-bent verdict with both decision routes spelled out.

    per_a[a-1] is the gbent verdict of (a f) mod 2^k for a = 1..2^k-1;
    per_t[t] is the gbent verdict of the truncation to GB_n^{2^{k-t}} for
    t = 0..k-1.  The two routes are equivalent and are both computed; they
    share their first entry, the verdict of f itself.
    """

    verdict: bool
    per_a: tuple[bool, ...]
    per_t: tuple[bool, ...]


def is_zq_bent(f: GeneralizedBooleanFunction) -> ZqBentReport:
    """Decide Z_q-bentness (even n) by multiples and by truncations.

    Route A follows the definition: (a f) mod 2^k must be gbent for every
    nonzero a.  Route B checks that every truncation f mod 2^{k-t} is gbent
    in GB_n^{2^{k-t}}.  Disagreement raises InternalInconsistency.
    """
    if f.n % 2:
        raise GbentError("Z_q-bentness is defined here for even n only")
    per_a = tuple(gbent_verdict(f.scale(a)) for a in range(1, 1 << f.k))
    per_t = per_a[:1] + tuple(gbent_verdict(f.truncate(t)) for t in range(1, f.k))
    if all(per_a) != all(per_t):
        raise InternalInconsistency(
            f"multiple route says {all(per_a)}, truncation route says {all(per_t)}")
    return ZqBentReport(all(per_a), per_a, per_t)


def coordinates_span_bent(f: GeneralizedBooleanFunction) -> bool:
    """True iff every nonzero F_2-combination of coordinates is bent."""
    coords = coordinates(f)
    for mask in range(1, 1 << f.k):
        g = BooleanFunction.constant(f.n)
        for j in range(f.k):
            if (mask >> j) & 1:
                g = g ^ coords[j]
        if not _is_bent(g):
            return False
    return True


def verify_rds(f: GeneralizedBooleanFunction) -> bool:
    """Exact relative-difference-set check for the graph of f.

    The graph {(x, f(x))} is a (2^n, 2^k, 2^n, 2^{n-k}) relative difference
    set in V_n x Z_{2^k} iff for every d != 0 the multiset
    {f(x) - f(x + d) mod 2^k} takes each value exactly 2^{n-k} times;
    differences with vanishing V_n part never occur off the diagonal.
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
    x = np.arange(size)
    for d in range(1, size):
        diffs = (f.values - f.values[x ^ d]) % q
        if not (np.bincount(diffs, minlength=q) == lam).all():
            return False
    return True
