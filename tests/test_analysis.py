"""Tests for the gbent decision routes and structural analysis."""

import itertools
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import rds_naive
from gbent.analysis import (
    BentSpaceReport,
    GbentReport,
    _difference_spectrum,
    _majorities_pass,
    bent_space_report,
    carlet_walsh_identity,
    coordinates_span_bent,
    gbent_reports,
    gbent_verdict,
    is_gbent,
    is_gbent_direct,
    is_gbent_quadruple,
    is_gbent_spectral,
    is_zq_bent,
    verify_rds,
)
from gbent.boolfn import BooleanFunction, dual, wht
from gbent.cyclotomic import CyclotomicInt, norm_squared_coeffs

zeta_pow = CyclotomicInt.zeta_pow
from gbent.constructions import lift, regular_spread, spread_zqbent
from gbent.errors import GbentError, InternalInconsistency
from gbent.gbf import GeneralizedBooleanFunction, component_walsh_matrix, components, gwht
from gbent.hadamard import row, zero_sum_quadruples
from gbent.sweep import batch_direct_flat, search_gbent

IP4 = [(x & 1) * ((x >> 2) & 1) ^ ((x >> 1) & 1) * ((x >> 3) & 1)
       for x in range(16)]

# a_1 = x0 x1, a_0 = x0
SEED22 = GeneralizedBooleanFunction(2, 2, [0, 1, 0, 3])
# f = x2 + 2 x0 x1
SEED32 = GeneralizedBooleanFunction(3, 2, [0, 0, 0, 2, 1, 1, 1, 3])
# a_2 = <x, y>, a_1 = x1, a_0 = x0: dual second derivative vanishes
SEED43 = GeneralizedBooleanFunction(
    4, 3, [(x & 1) + 2 * ((x >> 1) & 1) + 4 * IP4[x] for x in range(16)])
# a_2 = <x, y>, a_1 = y0, a_0 = x0: dual second derivative is constant 1,
# so every component is bent but f is not gbent
BENT_NOT_GBENT = GeneralizedBooleanFunction(
    4, 3, [(x & 1) + 2 * ((x >> 2) & 1) + 4 * IP4[x] for x in range(16)])


def all_gbfs(n, k):
    size = 1 << n
    for vals in itertools.product(range(1 << k), repeat=size):
        yield GeneralizedBooleanFunction(n, k, vals)


def random_gbf(rng, n, k):
    return GeneralizedBooleanFunction(n, k, rng.integers(0, 1 << k, size=1 << n))


def space_reference(f):
    """bent_space_report member by member: Boolean components, duals, majorities."""
    fam = components(f)
    m, even = len(fam), f.n % 2 == 0

    def member_ok(g):
        w = wht(g).values
        if even:
            return bool((np.abs(w) == 1 << (f.n // 2)).all())
        return bool(((w == 0) | (np.abs(w) == 1 << ((f.n + 1) // 2))).all())

    def majority(a, b, c):
        return BooleanFunction(f.n, (a.table & b.table) ^ (a.table & c.table)
                               ^ (b.table & c.table))

    is_space = all(member_ok(g) for g in fam)
    dual_sum = None
    if even:
        dual_sum = is_space and all(
            (dual(fam[j]) ^ dual(fam[c]) ^ dual(fam[l]) ^ dual(fam[v])).weight() == 0
            for j, c, l, v in zero_sum_quadruples(m))
    mesnager = is_space and all(member_ok(majority(fam[i], fam[j], fam[l]))
                                for i, j, l in itertools.combinations(range(m), 3))
    split = None
    if not even:
        zero = np.stack([wht(g).values for g in fam], axis=1) == 0
        for c in range(1, m):
            inside = row(f.k - 1, c) == 1
            if ((zero == inside).all(axis=1) | (zero == ~inside).all(axis=1)).all():
                split = c
                break
    return BentSpaceReport(f.n, f.k, is_space, dual_sum, mesnager, split)


def witness_value(n, k, r, sign, high=None):
    """Reconstruct H_f(u) from the witness columns at one point."""
    if n % 2 == 0:
        return sign * (1 << (n // 2)) * zeta_pow(k, r)
    quarter = 1 << (k - 2)
    second = zeta_pow(k, r + quarter)
    if not high:
        second = -second
    return sign * (1 << ((n - 1) // 2)) * (zeta_pow(k, r) + second)


class TestKnownVerdicts:
    def test_seed22_gbent(self):
        assert is_gbent(SEED22)

    def test_swapped_coordinates_not_gbent(self):
        # a_1 = x0, a_0 = x1
        f = GeneralizedBooleanFunction(2, 2, [0, 2, 1, 3])
        assert not is_gbent(f)

    def test_constant_not_gbent(self):
        f = GeneralizedBooleanFunction(2, 2, [0, 0, 0, 0])
        r = is_gbent_direct(f)
        assert not r.verdict and len(r.failures) > 0

    def test_odd_seed_gbent(self):
        assert is_gbent(SEED32)

    def test_seed43_gbent(self):
        assert is_gbent(SEED43)

    def test_all_components_bent_is_not_enough(self):
        reports = gbent_reports(BENT_NOT_GBENT)
        assert all(not r.verdict for r in reports)
        # the product relation fails at every u
        quad = reports[2]
        assert quad.method == "quadruple"
        assert list(quad.failures) == list(range(16))

    def test_duplicated_component_odd_not_gbent(self):
        # a_1 = x0 x1, a_0 = 0: both components equal, no vanishing half
        f = GeneralizedBooleanFunction(
            3, 2, [2 * ((x & 1) & ((x >> 1) & 1)) for x in range(8)])
        assert not is_gbent(f)

    def test_k1_even_reduces_to_bent(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        assert is_gbent(f)
        g = GeneralizedBooleanFunction(2, 1, [0, 1, 0, 1])
        assert not is_gbent(g)

    def test_k1_odd_never_gbent(self):
        for vals in itertools.product(range(2), repeat=8):
            f = GeneralizedBooleanFunction(3, 1, vals)
            reports = gbent_reports(f)
            assert len(reports) == 2
            assert all(not r.verdict for r in reports)

    def test_quadruple_route_rejects_k1(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        with pytest.raises(GbentError, match=r"quadruple route needs k >= 2"):
            is_gbent_quadruple(f)

    def test_n1_k2_gbent(self):
        f = GeneralizedBooleanFunction(1, 2, [0, 1])
        assert is_gbent(f)


class TestRouteAgreement:
    def test_exhaustive_n2_k2(self):
        count = 0
        for f in all_gbfs(2, 2):
            d, s, q = gbent_reports(f)
            assert d.verdict == s.verdict == q.verdict
            assert d.failures == s.failures
            if d.verdict:
                count += 1
                assert d.witnesses == s.witnesses == q.witnesses
        assert count == 64

    def test_exhaustive_n1_k2(self):
        count = 0
        for f in all_gbfs(1, 2):
            d, s, q = gbent_reports(f)
            assert d.verdict == s.verdict == q.verdict
            assert d.failures == s.failures
            if d.verdict:
                count += 1
                assert d.witnesses == s.witnesses == q.witnesses
        # gbent iff the two values differ by an odd residue
        assert count == 8

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_random_agreement(self, rng, n, k):
        for _ in range(40):
            f = random_gbf(rng, n, k)
            d, s, q = gbent_reports(f)
            assert d.verdict == s.verdict == q.verdict
            assert d.failures == s.failures
            if d.verdict:
                assert d.witnesses == s.witnesses == q.witnesses

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_routes_are_report_entries(self, n):
        # all of GB_n^4: the public Walsh routes equal their gbent_reports entries
        for f in all_gbfs(n, 2):
            _, s, q = gbent_reports(f)
            assert is_gbent_spectral(f) == s
            assert is_gbent_quadruple(f) == q

    def test_consensus_matches_direct(self, rng):
        for _ in range(30):
            f = random_gbf(rng, 3, 2)
            assert is_gbent(f) == is_gbent_direct(f).verdict


class TestWitnesses:
    @pytest.mark.parametrize("f", [
        SEED22, SEED32, SEED43,
        spread_zqbent(regular_spread(4), 4, range(16)),
        lift(SEED32, 3),
        GeneralizedBooleanFunction(4, 1, IP4),
    ], ids=["22", "32", "43", "spread84", "lift33", "bent41"])
    def test_witness_reconstructs_gwht(self, f):
        spec = gwht(f)
        for rep in gbent_reports(f):
            assert rep.verdict, rep.method
            assert [len(col) for col in rep.witnesses] == [1 << f.n] * (2 + f.n % 2)
            for u, point in enumerate(zip(*rep.witnesses)):
                assert witness_value(f.n, f.k, *point) == spec[u]

    def test_witness_reconstruction_exhaustive(self):
        for f in all_gbfs(2, 2):
            rep = is_gbent_direct(f)
            if rep.verdict:
                spec = gwht(f)
                for u, point in enumerate(zip(*rep.witnesses)):
                    assert witness_value(f.n, f.k, *point) == spec[u]

    def test_odd_witness_halves(self):
        rep = is_gbent_direct(SEED32)
        # W(u) = (+-4, 0) for u2 = 0 (high half vanishes), (0, +-4) for u2 = 1
        _, _, high = rep.witnesses
        assert high == (1, 1, 1, 1, 0, 0, 0, 0)

    def test_even_witness_half_is_none(self):
        rep = is_gbent_direct(SEED22)
        assert len(rep.witnesses) == 2
        r, sign = rep.witnesses
        assert all(0 <= x < 2 for x in r)
        assert set(sign) <= {-1, 1}

    def test_no_witnesses_on_failure(self):
        for rep in gbent_reports(BENT_NOT_GBENT):
            assert rep.witnesses == ()


class TestReportFormat:
    def test_text_round_shape(self):
        rep = is_gbent_direct(SEED22)
        text = rep.to_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# method: direct"
        assert lines[1] == "# verdict: gbent"
        assert lines[2] == "# u r sign half"
        body = lines[3:]
        assert len(body) == 4
        for u, line in enumerate(body):
            parts = line.split()
            assert int(parts[0]) == u
            assert parts[2][0] in "+-"
            assert parts[3] == "-"

    def test_text_odd_half_column(self):
        text = is_gbent_direct(SEED32).to_text()
        body = text.strip().split("\n")[3:]
        assert {line.split()[3] for line in body} == {"low", "high"}

    def test_failure_listing(self):
        f = GeneralizedBooleanFunction(2, 2, [0, 2, 1, 3])
        rep = is_gbent_direct(f)
        text = rep.to_text()
        assert "not gbent" in text
        assert any(line.startswith("# failures:") for line in text.split("\n"))

    def test_json_dict(self):
        d = is_gbent_direct(SEED22).to_json_dict()
        assert d["verdict"] is True
        assert d["method"] == "direct"
        assert d["n"] == 2 and d["k"] == 2
        assert len(d["per_u"]) == 4
        assert d["failures"] == []

    def test_report_invariant(self):
        with pytest.raises(InternalInconsistency):
            GbentReport(True, "direct", 2, 2, (), (3,))

    def test_invariants_survive_optimized_mode(self):
        # python -O strips assert statements; these checks must still raise
        script = textwrap.dedent("""
            import numpy as np
            import gbent.sweep as sweep
            from gbent.analysis import GbentReport
            from gbent.errors import InternalInconsistency

            assert False, "assertions are enabled"
            try:
                GbentReport(True, "direct", 2, 2, (), (3,))
                raise SystemExit("contradictory report accepted")
            except InternalInconsistency:
                pass
            sweep.batch_spectral_pass = lambda n, k, W, halves: (None, None, np.zeros(
                W.shape[:1] + W.shape[2:], bool))
            try:
                sweep.search_gbent(2, 2)
                raise SystemExit("search returned hits the routes disagree on")
            except InternalInconsistency:
                pass
            print("ok")
        """)
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "ok\n"


class TestBentSpace:
    def test_even_gbent_space_holds(self):
        rep = bent_space_report(SEED43)
        assert rep.is_affine_bent_space
        assert rep.dual_sum_closed
        assert rep.mesnager_closed
        assert rep.odd_split_subspace is None
        assert rep.all_hold

    def test_even_dual_sum_obstruction(self):
        rep = bent_space_report(BENT_NOT_GBENT)
        assert rep.is_affine_bent_space
        assert not rep.dual_sum_closed
        assert not rep.all_hold

    def test_even_k2_degenerate(self):
        rep = bent_space_report(SEED22)
        assert rep.all_hold
        assert rep.dual_sum_closed and rep.mesnager_closed

    def test_odd_split_found(self):
        rep = bent_space_report(SEED32)
        assert rep.is_affine_bent_space
        assert rep.mesnager_closed
        assert rep.odd_split_subspace == 1
        assert rep.all_hold

    def test_odd_no_split(self):
        f = GeneralizedBooleanFunction(
            3, 2, [2 * ((x & 1) & ((x >> 1) & 1)) for x in range(8)])
        rep = bent_space_report(f)
        assert rep.odd_split_subspace is None
        assert not rep.all_hold

    def test_not_a_bent_space(self):
        # a_1 = x0 x1, a_0 = x0: the component a_1 + a_0 is not bent enough?
        # use an affine coordinate on odd n: components not semi-bent valued
        f = GeneralizedBooleanFunction(3, 2, [x & 1 for x in range(8)])
        rep = bent_space_report(f)
        assert not rep.is_affine_bent_space
        assert not rep.all_hold

    def test_space_iff_gbent_exhaustive_even(self):
        # for n = k = 2 the full structural report is equivalent to gbentness
        for f in all_gbfs(2, 2):
            assert bent_space_report(f).all_hold == is_gbent_direct(f).verdict

    def test_even_majority_closure_is_dual_sum_closure(self, rng):
        # the Carlet-triple pass, which decides odd n, is the reference
        fams = [SEED43, BENT_NOT_GBENT] + [lift(SEED22, r) for r in range(2, 9)]
        fams += [lift(SEED43, r) for r in (4, 5)]
        fams += [spread_zqbent(regular_spread(m), k,
                               rng.permutation(np.arange(1 << m) % (1 << k)))
                 for m in (2, 3, 4) for k in range(1, m + 1) if k >= 2]
        changed = []
        for f in fams:
            values = f.values.copy()
            x = int(rng.integers(0, len(values)))
            values[x] = (values[x] + int(rng.integers(1, 1 << f.k))) % (1 << f.k)
            changed.append(GeneralizedBooleanFunction(f.n, f.k, values))
        seen = set()
        for f in fams + changed:
            rep = bent_space_report(f)
            want = rep.is_affine_bent_space and _majorities_pass(f.n, component_walsh_matrix(f))
            assert rep.mesnager_closed == want == rep.dual_sum_closed, f.to_text()
            seen.add((rep.is_affine_bent_space, want))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_rejects_k1(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        with pytest.raises(GbentError, match=r"bent space structure needs k >= 2"):
            bent_space_report(f)

    def test_matches_boolean_reference(self, rng):
        fams = [SEED22, SEED32, SEED43, BENT_NOT_GBENT]
        fams += [lift(f, r) for f in (SEED22, SEED32, SEED43) for r in (4, 5)]
        for n, k in ((2, 3), (3, 2), (3, 3), (4, 2)):
            hits, _ = search_gbent(n, k, count=20_000, rng=rng)
            fams += [GeneralizedBooleanFunction(n, k, values) for values in hits[:6]]
        fams += [random_gbf(rng, n, k) for n in (1, 2, 3, 4) for k in (2, 3, 4)
                 for _ in range(4)]
        for f in fams:
            assert bent_space_report(f) == space_reference(f), f.to_text()


class TestCarletIdentity:
    def test_matches_direct_wht(self, rng):
        n = 4
        for _ in range(20):
            tabs = [rng.integers(0, 2, size=16, dtype=np.uint8) for _ in range(3)]
            g = [BooleanFunction(n, t) for t in tabs]
            g3 = g[0] ^ g[1] ^ g[2]
            maj = BooleanFunction(n, (g[0].table & g[1].table)
                                  ^ (g[0].table & g[2].table)
                                  ^ (g[1].table & g[2].table))
            lhs = carlet_walsh_identity(g[0], g[1], g[2], g3)
            assert lhs.values.tolist() == wht(maj).values.tolist()

    def test_rejects_non_zero_sum(self):
        g0 = BooleanFunction.constant(2)
        g1 = BooleanFunction.linear(2, 1)
        g2 = BooleanFunction.linear(2, 2)
        with pytest.raises(GbentError, match=r"must XOR to zero"):
            carlet_walsh_identity(g0, g1, g2, g0)


class TestZqBent:
    def test_k1_bent_is_zq_bent(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        rep = is_zq_bent(f)
        assert rep.verdict
        assert rep.per_a == (True,)
        assert rep.per_t == (True,)

    def test_gbent_but_not_zq_bent(self):
        # the first coordinate x0 of SEED22 is not bent
        rep = is_zq_bent(SEED22)
        assert not rep.verdict
        assert rep.per_a[0]      # a = 1 is the gbent verdict itself
        assert not rep.per_t[1]  # truncation to k = 1 is the coordinate a_0

    def test_rejects_odd_n(self):
        with pytest.raises(GbentError, match=r"Z_q-bentness is defined here for even n only"):
            is_zq_bent(SEED32)

    def test_routes_agree_exhaustive(self):
        for f in all_gbfs(2, 2):
            rep = is_zq_bent(f)
            assert rep.verdict == all(rep.per_a) == all(rep.per_t)

    def test_matches_gwht_verdicts(self):
        # each entry against the GWHT kernel run on the multiple or truncation:
        # the batch call for whole families, gbent_verdict for single functions
        rng = np.random.default_rng(2024)
        families = [(2, k, np.array(list(itertools.product(range(1 << k), repeat=4))))
                    for k in (2, 3)]
        families += [(n, k, rng.integers(0, 1 << k, size=(100, 1 << n)))
                     for n in (2, 4, 6) for k in range(1, 6)]
        kinds = set()
        for n, k, V in families:
            per_a = np.stack([batch_direct_flat(n, k, V.T * a % (1 << k)).all(axis=0)
                              for a in range(1, 1 << k)], axis=1)
            per_t = np.stack([batch_direct_flat(n, k - t, V.T % (1 << (k - t))).all(axis=0)
                              for t in range(k)], axis=1)
            for values, want_a, want_t in zip(V, per_a, per_t):
                rep = is_zq_bent(GeneralizedBooleanFunction(n, k, values))
                assert (rep.per_a, rep.per_t) == (tuple(want_a), tuple(want_t))
                kinds.add((rep.per_a[0], rep.verdict, any(rep.per_a)))
        singles = [spread_zqbent(regular_spread(m), k,
                                 rng.permutation(np.arange(1 << m) % (1 << k)))
                   for m in range(3, 7) for k in (2, m)]
        singles += [lift(SEED22, r) for r in range(3, 6)]
        for f in singles:
            rep = is_zq_bent(f)
            assert rep.per_a == tuple(gbent_verdict(f.scale(a)) for a in range(1, 1 << f.k))
            assert rep.per_t == tuple(gbent_verdict(f.truncate(t)) for t in range(f.k))
            kinds.add((rep.per_a[0], rep.verdict, any(rep.per_a)))
        # Z_q-bent, gbent but not Z_q-bent, and neither with some multiple gbent
        assert {(True, True, True), (True, False, True), (False, False, True)} <= kinds

    def test_direct_report_stands_for_the_top_truncation(self):
        # given f's direct report, the verdict of f mod 2^k is read off it and
        # the k - 1 lower truncations decide the rest, as without it
        rng = np.random.default_rng(7)
        fs = [SEED22, lift(SEED22, 4), spread_zqbent(regular_spread(3), 3, range(8)),
              *(GeneralizedBooleanFunction(4, k, rng.integers(0, 1 << k, 16))
                for k in (1, 2, 3))]
        for f in fs:
            assert is_zq_bent(f, is_gbent_direct(f)) == is_zq_bent(f)

    def test_rejects_another_report(self):
        f = lift(SEED22, 3)
        for rep in (is_gbent_spectral(f), is_gbent_direct(SEED22),
                    is_gbent_direct(GeneralizedBooleanFunction(4, 3, np.zeros(16, int)))):
            with pytest.raises(GbentError, match=r"needs a direct report for n=2, k=3"):
                is_zq_bent(f, rep)

    def test_difference_spectra_int64_extremes(self):
        # f = 0 at n = 16 gives R_0(0) = 2^32, beyond what int32 products hold
        n = 16
        x = np.arange(1 << n)
        rng = np.random.default_rng(5)
        for k, values in ((1, np.zeros(1 << n, dtype=np.int64)),
                          (2, rng.integers(0, 4, size=1 << n))):
            R = _difference_spectrum(GeneralizedBooleanFunction(n, k, values))
            for u in (0, 1, 0xBEEF, (1 << n) - 1):
                signs = 1 - 2 * (np.bitwise_count(x & u) & 1).astype(np.int64)
                level = [int(signs[values == v].sum()) for v in range(1 << k)]
                want = [sum(level[(v + c) % (1 << k)] * level[v] for v in range(1 << k))
                        for c in range((1 << k) // 2 + 1)]
                assert R[:, u].tolist() == want
        assert R.dtype == np.int64
        zero = GeneralizedBooleanFunction(n, 1, np.zeros(1 << n, dtype=np.int64))
        assert _difference_spectrum(zero)[0, 0] == 1 << 32

    def test_coordinates_span(self):
        assert coordinates_span_bent(
            GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1]))
        assert not coordinates_span_bent(SEED22)


class TestVerifyRds:
    def test_bent_k1(self):
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        assert verify_rds(f)

    def test_gbent_without_rds(self):
        assert not verify_rds(SEED22)

    def test_rds_iff_zq_bent_exhaustive(self):
        for f in all_gbfs(2, 2):
            assert verify_rds(f) == is_zq_bent(f).verdict

    def test_rejects_odd_n(self):
        with pytest.raises(GbentError, match=r"relative difference set check is defined for even n"):
            verify_rds(SEED32)

    def test_rejects_large_n(self):
        f = GeneralizedBooleanFunction(18, 1, np.zeros(1 << 18, dtype=np.int64))
        with pytest.raises(GbentError, match=r"exceeds the counting cap"):
            verify_rds(f)

    def test_odd_unfold_sum_raises(self, monkeypatch):
        # norms that disagree in parity with R folded mod g/2 are inconsistent
        def odd(C):
            N = norm_squared_coeffs(C)
            N[0, 0] += 1
            return N

        monkeypatch.setattr("gbent.analysis.norm_squared_coeffs", odd)
        f = GeneralizedBooleanFunction(2, 1, [0, 0, 0, 1])
        with pytest.raises(InternalInconsistency, match=r"mod 2: odd unfold sum"):
            verify_rds(f)

    def test_k_larger_than_n(self):
        f = GeneralizedBooleanFunction(2, 3, [0, 1, 2, 3])
        assert not verify_rds(f)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        spreads = [spread_zqbent(regular_spread(m), k,
                                 rng.permutation(np.arange(1 << m) % (1 << k)))
                   for m in (2, 3, 4) for k in range(1, m + 1)]
        # one value moved off each spread function: a near miss
        nudged = [GeneralizedBooleanFunction(f.n, f.k, np.where(
            np.arange(1 << f.n) == 1 + i, (f.values + 1) % (1 << f.k), f.values))
            for i, f in enumerate(spreads)]
        # the same value counts on shuffled points: only the full counts decide
        shuffled = [GeneralizedBooleanFunction(f.n, f.k, rng.permutation(f.values))
                    for f in spreads]
        corpus = itertools.chain(
            all_gbfs(2, 1), all_gbfs(2, 2), spreads, nudged, shuffled,
            (random_gbf(rng, n, k) for n in (2, 4, 6) for k in range(1, 5)
             for _ in range(20)),          # k > n at n = 2: q > 2^n
            (lift(SEED22, r) for r in (3, 4)))
        verdicts = []
        for f in corpus:
            verdicts.append(verify_rds(f))
            assert verdicts[-1] == rds_naive(f.values, f.n, f.k)
        assert sum(verdicts) >= len(spreads)
