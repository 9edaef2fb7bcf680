"""Command-line interface: formats, exit codes, round trips."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbent.boolfn
import gbent.cyclotomic
import gbent.gbf
import gbent.sweep
from gbent.analysis import is_gbent, is_zq_bent
from gbent.boolfn import BooleanFunction
from gbent.cli import main
from gbent.constructions import regular_spread, spread_zqbent
from gbent.errors import FormatError
from gbent.gbf import GeneralizedBooleanFunction, gwht

SEED22 = "2 2\n0 1 0 3\n"
SEED32 = "3 2\n0 0 0 2 1 1 1 3\n"
ZERO22 = "2 2\n0 0 0 0\n"


# sha256 of the stdout of `gbent search ARGV`, as it was when each hit was
# printed through its own function object
PINNED_SEARCH = {
    "2 4": "a08654d5303cd9819b8f3403e6f4a8f09b2a5236722bcd9c339d98846e5f5326",
    "3 2": "71f1da1caff9dc79b5118ffa141b501114ef06e7e4a0be3cbeea9dede34b548e",
    "4 1": "d0b0ed1f35552b7b9ebe77ba71c31ec81d98996e215a517e0e4a52be60889a1b",
    "3 3 --random 20000 --seed 5":
        "214b893506419f1402192dcbc904cddbc8b3d40b34b524f81efad177e8d36a53",
    "2 2 --random 0": "6ba3a1d4f49331639f09fd4c145f8924aff43b27efc57a7b68a27b2b881de6d6",
}


@pytest.fixture
def gbf22(tmp_path):
    p = tmp_path / "f.gbf"
    p.write_text(SEED22)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_gbent_exit_zero(self, capsys, gbf22):
        code, out, _ = run(capsys, "check", gbf22)
        assert code == 0
        assert out.startswith("gbent, Z_4-bent: no")

    def test_not_gbent_exit_one(self, capsys, tmp_path):
        p = tmp_path / "z.gbf"
        p.write_text(ZERO22)
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1
        assert out.strip() == "not gbent"

    def test_parse_error_exit_two(self, capsys, tmp_path):
        p = tmp_path / "bad.gbf"
        p.write_text("nonsense\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.gbf"))
        assert code == 2

    def test_verbose_witness_table(self, capsys, gbf22):
        code, out, _ = run(capsys, "check", gbf22, "--verbose")
        assert code == 0
        assert out.count("# method:") == 3
        assert "# u r sign half" in out

    def test_json_report(self, capsys, gbf22):
        code, out, _ = run(capsys, "check", gbf22, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["zq_bent"] is False
        assert [r["method"] for r in doc["routes"]] == [
            "direct", "spectral", "quadruple"]

    def test_example1_line(self, capsys, tmp_path):
        out_path = tmp_path / "ex1.gbf"
        assert run(capsys, "construct", "example1", "--m", "4",
                   "-o", str(out_path))[0] == 0
        code, out, _ = run(capsys, "check", str(out_path))
        assert code == 0
        assert out.strip() == "gbent, Z_8-bent: yes"


def count_calls(monkeypatch, counts, key, original, calls=None):
    """Routes every gbent binding of original through counts[key] += 1.

    calls, when given, collects the arguments of every call.
    """
    counts[key] = 0

    def counted(*args):
        counts[key] += 1
        if calls is not None:
            calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "gbent" or name.startswith("gbent."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)


@pytest.fixture
def tally(monkeypatch):
    """Counts norm_squared_coeffs calls, at every binding."""
    counts = {}
    count_calls(monkeypatch, counts, "norm", gbent.cyclotomic.norm_squared_coeffs)
    return counts


# n = 8, k = 4: a Z_16-bent spread function, and a function that is not gbent
SPREAD84 = spread_zqbent(regular_spread(4), 4, range(16))


@pytest.fixture
def n8(tmp_path):
    """(gbent, not gbent) input files of n = 8, k = 4."""
    good, bad = tmp_path / "good.gbf", tmp_path / "bad.gbf"
    good.write_text(SPREAD84.to_text())
    bad.write_text(GeneralizedBooleanFunction(8, 4, np.arange(256) % 16).to_text())
    return str(good), str(bad)


class TestWorkCounts:
    def test_norm_calls_and_witness_builds(self, capsys, n8, tally):
        # each spectrum's norms are computed once and reused, and the
        # witness table is printed from the report's columns
        good, bad = n8

        def counts(*argv):
            tally.update(norm=0)
            code, out, _ = run(capsys, *argv)
            return code, out, dict(tally)

        # one norm for the direct route and one per lower truncation for the
        # Z_16-bent verdict, which reads f mod 16 off the direct report; the
        # dual's one norm is the gbentness check of f*
        assert counts("check", good) == (0, "gbent, Z_16-bent: yes\n", {"norm": 1 + 3})
        assert counts("dual", good)[::2] == (0, {"norm": 1})
        assert counts("check", bad) == (1, "not gbent\n", {"norm": 1})

        code, out, _ = counts("check", good, "--verbose")
        assert code == 0
        # even n: H_f(u) = sign 2^(n/2) zeta^r has one nonzero coefficient
        table = [f"{u} {int(np.flatnonzero(c)[0])} {int(np.sign(c.sum())):+d} -"
                 for u, c in enumerate(gwht(SPREAD84).coeffs)]
        lines = out.splitlines()
        for method in ("direct", "spectral", "quadruple"):
            start = lines.index(f"# method: {method}") + 3
            assert lines[start:start + len(table)] == table

    def test_zq_reads_k_truncation_norms(self, monkeypatch):
        # both Z_q routes read one GWHT and one norm of each truncation f mod 2^j
        counts, calls = {}, []
        count_calls(monkeypatch, counts, "gwht_coeffs", gbent.gbf.gwht_coeffs, calls)
        count_calls(monkeypatch, counts, "norm", gbent.cyclotomic.norm_squared_coeffs)
        assert is_zq_bent(SPREAD84).verdict
        assert counts == {"gwht_coeffs": 4, "norm": 4}
        assert [(V.tolist(), j) for V, j in calls] == [
            ((SPREAD84.values % (1 << j)).tolist(), j) for j in range(1, 5)]

    def test_check_reads_one_component_walsh(self, capsys, n8, monkeypatch):
        # the spectral and quadruple routes test the same component Walsh
        # array, and dual reads f* off its signed rows, with no Boolean duals
        counts = {}
        count_calls(monkeypatch, counts, "component_walsh", gbent.gbf.component_walsh)
        count_calls(monkeypatch, counts, "wht", gbent.boolfn.wht)
        count_calls(monkeypatch, counts, "dual", gbent.boolfn.dual)
        for cmd in ("check", "dual"):
            for path, code in zip(n8, (0, 1)):
                assert run(capsys, cmd, path)[0] == code
                assert counts == {"component_walsh": 1, "wht": 0, "dual": 0}
                counts.update(component_walsh=0)

    def test_probed_kernels_take_two_axis_tables(self, capsys, n8, monkeypatch):
        # perfbench's tracer sizes these kernels' blocks from V.shape[0] and
        # V.shape[1], so a one-axis table would fail a traced operation
        counts, calls = {}, []
        for key in ("batch_component_walsh", "batch_direct_flat"):
            count_calls(monkeypatch, counts, key, getattr(gbent.sweep, key), calls)
        good, bad = n8
        assert [run(capsys, *argv)[0] for argv in
                (("check", good), ("check", bad), ("dual", good),
                 ("zq", good), ("rds", good))] == [0, 1, 0, 0, 0]
        gbent.sweep.sweep_three_routes(3, 2, next(gbent.sweep.exhaustive_values(3, 2)))
        assert counts == {"batch_component_walsh": 3, "batch_direct_flat": 2}
        assert [V.ndim for _, _, V in calls] == [2] * 5

    def test_space_reads_one_component_walsh(self, capsys, tmp_path, monkeypatch):
        # every structure check reads the one component Walsh array
        counts = {}
        count_calls(monkeypatch, counts, "component_walsh", gbent.gbf.component_walsh)
        count_calls(monkeypatch, counts, "wht", gbent.boolfn.wht)
        spread = tmp_path / "spread.gbf"
        spread.write_text(spread_zqbent(regular_spread(4), 4, range(16)).to_text())
        odd = tmp_path / "odd.gbf"
        odd.write_text(SEED32)
        for path, split in ((spread, "-"), (odd, "1")):
            code, out, _ = run(capsys, "space", str(path))
            assert (code, counts) == (0, {"component_walsh": 1, "wht": 0})
            assert f"odd_split_subspace: {split}" in out
            counts.update(component_walsh=0)


class TestSpectra:
    def test_wht_output(self, capsys, tmp_path):
        p = tmp_path / "f.bf"
        p.write_text("2\n0001\n")
        code, out, _ = run(capsys, "wht", str(p))
        assert code == 0
        lines = out.strip().splitlines()
        assert "# class: Bent s=0" in lines[1]
        assert [ln.split()[0] for ln in lines[2:]] == ["0", "1", "2", "3"]

    def test_wht_hex_input(self, capsys, tmp_path):
        p = tmp_path / "f.hex"
        p.write_text("1\n")
        code, out, _ = run(capsys, "wht", str(p), "--hex", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "Bent"
        assert len(doc["values"]) == 4

    def test_gwht_rows(self, capsys, gbf22):
        code, out, _ = run(capsys, "gwht", gbf22, "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["coeffs"]) == 4
        assert all(row[0] == 4 and row[1] == 0 for row in doc["norm2"])


class TestFunctionEmitters:
    def test_dual_round_trip_bytes(self, capsys, tmp_path, gbf22):
        d1 = tmp_path / "d1.gbf"
        d2 = tmp_path / "d2.gbf"
        assert run(capsys, "dual", gbf22, "-o", str(d1))[0] == 0
        assert run(capsys, "dual", str(d1), "-o", str(d2))[0] == 0
        assert d2.read_text() == SEED22
        GeneralizedBooleanFunction.from_text(d1.read_text())

    def test_dual_odd_n_exit_two(self, capsys, tmp_path):
        p = tmp_path / "odd.gbf"
        p.write_text(SEED32)
        assert run(capsys, "dual", str(p))[0] == 2

    def test_dual_non_gbent_exit_one(self, capsys, tmp_path):
        p = tmp_path / "z.gbf"
        p.write_text(ZERO22)
        assert run(capsys, "dual", str(p))[0] == 1

    def test_gray_parses_as_boolean(self, capsys, gbf22):
        code, out, _ = run(capsys, "gray", gbf22)
        g = BooleanFunction.from_text(out)
        assert g.n == 3

    def test_lift_output(self, capsys, gbf22):
        code, out, _ = run(capsys, "lift", gbf22, "3")
        assert code == 0
        f = GeneralizedBooleanFunction.from_text(out)
        assert f.k == 3 and is_gbent(f)

    def test_lift_r_below_k(self, capsys, gbf22):
        assert run(capsys, "lift", gbf22, "1")[0] == 2


class TestVerdictCommands:
    def test_space_all_hold(self, capsys, gbf22):
        code, out, _ = run(capsys, "space", gbf22)
        assert code == 0
        assert "all_hold: yes" in out

    def test_space_json(self, capsys, tmp_path):
        p = tmp_path / "z.gbf"
        p.write_text(ZERO22)
        code, out, _ = run(capsys, "space", str(p), "--json")
        assert code == 1
        assert json.loads(out)["all_hold"] is False

    def test_zq_and_rds_agree(self, capsys, tmp_path):
        spread = tmp_path / "sp.gbf"
        assert run(capsys, "construct", "spread", "--m", "2", "--k", "2",
                   "-o", str(spread))[0] == 0
        assert run(capsys, "zq", str(spread))[0] == 0
        assert run(capsys, "rds", str(spread))[0] == 0

    def test_zq_verbose_lines(self, capsys, gbf22):
        code, out, _ = run(capsys, "zq", gbf22, "--verbose")
        assert code == 1
        assert "a=2 multiple gbent: no" in out


class TestConstruct:
    def test_mm_identity(self, capsys):
        code, out, _ = run(capsys, "construct", "mm", "--m", "2")
        f = BooleanFunction.from_text(out)
        assert f.n == 4

    def test_mm_bad_permutation(self, capsys):
        assert run(capsys, "construct", "mm", "--m", "2",
                   "--pi", "0 0 1 2")[0] == 2

    def test_mesnager_positive(self, capsys, tmp_path):
        paths = []
        for i, mask in enumerate((1, 2, 3)):
            tab = [((x & 1) * ((x >> 2) & 1)) ^ ((x >> 1) & 1) * ((x >> 3) & 1)
                   ^ (x & mask).bit_count() % 2 for x in range(16)]
            p = tmp_path / f"g{i}.bf"
            p.write_text(BooleanFunction.from_table(tab).to_text())
            paths.append(str(p))
        code, out, _ = run(capsys, "construct", "mesnager", *paths)
        assert code == 0
        BooleanFunction.from_text(out)

    def test_spread_unbalanced_phi(self, capsys):
        assert run(capsys, "construct", "spread", "--m", "2", "--k", "2",
                   "--phi", "0 0 0 1")[0] == 2

    def test_example1_bad_m(self, capsys):
        assert run(capsys, "construct", "example1", "--m", "3")[0] == 2


class TestTransform:
    def test_explicit_matrices(self, capsys, tmp_path, gbf22):
        a = tmp_path / "A.mat"
        a.write_text("0 1\n1 0\n")
        b = tmp_path / "B.mat"
        b.write_text("1\n")
        code, out, _ = run(capsys, "transform", gbf22,
                           "--A", str(a), "--B", str(b), "--b", "1")
        assert code == 0
        f = GeneralizedBooleanFunction.from_text(out)
        assert is_gbent(f)

    def test_singular_matrix_exit_two(self, capsys, tmp_path, gbf22):
        a = tmp_path / "A.mat"
        a.write_text("1 1\n1 1\n")
        b = tmp_path / "B.mat"
        b.write_text("1\n")
        assert run(capsys, "transform", gbf22,
                   "--A", str(a), "--B", str(b))[0] == 2

    def test_random_transform_reproducible(self, capsys, gbf22):
        _, out1, _ = run(capsys, "transform", gbf22,
                         "--random-transform", "--seed", "11")
        _, out2, _ = run(capsys, "transform", gbf22,
                         "--random-transform", "--seed", "11")
        assert out1 == out2
        assert out1.startswith("# A")
        f = GeneralizedBooleanFunction.from_text(out1)
        assert is_gbent(f)

    def test_requires_matrices_without_flag(self, capsys, gbf22):
        assert run(capsys, "transform", gbf22)[0] == 2


class TestSearch:
    def test_exhaustive_count_line(self, capsys):
        code, out, _ = run(capsys, "search", "2", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "64/256"
        assert lines[0] == "2 2"
        hits = [GeneralizedBooleanFunction.from_text("\n".join(lines[i:i + 2]))
                for i in range(0, len(lines) - 1, 2)]
        assert len(hits) == 64
        assert all(is_gbent(f) for f in hits)

    def test_random_mode_seeded(self, capsys):
        code, out, _ = run(capsys, "search", "3", "2",
                           "--random", "50", "--seed", "3")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("/50")

    def test_space_too_large(self, capsys):
        code, _, err = run(capsys, "search", "4", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", sorted(PINNED_SEARCH))
    def test_pinned_output(self, capsys, argv):
        code, out, err = run(capsys, "search", *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SEARCH[argv]

    @pytest.mark.parametrize("argv,good_sweeps", [
        (("2", "2"), 0),
        (("2", "2", "--random", "20000", "--seed", "1"), 1),
    ])
    def test_failed_reverification_prints_no_hit(self, capsys, monkeypatch, argv, good_sweeps):
        # the spectral route rejects every function after the first good_sweeps
        # sweeps, so with good_sweeps = 1 the first block of hits has passed
        spectral_pass = gbent.sweep.batch_spectral_pass
        calls = []

        def broken(n, k, W, halves):
            calls.append(W.shape[-1])
            r, sign, mask = spectral_pass(n, k, W, halves)
            return r, sign, mask & (len(calls) <= good_sweeps)

        monkeypatch.setattr(gbent.sweep, "batch_spectral_pass", broken)
        code, out, err = run(capsys, "search", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("internal disagreement: ")
        assert len(calls) == good_sweeps + 1 and max(calls) <= gbent.sweep.CHUNK

    def test_random_search_within_memory_limit(self):
        # drawn in one block, the 2049 x 2^16 int64 table would need 1.07 GB
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from gbent.cli import main
            sys.exit(main(["search", "16", "1", "--random", "2049", "--seed", "1"]))
        """)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert (res.returncode, res.stdout, res.stderr) == (0, "0/2049\n", "")


def assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


BEYOND_INT64 = ("99999999999999999999", "-99999999999999999999", str(1 << 63))


class TestExitContract:
    """Out-of-range integers are input errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize("token", BEYOND_INT64)
    def test_value_beyond_int64(self, capsys, tmp_path, gbf22, token):
        p = tmp_path / "big.gbf"
        p.write_text(f"1 2\n0 {token}\n")
        for cmd in ("check", "gwht"):
            code, _, err = run(capsys, cmd, str(p))
            assert_input_error(code, err)
        a = tmp_path / "A.mat"
        a.write_text(f"1 0\n0 {token}\n")
        b = tmp_path / "B.mat"
        b.write_text("1\n")
        code, _, err = run(capsys, "transform", gbf22, "--A", str(a), "--B", str(b))
        assert_input_error(code, err)

    def test_example1_c_outside_field(self, capsys):
        # a child process with a timeout, so a hang fails instead of stalling
        res = subprocess.run([sys.executable, "-m", "gbent", "construct", "example1",
                              "--m", "4", "--c", "-3"],
                             capture_output=True, text=True, timeout=60)
        assert_input_error(res.returncode, res.stderr)
        for c in ("16", "999"):
            code, out, err = run(capsys, "construct", "example1", "--m", "4", "--c", c)
            assert_input_error(code, err)
            assert out == ""

    def test_check_at_k12(self, capsys, tmp_path):
        # the product relations run on the 2-flats through 0, so no index cap
        p = tmp_path / "k12.gbf"
        p.write_text("2 12\n0 1 2 3\n")
        assert run(capsys, "check", str(p)) == (1, "not gbent\n", "")
        seed = tmp_path / "seed.gbf"
        seed.write_text(SEED32)
        code, out, _ = run(capsys, "lift", str(seed), "12")
        assert code == 0
        p.write_text(out)
        code, out, err = run(capsys, "check", str(p), "--json")
        assert (code, err) == (0, "")
        routes = json.loads(out)["routes"]
        assert [r["verdict"] for r in routes] == [True] * 3
        assert routes[0]["per_u"] == routes[1]["per_u"] == routes[2]["per_u"]

    def test_check_at_k11_lift(self, capsys, tmp_path, gbf22):
        # gbent but not Z_2048-bent: all 2047 multiples are decided
        code, out, _ = run(capsys, "lift", gbf22, "11")
        assert code == 0
        p = tmp_path / "k11.gbf"
        p.write_text(out)
        assert run(capsys, "check", str(p)) == (0, "gbent, Z_2048-bent: no\n", "")

    @pytest.mark.parametrize("entry", ["257", "-255"])
    def test_matrix_entry_not_a_bit(self, capsys, tmp_path, gbf22, entry):
        # 257 and -255 both wrap to 1 in uint8
        a = tmp_path / "A.mat"
        a.write_text(f"0 1\n{entry} 0\n")
        b = tmp_path / "B.mat"
        b.write_text("1\n")
        code, out, err = run(capsys, "transform", gbf22, "--A", str(a), "--B", str(b))
        assert_input_error(code, err)
        assert (out, err.count("\n")) == ("", 1)

    def test_lift_r_beyond_int64(self, capsys, gbf22):
        code, out, err = run(capsys, "lift", gbf22, "99999999999999999999")
        assert_input_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("text", [SEED22, ZERO22])
    def test_lift_r_beyond_max_k(self, capsys, tmp_path, text):
        # r is checked before the verdict, so gbent or not, r = 13 exits 2
        (tmp_path / "f.gbf").write_text(text)
        assert run(capsys, "lift", str(tmp_path / "f.gbf"), "13") == (
            2, "", "error: k must be an integer in [1, 12], got 13\n")

    @pytest.mark.parametrize("mode", [(), ("--random", "5")])
    @pytest.mark.parametrize("n,k", [(2, 0), (1, -1), (-1, 2), (0, 1), (25, 1), (2, 13)])
    def test_search_space_out_of_range(self, capsys, mode, n, k):
        # checked before any enumeration or shift by a negative count
        name, value, top = ("n", n, 24) if not 1 <= n <= 24 else ("k", k, 12)
        assert run(capsys, "search", str(n), str(k), *mode) == (
            2, "", f"error: {name} must be an integer in [1, {top}], got {value}\n")

    @pytest.mark.parametrize("count", ["-1", "99999999999999999999"])
    def test_search_random_count_out_of_range(self, capsys, count):
        assert run(capsys, "search", "2", "2", "--random", count) == (
            2, "", f"error: count must be an integer in [0, 2^63), got {count}\n")

    def test_example1_m_beyond_field(self):
        # a child process with a 1 GB address-space limit and a timeout, so
        # forming 2^m - 1 or a 2^m x 2^m grid fails (or stalls) there instead
        # of in the test run
        for m in ("68719476736", "16"):
            script = textwrap.dedent(f"""
                import resource, sys
                resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
                from gbent.cli import main
                sys.exit(main(["construct", "example1", "--m", "{m}"]))
            """)
            res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                 text=True, timeout=60,
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
            assert_input_error(res.returncode, res.stderr)
            assert res.stdout == ""

    @pytest.mark.parametrize("bad", ["-1", "2", "99999999999999999999"])
    def test_spread_phi_outside_range(self, capsys, bad):
        code, _, err = run(capsys, "construct", "spread", "--m", "2", "--k", "1",
                           "--phi", f"0,1,{bad},1")
        assert err == "error: phi values must lie in [0, 2)\n"
        assert_input_error(code, err)


# small values reach the verdict paths, the wide ones every range check
TOKENS = st.one_of(st.integers(-2, 17), st.integers(),
                   st.integers(min_value=1 << 63), st.integers(max_value=-(1 << 63)))


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


class TestFuzzedIntegers:
    @settings(max_examples=80, deadline=None)
    @given(cmd=st.sampled_from(["check", "gwht"]),
           k=st.one_of(st.integers(1, 12), TOKENS),
           table=st.integers(1, 3).flatmap(
               lambda n: st.tuples(st.just(n), st.lists(TOKENS, min_size=1 << n,
                                                        max_size=1 << n))))
    def test_gbf_tokens(self, cmd, k, table):
        n, values = table
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "f.gbf"
            p.write_text(f"{n} {k}\n{' '.join(map(str, values))}\n")
            code, err = run_quiet(cmd, str(p))
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(1, 3), data=st.data())
    def test_transform_matrix_tokens(self, size, data):
        rows = data.draw(st.lists(st.lists(TOKENS, min_size=size, max_size=size),
                                  min_size=size, max_size=size))
        with tempfile.TemporaryDirectory() as d:
            f, a, b = Path(d) / "f.gbf", Path(d) / "A.mat", Path(d) / "B.mat"
            f.write_text(SEED22)
            a.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
            b.write_text("1\n")
            code, err = run_quiet("transform", str(f), "--A", str(a), "--B", str(b))
        assert code in (0, 1, 2)
        assert "Traceback" not in err


def from_text_reference(text: str) -> GeneralizedBooleanFunction:
    """The value-file reader with a per-token int() loop, as an oracle."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError as e:
        raise FormatError(f"bad header {lines[0]!r}") from e
    if not 1 <= n <= 24:
        raise FormatError(f"n out of range: {n}")
    if not 1 <= k <= 12:
        raise FormatError(f"k out of range: {k}")
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != 1 << n:
        raise FormatError(f"expected {1 << n} values, got {len(tokens)}")
    try:
        vals = np.array([int(t) for t in tokens], dtype=np.int64)
    except ValueError as e:
        raise FormatError("values must be integers") from e
    except OverflowError as e:
        raise FormatError(f"values must lie in [0, {1 << k})") from e
    if vals.min() < 0 or vals.max() >= (1 << k):
        raise FormatError(f"values must lie in [0, {1 << k})")
    return GeneralizedBooleanFunction(n, k, vals)


# tokens int() reads or refuses: signs, underscores, leading zeros, other
# scripts' digits, floats, hex, superscripts, and values past int64
ODD_TOKENS = st.sampled_from(["+5", "1_0", "007", "-0", "\u0661\u0662", "\uff11\uff12",
                              "\U0001d7d3", "1.0", "0x10", "1__0", "\u00b2", "nan", "_1",
                              "1_", "\x005", "9" * 30, "-" + "9" * 30, "1" * 5000])
TEXT_TOKENS = st.one_of(TOKENS.map(str), ODD_TOKENS,
                        st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc")),
                                min_size=1, max_size=3))


@st.composite
def value_texts(draw):
    """A value file: header "n k", then 2^n tokens (sometimes one more or less)."""
    n = draw(st.integers(1, 3))
    k = draw(st.one_of(st.integers(1, 4), TEXT_TOKENS))
    count = (1 << n) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = draw(st.lists(st.one_of(st.integers(0, (1 << 4) - 1).map(str), TEXT_TOKENS),
                           min_size=count, max_size=count))
    return f"{n} {k}\n{' '.join(tokens)}\n"


FILE_COMMANDS = (["check"], ["gwht"], ["zq"], ["rds"], ["dual"], ["gray"], ["lift", "3"],
                 ["space"])


def run_file_commands(data: bytes) -> None:
    """Every command that reads a value file exits 0, 1 or 2 without a traceback."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "f.gbf"
        p.write_bytes(data)
        for cmd in FILE_COMMANDS:
            code, err = run_quiet(cmd[0], str(p), *cmd[1:])
            assert code in (0, 1, 2), (cmd, code)
            assert "Traceback" not in err


class TestFuzzedFiles:
    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_bytes(self, data):
        run_file_commands(data)

    @settings(max_examples=60, deadline=None)
    @given(text=value_texts())
    def test_token_texts(self, text):
        run_file_commands(text.encode("utf-8", "surrogatepass"))

    @settings(max_examples=300, deadline=None)
    @given(text=value_texts())
    def test_reader_matches_the_int_loop(self, text):
        try:
            want = from_text_reference(text)
        except FormatError as e:
            with pytest.raises(FormatError) as got:
                GeneralizedBooleanFunction.from_text(text)
            assert str(got.value) == str(e)
        else:
            assert GeneralizedBooleanFunction.from_text(text) == want

    @pytest.mark.parametrize("tokens,message", [
        (["99999999999999999999", "x"], "values must be integers"),
        (["x", "99999999999999999999"], "values must be integers"),
        (["99999999999999999999", "1"], "values must lie in [0, 4)"),
        (["-" + "9" * 20, "1_0"], "values must lie in [0, 4)"),
    ])
    def test_non_integer_outranks_overflow(self, tokens, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            GeneralizedBooleanFunction.from_text(f"1 2\n{' '.join(tokens)}\n")


@st.composite
def bit_texts(draw):
    """A truth-table file: header "n", then 2^n bits (sometimes one more or less)."""
    n = draw(st.integers(1, 3))
    header = draw(st.one_of(st.just(str(n)), TEXT_TOKENS))
    count = (1 << n) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    bits = draw(st.text(st.sampled_from("0101010101\n 2x\u0661"), min_size=count,
                        max_size=count))
    return f"{header}\n{bits}\n"


HEX_TEXTS = st.text(st.sampled_from("0123456789abcdefABCDEF \ngx-\u0661\uff11"), max_size=40)

# fixed, valid matrices, so that only the value file varies
A_SWAP, B_ONE = "0 1\n1 0\n", "1\n"


def run_readers(data: bytes, *commands: tuple[str, ...]) -> None:
    """Each command, with FILE holding data, exits 0, 1 or 2 without a traceback."""
    with tempfile.TemporaryDirectory() as d:
        p, a, b = Path(d) / "f.txt", Path(d) / "A.mat", Path(d) / "B.mat"
        p.write_bytes(data)
        a.write_text(A_SWAP)
        b.write_text(B_ONE)
        for cmd in commands:
            argv = [str({"FILE": p, "A": a, "B": b}.get(t, t)) for t in cmd]
            code, err = run_quiet(*argv)
            assert code in (0, 1, 2), (cmd, code)
            assert "Traceback" not in err


WHT = (("wht", "FILE"), ("wht", "FILE", "--hex"))
TRANSFORM = (("transform", "FILE", "--A", "A", "--B", "B"),)


class TestFuzzedReaders:
    """The truth-table, hex and transform value-file readers under fuzzed input."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_wht_bytes(self, data):
        run_readers(data, *WHT)

    @settings(max_examples=60, deadline=None)
    @given(text=bit_texts())
    def test_wht_token_texts(self, text):
        run_readers(text.encode("utf-8", "surrogatepass"), *WHT)

    @settings(max_examples=60, deadline=None)
    @given(text=HEX_TEXTS)
    def test_wht_hex_texts(self, text):
        run_readers(text.encode("utf-8", "surrogatepass"), *WHT)

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_transform_value_bytes(self, data):
        run_readers(data, *TRANSFORM)

    @settings(max_examples=60, deadline=None)
    @given(text=value_texts())
    def test_transform_value_texts(self, text):
        run_readers(text.encode("utf-8", "surrogatepass"), *TRANSFORM)

    def test_fixed_matrices_transform_a_valid_file(self, capsys, tmp_path, gbf22):
        # the fixed matrices are valid: a well-formed value file goes through
        (tmp_path / "A.mat").write_text(A_SWAP)
        (tmp_path / "B.mat").write_text(B_ONE)
        code, out, _ = run(capsys, "transform", gbf22, "--A", str(tmp_path / "A.mat"),
                           "--B", str(tmp_path / "B.mat"))
        assert code == 0 and is_gbent(GeneralizedBooleanFunction.from_text(out))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "f.gbf"
        p.write_text(SEED22)
        res = subprocess.run([sys.executable, "-m", "gbent", "check", str(p)],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.startswith("gbent")
