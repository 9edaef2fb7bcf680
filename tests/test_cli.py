"""Command-line interface: formats, exit codes, round trips."""

import io
import json
import os
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
from gbent.analysis import is_gbent, is_zq_bent
from gbent.boolfn import BooleanFunction
from gbent.cli import main
from gbent.constructions import regular_spread, spread_zqbent
from gbent.gbf import GeneralizedBooleanFunction, gwht

SEED22 = "2 2\n0 1 0 3\n"
SEED32 = "3 2\n0 0 0 2 1 1 1 3\n"
ZERO22 = "2 2\n0 0 0 0\n"


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


def count_calls(monkeypatch, counts, key, original):
    """Routes every gbent binding of original through counts[key] += 1."""
    counts[key] = 0

    def counted(*args):
        counts[key] += 1
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


class TestWorkCounts:
    def test_norm_calls_and_witness_builds(self, capsys, tmp_path, tally):
        # n = 8, k = 4: each spectrum's norms are computed once and reused,
        # and the witness table is printed from the report's columns
        spread = spread_zqbent(regular_spread(4), 4, range(16))
        good, bad = tmp_path / "good.gbf", tmp_path / "bad.gbf"
        good.write_text(spread.to_text())
        bad.write_text(GeneralizedBooleanFunction(8, 4, np.arange(256) % 16).to_text())

        def counts(*argv):
            tally.update(norm=0)
            code, out, _ = run(capsys, *argv)
            return code, out, dict(tally)

        # one norm for the direct route; the Z_16-bent verdict takes none
        assert counts("check", str(good)) == (0, "gbent, Z_16-bent: yes\n", {"norm": 1})
        assert counts("dual", str(good))[::2] == (0, {"norm": 2})
        assert counts("check", str(bad)) == (1, "not gbent\n", {"norm": 1})

        code, out, _ = counts("check", str(good), "--verbose")
        assert code == 0
        # even n: H_f(u) = sign 2^(n/2) zeta^r has one nonzero coefficient
        table = [f"{u} {int(np.flatnonzero(c)[0])} {int(np.sign(c.sum())):+d} -"
                 for u, c in enumerate(gwht(spread).coeffs)]
        lines = out.splitlines()
        for method in ("direct", "spectral", "quadruple"):
            start = lines.index(f"# method: {method}") + 3
            assert lines[start:start + len(table)] == table

    def test_zq_makes_no_gwht(self, monkeypatch):
        # both Z_q routes read the one difference spectrum
        counts = {}
        count_calls(monkeypatch, counts, "gwht_coeffs", gbent.gbf.gwht_coeffs)
        count_calls(monkeypatch, counts, "norm", gbent.cyclotomic.norm_squared_coeffs)
        assert is_zq_bent(spread_zqbent(regular_spread(4), 4, range(16))).verdict
        assert counts == {"gwht_coeffs": 0, "norm": 0}

    def test_check_reads_one_component_walsh(self, capsys, tmp_path, monkeypatch):
        # the spectral and quadruple routes test the same component Walsh array
        counts = {}
        count_calls(monkeypatch, counts, "component_walsh", gbent.gbf.component_walsh)
        good, bad = tmp_path / "good.gbf", tmp_path / "bad.gbf"
        good.write_text(spread_zqbent(regular_spread(4), 4, range(16)).to_text())
        bad.write_text(GeneralizedBooleanFunction(8, 4, np.arange(256) % 16).to_text())
        for path, code in ((good, 0), (bad, 1)):
            assert run(capsys, "check", str(path))[0] == code
            assert counts == {"component_walsh": 1}
            counts.update(component_walsh=0)

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

    def test_example1_m_beyond_field(self):
        # a child process with a 1 GB address-space limit and a timeout, so
        # forming 2^m - 1 fails (or stalls) there instead of in the test run
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from gbent.cli import main
            sys.exit(main(["construct", "example1", "--m", "68719476736"]))
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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "f.gbf"
        p.write_text(SEED22)
        res = subprocess.run([sys.executable, "-m", "gbent", "check", str(p)],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.startswith("gbent")
