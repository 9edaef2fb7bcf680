"""Command-line interface: formats, exit codes, round trips."""

import json
import subprocess
import sys

import numpy as np
import pytest

import gbent.analysis
import gbent.cyclotomic
from gbent.analysis import is_gbent
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


@pytest.fixture
def tally(monkeypatch):
    """Counts norm_squared_coeffs calls, at every binding, and PerUWitness builds."""
    counts = {"norm": 0, "witness": 0}
    norm, witness = gbent.cyclotomic.norm_squared_coeffs, gbent.analysis.PerUWitness

    def counted_norm(C):
        counts["norm"] += 1
        return norm(C)

    def counted_witness(*args):
        counts["witness"] += 1
        return witness(*args)

    for name, mod in list(sys.modules.items()):
        if name == "gbent" or name.startswith("gbent."):
            for attr, value in list(vars(mod).items()):
                if value is norm:
                    monkeypatch.setattr(mod, attr, counted_norm)
    monkeypatch.setattr(gbent.analysis, "PerUWitness", counted_witness)
    return counts


class TestWorkCounts:
    def test_norm_calls_and_witness_builds(self, capsys, tmp_path, tally):
        # n = 8, k = 4: each spectrum's norms are computed once and reused,
        # and per-u witnesses are built only for a table that prints them
        spread = spread_zqbent(regular_spread(4), 4, range(16))
        good, bad = tmp_path / "good.gbf", tmp_path / "bad.gbf"
        good.write_text(spread.to_text())
        bad.write_text(GeneralizedBooleanFunction(8, 4, np.arange(256) % 16).to_text())

        def counts(*argv):
            tally.update(norm=0, witness=0)
            code, out, _ = run(capsys, *argv)
            return code, out, dict(tally)

        # one norm for the direct route, 18 for the Z_16-bent verdicts
        assert counts("check", str(good)) == (0, "gbent, Z_16-bent: yes\n",
                                              {"norm": 19, "witness": 0})
        assert counts("dual", str(good))[::2] == (0, {"norm": 2, "witness": 0})
        assert counts("check", str(bad)) == (1, "not gbent\n", {"norm": 1, "witness": 0})

        code, out, tallied = counts("check", str(good), "--verbose")
        assert code == 0
        # even n: H_f(u) = sign 2^(n/2) zeta^r has one nonzero coefficient
        table = [f"{u} {int(np.flatnonzero(c)[0])} {int(np.sign(c.sum())):+d} -"
                 for u, c in enumerate(gwht(spread).coeffs)]
        lines = out.splitlines()
        for method in ("direct", "spectral", "quadruple"):
            start = lines.index(f"# method: {method}") + 3
            assert lines[start:start + len(table)] == table
        assert tallied["witness"] == 3 * len(table)


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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "f.gbf"
        p.write_text(SEED22)
        res = subprocess.run([sys.executable, "-m", "gbent", "check", str(p)],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.startswith("gbent")
