"""Tests of the benchmark itself: tiny workloads, span arithmetic, the oracle.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Instrumented, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Census, CliOutput, Search, SingleN16, oracle_space  # noqa: E402

def tiny(name):
    if name == "single_n16":
        return SingleN16(n=8, k=3, pool=2, repeats=1, samples=4)
    if name == "census_gb3_8":
        return Census(big=(2, 2), slice_chunks=1, small=((2, 1), (1, 2)))
    return Search(spaces=((2, 2), (2, 1), (1, 2)))


@pytest.fixture
def gb():
    return run.load_gbent()


@pytest.mark.parametrize("name", ["single_n16", "census_gb3_8", "search_dense"])
def test_tiny_workload_runs_clean(name, gb, tmp_path):
    w = tiny(name)
    w.setup(gb, np.random.default_rng(5), tmp_path)
    rng = np.random.default_rng(6)
    assert w.validate(rng) == []
    result = run.measure(w, rng, 0.0)
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    assert all(result.samples[k] for k in (1, 2, 3))
    assert result.hits > 0


def test_run_stops_at_nearest_cycle_boundary():
    assert run.another_cycle(0.0, 0, 0.0)                # always one cycle
    assert not run.another_cycle(1.0, 1, 0.0)
    assert run.another_cycle(20.0, 2, 35.0)              # 20 + 5 < 35
    assert not run.another_cycle(28.0, 2, 35.0)          # 28 + 7 is nearer than 42
    assert run.another_cycle(33.0, 33, 35.0)


def test_census_kinds_sweep_their_spaces(gb):
    w = Census(big=(2, 2), slice_chunks=1, small=((2, 1), (1, 2)), repeats=1)
    w.setup(gb, None, None)
    w.validate(None)
    spaces = {op.kind: (op.call().n, op.call().k) for op in w.cycle(np.random.default_rng(0))}
    assert spaces == {1: (2, 2), 2: (2, 1), 3: (1, 2)}


def test_tiny_traced_run_reports_layers_and_restores(gb, tmp_path):
    w = tiny("single_n16")
    w.setup(gb, np.random.default_rng(5), tmp_path)
    main, direct = gb["gbent.cli"].main, gb["gbent.analysis"].is_gbent_direct
    tracer = Tracer()
    result, cycles, overhead = run.measure_traced(w, np.random.default_rng(6), 0.0, gb, tracer)
    assert result.failed == 0 and cycles == 1 and overhead > 0
    m = layer_metrics(tracer, cycles)
    # accepting check: 3 routes + Z_8 test (7 multiples, 3 truncations);
    # two rejecting checks; two duals, each deciding f and f*
    assert m["analysis.direct.calls"] == 1 + 10 + 2 + 4
    assert m["hadamard.match_row.calls"] == 1 << 8
    assert m["cli.calls"] == 5
    assert m["boolfn.fwht.computed_ops"] > 0
    assert gb["gbent.cli"].main is main
    assert gb["gbent.analysis"].is_gbent_direct is direct
    assert gb["gbent.duality"].is_gbent_direct is direct


def test_traced_sweep_counts_functions(gb):
    tracer = Tracer()
    with Instrumented(tracer, gb):
        gb["gbent.sweep"].sweep_exhaustive(2, 2)
        sw = gb["gbent.sweep"]
        sw.sweep_three_routes(2, 2, next(sw.exhaustive_values(2, 2)))
    m = layer_metrics(tracer, 1)
    assert m["sweep.functions"] == 2 * 256 and m["sweep.gbent_found"] == 2 * 64
    assert m["sweep.enumerate.calls"] == 3        # chunk, StopIteration; chunk
    assert m["sweep.max_block_mb"] == 256 * 4 * 2 * 8 / 2**20


def test_self_time_subtracts_union_of_children():
    #   0: [0, 10]  children 1: [1, 3], 2: [2, 5] (overlapping), 3: [6, 7]
    #   4: [1.5, 2] child of 1
    starts = [0.0, 1.0, 2.0, 6.0, 1.5]
    ends = [10.0, 3.0, 5.0, 7.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])


def test_self_time_from_nested_wrapped_calls():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()                 # outer [0, 5], inner [1, 2] and [3, 4]
    totals = tracer.layer_totals()
    assert totals["outer"] == (1, 3.0)
    assert totals["inner"] == (2, 2.0)


def test_oracle_counts_spaces():
    count = lambda n, k: int(oracle_space(n, k, 1 << (k << n)).sum())
    assert count(2, 2) == 64 and count(2, 1) == 8
    # the counts `gbent search 2 4`, `3 2` and `4 1` must report
    assert (count(2, 4), count(3, 2), count(4, 1)) == (1408, 896, 896)


def test_oracle_point_sum_matches_matrix_form():
    V = np.random.default_rng(3).integers(0, 8, size=(3, 16))
    S = oracle.spectra(V, 4, 3)
    for f in range(3):
        for u in range(16):
            assert np.array_equal(oracle.spectrum_at(V[f], 3, u), S[f, u])


def test_oracle_flags_wrong_check_verdicts():
    w = SingleN16(n=8, k=3)
    assert w._check_accept(CliOutput(0, "gbent, Z_8-bent: yes\n", ""))[0] == []
    assert w._check_accept(CliOutput(1, "not gbent\n", ""))[0]
    assert w._check_reject(CliOutput(0, "gbent, Z_8-bent: yes\n", ""))[0]
    assert w._check_reject(CliOutput(3, "", "internal disagreement"))[0]


def test_oracle_flags_wrong_dual(gb):
    con = gb["gbent.constructions"]
    f = con.spread_zqbent(con.regular_spread(2), 2, [0, 1, 2, 3])      # n = 4, k = 2
    dual = gb["gbent.duality"].dual_gbent(f).values.copy()
    w = SingleN16(n=4, k=2, samples=16)
    text = lambda d: CliOutput(0, f"4 2\n{' '.join(map(str, d))}\n", "")
    points = np.random.default_rng(0)
    assert w._check_dual(text(dual), f.values, points) == ([], 1)
    dual[5] = (dual[5] + 1) % 4
    problems, hits = w._check_dual(text(dual), f.values, np.random.default_rng(0))
    assert problems and hits == 0


def test_oracle_flags_wrong_search_output():
    w = Search(spaces=((2, 1),))
    w.validate(None)
    bent = oracle.decode_lex(np.arange(16), 2, 1)[oracle.gbent_verdicts(
        oracle.decode_lex(np.arange(16), 2, 1), 2, 1)]
    body = "".join(f"2 1\n{' '.join(map(str, v))}\n" for v in bent)
    assert w._check(CliOutput(0, body + "8/16\n", ""), 2, 1) == ([], 8)
    wrong = body.replace(" ".join(map(str, bent[0])), "0 0 0 0", 1)
    assert w._check(CliOutput(0, wrong + "8/16\n", ""), 2, 1)[0]


def test_oracle_flags_wrong_census_verdict(gb):
    w = Census(big=(2, 2), slice_chunks=1, small=())
    w.setup(gb, None, None)
    w.validate(None)
    res = gb["gbent.sweep"].sweep_exhaustive(2, 2)
    assert w._check(res, 2, 2) == ([], 64)
    flipped = res.verdicts.copy()
    flipped[np.flatnonzero(flipped)[0]] = False
    flipped[np.flatnonzero(~res.verdicts)[0]] = True      # count unchanged
    fake = SimpleNamespace(total=res.total, verdicts=flipped, gbent_count=res.gbent_count,
                           mismatches=())
    assert w._check(fake, 2, 2)[0]
    bad = SimpleNamespace(total=res.total, verdicts=res.verdicts,
                          gbent_count=res.gbent_count, mismatches=(7,))
    assert w._check(bad, 2, 2)[0]
