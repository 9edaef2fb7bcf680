"""The three benchmark workloads and the checks on every operation they run.

Each workload builds its inputs from a seeded generator, then hands out
cycles of operations.  An operation calls one public gbent entry point with
library defaults: `gbent.cli.main(argv)` with standard output captured, or
`gbent.sweep.sweep_exhaustive`.  Its check compares the output with the
independent oracle and returns the problems found (an empty list passes)
and how many verified gbent functions the operation reported.

Every workload has three operation kinds, numbered 1 to 3 in the order of
their cost at the time the benchmark was written.  The end-to-end metrics
op1_s_best .. op3_s_best are their best latencies in a run; the headline
names each workload prints use the medians.
"""

from __future__ import annotations

import io
import itertools
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Op:
    """One timed call into gbent and the check of its output."""

    kind: int                      # 1, 2 or 3
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]
    functions: int                 # functions the call decides


@dataclass
class CliOutput:
    rc: int
    out: str
    err: str


def run_cli(main, argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return CliOutput(rc, out.getvalue(), err.getvalue())


def write_gbf(path: Path, n: int, k: int, values) -> str:
    path.write_text(f"{n} {k}\n{' '.join(str(int(v)) for v in values)}\n")
    return str(path)


def _exit_problems(res: CliOutput, want_rc: int) -> list[str]:
    if res.rc == want_rc:
        return []
    tail = res.err.strip().splitlines()[-1:] or [""]
    return [f"exit code {res.rc}, expected {want_rc}: {tail[0]}"]


# -- single_n16 -----------------------------------------------------------------


@dataclass
class SingleN16:
    """`gbent check` and `gbent dual` on single functions of n variables.

    gbent inputs: spread_zqbent(regular_spread(n/2), k, phi) with a seeded
    balanced phi, then a seeded invertible input map A (B = I, b = 0), which
    keeps Z_{2^k}-bentness.  Other inputs: seeded uniform value tables.
    There are `pool` inputs of each sort.  A cycle is one accepting check
    on the next gbent input, then `repeats` rejecting checks of every other
    input and `repeats` duals of every gbent input, in seeded order.  The
    cheap kinds run `pool * repeats` times per cycle so that their best
    time has samples to pick from.
    """

    n: int = 16
    k: int = 4
    pool: int = 3
    repeats: int = 2
    samples: int = 16              # oracle points per input or output
    name: str = "single_n16"
    gbent: list = field(default_factory=list)
    other: list = field(default_factory=list)
    cycles: int = 0

    def setup(self, gb: dict, rng: np.random.Generator, workdir: Path) -> float:
        """Write the inputs; returns the seconds spent in gbent constructors."""
        con = gb["gbent.constructions"]
        n, k, m = self.n, self.k, self.n // 2
        self.cli = gb["gbent.cli"]
        self.gbent, self.other = [], []
        t0 = time.perf_counter()
        spread = con.regular_spread(m)
        built = []
        for _ in range(self.pool):
            phi = rng.permutation(np.repeat(np.arange(1 << k), 1 << (m - k)))
            f = con.spread_zqbent(spread, k, phi.tolist())
            A = con.random_invertible(rng, n)
            t = con.LinearTransform(A, np.eye(k - 1, dtype=np.uint8), 0)
            built.append(con.apply_equivalence(f, t).values)
        build_s = time.perf_counter() - t0
        for i, values in enumerate(built):
            self.gbent.append((write_gbf(workdir / f"gbent{i}.gbf", n, k, values), values))
        for i in range(self.pool):
            values = rng.integers(0, 1 << k, size=1 << n, dtype=np.int64)
            self.other.append((write_gbf(workdir / f"other{i}.gbf", n, k, values), values))
        return build_s

    def validate(self, rng: np.random.Generator) -> list[str]:
        """Oracle evidence for the expected verdict of every input.

        A gbent input must be flat at sampled points, and so must its
        sampled multiples a f (Z_{2^k}-bentness).  A uniform input must show
        a non-flat point among the samples, which proves it is not gbent.
        """
        problems = []
        n, k = self.n, self.k
        for path, values in self.gbent:
            us = rng.integers(0, 1 << n, size=self.samples)
            multiples = rng.integers(2, 1 << k, size=self.samples)
            ok = all(oracle.flat(oracle.spectrum_at(values, k, int(u)), n) for u in us)
            ok &= all(oracle.flat(oracle.spectrum_at(values * int(a) % (1 << k), k, int(u)), n)
                      for a, u in zip(multiples, us))
            if not ok:
                problems.append(f"{path}: constructed input is not flat at a sampled point")
        for path, values in self.other:
            if all(oracle.flat(oracle.spectrum_at(values, k, int(u)), n)
                   for u in rng.integers(0, 1 << n, size=self.samples)):
                problems.append(f"{path}: no non-flat point found among samples")
        return problems

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        accept, _ = self.gbent[self.cycles % self.pool]
        self.cycles += 1
        cli = self.cli      # main is looked up per call, so a traced pass sees its wrapper
        ops = [Op(1, "check (gbent)", lambda: run_cli(cli.main, ["check", accept]),
                  self._check_accept, 1)]
        ops += [Op(2, "dual", lambda p=path: run_cli(cli.main, ["dual", p]),
                   lambda res, v=values: self._check_dual(res, v, rng), 1)
                for path, values in self.gbent for _ in range(self.repeats)]
        ops += [Op(3, "check (not gbent)", lambda p=path: run_cli(cli.main, ["check", p]),
                   self._check_reject, 1)
                for path, _ in self.other for _ in range(self.repeats)]
        rng.shuffle(ops)
        return ops

    def headline(self, values: dict) -> list[tuple[str, float, str]]:
        return [("check_s_p50", values["op1_s_p50"], "s"),
                ("reject_s_p50", values["op3_s_p50"], "s"),
                ("dual_s_p50", values["op2_s_p50"], "s")]

    def _check_accept(self, res: CliOutput):
        want = f"gbent, Z_{1 << self.k}-bent: yes\n"
        problems = _exit_problems(res, 0)
        if res.out != want:
            problems.append(f"verdict {res.out!r}, expected {want!r}")
        return problems, 0 if problems else 1

    def _check_reject(self, res: CliOutput):
        problems = _exit_problems(res, 1)
        if res.out != "not gbent\n":
            problems.append(f"verdict {res.out!r}, expected 'not gbent'")
        return problems, 0

    def _check_dual(self, res: CliOutput, values, rng):
        problems = _exit_problems(res, 0)
        parsed = oracle.parse_functions(res.out)
        if len(parsed) != 1 or parsed[0][:2] != (self.n, self.k) \
                or parsed[0][2].shape != values.shape:
            return problems + ["dual output is not one function of the input's shape"], 0
        dual = parsed[0][2]
        if dual.min() < 0 or dual.max() >= 1 << self.k:
            return problems + ["dual values out of range"], 0
        points = rng.choice(1 << self.n, size=min(self.samples, 1 << self.n), replace=False)
        if not oracle.dual_holds(values, dual, self.n, self.k, points):
            problems.append("H_f(u) != 2^(n/2) zeta^(f*(u)) at a sampled point")
        return problems, 0 if problems else 1


# -- census_gb3_8 ---------------------------------------------------------------


def oracle_space(n: int, k: int, count: int) -> np.ndarray:
    """Oracle verdicts of the first `count` functions of GB_n^{2^k} in enumeration order."""
    return oracle.gbent_verdicts(oracle.decode_lex(np.arange(count), n, k), n, k)


@dataclass
class Census:
    """Three-route batch sweeps through gbent.sweep, the paper's batch job.

    Kind 1 sweeps the first `slice_chunks` enumeration chunks of GB_3^8
    (2^18 functions at the library's default chunk of 2^12) with
    sweep_three_routes, so the tensors have the full census's shapes.
    Kinds 2 and 3 are whole spaces through sweep_exhaustive, `repeats`
    times per cycle.  Every verdict is compared with the oracle's.
    """

    big: tuple = (3, 3)
    slice_chunks: int = 64
    small: tuple = ((2, 4), (3, 2))
    repeats: int = 2
    name: str = "census_gb3_8"
    expect: dict = field(default_factory=dict)

    def setup(self, gb: dict, rng: np.random.Generator, workdir: Path) -> float:
        self.sweep = gb["gbent.sweep"]
        return 0.0

    def validate(self, rng: np.random.Generator) -> list[str]:
        """Oracle verdicts for everything the cycle sweeps, computed once."""
        n, k = self.big
        chunk = next(self.sweep.exhaustive_values(n, k)).shape[0]
        total = min(self.slice_chunks * chunk, 1 << (k << n))
        self.expect = {(n, k): oracle_space(n, k, total)}
        for n, k in self.small:
            self.expect[(n, k)] = oracle_space(n, k, 1 << (k << n))
        return []

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        n1, k1 = self.big
        ops = [Op(1, f"sweep first {len(self.expect[self.big])} of GB_{n1}^{1 << k1}",
                  lambda: self._sweep_slice(n1, k1), lambda res: self._check(res, n1, k1),
                  len(self.expect[self.big]))]
        for kind, (n, k) in enumerate(self.small, start=2):
            ops += [Op(kind, f"sweep GB_{n}^{1 << k}",
                       lambda n=n, k=k: self.sweep.sweep_exhaustive(n, k),
                       lambda res, n=n, k=k: self._check(res, n, k), 1 << (k << n))
                    for _ in range(self.repeats)]
        rng.shuffle(ops)
        return ops

    def _sweep_slice(self, n: int, k: int):
        sw = self.sweep
        parts = [sw.sweep_three_routes(n, k, V)
                 for V in itertools.islice(sw.exhaustive_values(n, k), self.slice_chunks)]
        mismatches, offset = [], 0
        for p in parts:
            mismatches.extend(i + offset for i in p.mismatches)
            offset += p.total
        return sw.SweepResult(n, k, offset, sum(p.gbent_count for p in parts),
                              np.concatenate([p.verdicts for p in parts]), tuple(mismatches))

    def headline(self, values: dict) -> list[tuple[str, float, str]]:
        return [("census_fn_per_s", len(self.expect[self.big]) / values["op1_s_p50"], "1/s")]

    def _check(self, res, n: int, k: int):
        want = self.expect[(n, k)]
        if res.total != len(want) or res.verdicts.shape != want.shape:
            return [f"swept {res.total} functions, expected {len(want)}"], 0
        problems = []
        if res.mismatches:
            problems.append(f"{len(res.mismatches)} route mismatches, first {res.mismatches[:4]}")
        if int(res.verdicts.sum()) != res.gbent_count:
            problems.append(f"count {res.gbent_count} is not the number of gbent verdicts")
        wrong = np.flatnonzero(res.verdicts != want)
        if len(wrong):
            problems.append(f"{len(wrong)} verdicts differ from the oracle, first at {wrong[0]}")
        return problems, 0 if problems else int(want.sum())


# -- search_dense ---------------------------------------------------------------


@dataclass
class Search:
    """Exhaustive `gbent search n k` over small spaces, in seeded order.

    Every emitted function is re-decided by the oracle, and the found count
    must be the oracle's count of gbent functions in the space.
    """

    spaces: tuple = ((2, 4), (3, 2), (4, 1))
    name: str = "search_dense"
    counts: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)

    def setup(self, gb: dict, rng: np.random.Generator, workdir: Path) -> float:
        self.cli = gb["gbent.cli"]
        return 0.0

    def validate(self, rng: np.random.Generator) -> list[str]:
        self.counts = {(n, k): int(oracle_space(n, k, 1 << (k << n)).sum())
                       for n, k in self.spaces}
        return []

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        ops = [Op(kind, f"search {n} {k}",
                  lambda n=n, k=k: run_cli(self.cli.main, ["search", str(n), str(k)]),
                  lambda res, n=n, k=k: self._check(res, n, k), 1 << (k << n))
               for kind, (n, k) in enumerate(self.spaces, start=1)]
        rng.shuffle(ops)
        return ops

    def headline(self, values: dict) -> list[tuple[str, float, str]]:
        return [("search_hits_per_s", values["hits_per_s_p50"], "1/s")] + [
            (f"found by search {n} {k}", self.summaries.get((n, k), "-"), "")
            for n, k in self.spaces]

    def _check(self, res: CliOutput, n: int, k: int):
        want = self.counts[(n, k)]
        problems = _exit_problems(res, 0)
        lines = res.out.splitlines()
        self.summaries[(n, k)] = lines[-1] if lines else ""
        summary = f"{want}/{1 << (k << n)}"
        if not lines or lines[-1] != summary:
            problems.append(f"summary {lines[-1:]!r}, expected {summary!r}")
        funcs = oracle.parse_functions(res.out)
        if len(funcs) != want or 2 * len(funcs) + 1 != len(lines):
            return problems + [f"{len(funcs)} functions emitted, expected {want}"], 0
        if any(f[:2] != (n, k) or f[2].shape != (1 << n,) for f in funcs):
            return problems + ["an emitted function has the wrong shape"], 0
        V = np.stack([f[2] for f in funcs])
        if len({row.tobytes() for row in V}) != want:
            problems.append("duplicate functions emitted")
        if ((V < 0) | (V >= 1 << k)).any() or not oracle.gbent_verdicts(V, n, k).all():
            problems.append("an emitted function is not gbent")
        return problems, 0 if problems else want


WORKLOADS = {w.name: w for w in (SingleN16, Census, Search)}
