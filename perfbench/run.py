"""gbent benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload single_n16 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One process, one thread, a closed
loop with one client: each operation starts when the previous one has
been checked.  The run repeats whole cycles of operations and stops at the
cycle boundary nearest to --seconds of measured time, after one cycle at
least.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Lines before it are
a readable table and the run's metadata.  A record of each run is appended
to perfbench_out/results.jsonl, and a traced run writes its spans to
perfbench_out/spans-<workload>-seed<seed>.json.gz.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gzip
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Instrumented, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
SETUP_REPEATS = 9


def load_gbent() -> dict:
    """Import gbent afresh from ./src; returns its modules by name."""
    for name in [m for m in sys.modules if m == "gbent" or m.startswith("gbent.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("gbent")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "gbent":
        raise ImportError(f"gbent imported from {pkg.__file__}, not from {src}")
    importlib.import_module("gbent.cli")
    return {m: sys.modules[m] for m in sys.modules if m == "gbent" or m.startswith("gbent.")}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Times and checks operations; keeps per-kind samples and failures."""

    def __init__(self):
        self.samples: dict[int, list[float]] = {1: [], 2: [], 3: []}
        self.op_s = self.functions = self.hits = 0.0
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.cycles: list[tuple[float, ...]] = []     # (seconds, functions, hits) per cycle
        self._mark = (0.0, 0.0, 0.0)

    def end_cycle(self) -> None:
        now = (self.op_s, self.functions, self.hits)
        self.cycles.append(tuple(a - b for a, b in zip(now, self._mark)))
        self._mark = now

    def per_second(self, i: int, pick=max) -> float:
        """Best cycle's functions (i = 1) or hits (i = 2) per second, or pick's."""
        return pick(c[i] / c[0] for c in self.cycles)

    def execute(self, op, record: bool = True) -> float:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            dt = time.perf_counter() - t0
            problems, hits = ["raised " + traceback.format_exc(limit=-3)], 0
        else:
            dt = time.perf_counter() - t0
            try:
                problems, hits = op.check(result)
            except Exception:
                problems, hits = ["check raised " + traceback.format_exc(limit=-3)], 0
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems)
        if record:
            self.samples[op.kind].append(dt)
            self.op_s += dt
            self.functions += op.functions
            self.hits += hits
        return dt


def another_cycle(op_s: float, cycles: int, seconds: float) -> bool:
    """Whether to run one more cycle: a run ends at the cycle boundary nearest `seconds`."""
    return cycles == 0 or op_s + op_s / cycles / 2 < seconds


def measure(workload, rng, seconds: float) -> Run:
    run = Run()
    while another_cycle(run.op_s, len(run.cycles), seconds):
        for op in workload.cycle(rng):
            run.execute(op)
        run.end_cycle()
    return run


def measure_traced(workload, rng, seconds: float, gb: dict, tracer: Tracer):
    """Each cycle runs traced and untraced, alternating which goes first.

    Both passes count towards `seconds`, so a traced run takes about as
    long as an untraced one.  Returns (run, cycles, traced over untraced
    operation time).
    """
    run = Run()
    plain = 0.0
    cycles = 0
    while another_cycle(run.op_s + plain, cycles, seconds):
        ops = workload.cycle(rng)
        for traced_pass in (cycles % 2 == 1, cycles % 2 == 0):
            if traced_pass:
                with Instrumented(tracer, gb):
                    for op in ops:
                        run.execute(op)
            else:
                plain += sum(run.execute(op, record=False) for op in ops)
        cycles += 1
    return run, cycles, run.op_s / plain


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [Path(sys.executable).name, *sys.argv]

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, build_s = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            try:
                gb = load_gbent()
            except ImportError as e:
                print(f"error: cannot import gbent from {ROOT / 'src'}: {e}", file=sys.stderr)
                return 2
            build_s.append(workload.setup(gb, np.random.default_rng(args.seed), workdir))
            setup_s.append(time.perf_counter() - t0)
        rng = np.random.default_rng([args.seed, 1])
        invalid = workload.validate(rng)
        if args.trace:
            tracer = Tracer()
            run, cycles, overhead = measure_traced(workload, rng, args.seconds, gb, tracer)
            values = layer_metrics(tracer, cycles)
            values["constructions.build_s"] = statistics.median(build_s)
            values["trace.overhead_ratio"] = overhead
            wanted = spec["per_layer"]
        else:
            run = measure(workload, rng, args.seconds)
            values = {f"op{k}_s_best": min(v) for k, v in run.samples.items()}
            values.update({f"op{k}_s_p50": statistics.median(v) for k, v in run.samples.items()})
            values["fn_per_s"] = run.per_second(1)
            values["hits_per_s"] = run.per_second(2)
            values["hits_per_s_p50"] = run.per_second(2, statistics.median)
            values["setup_s"] = statistics.median(setup_s)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.problems[:0] = invalid
    correct = not run.problems
    # a layer the workload never calls has no spans: its numbers are 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0) if args.trace
                                          else values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "command": command, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "setup_s": setup_s,
            "samples_s": {f"op{k}": v for k, v in run.samples.items()}}
    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"# meta {json.dumps(meta)}")
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        named = workload.headline(values)
        named.append(("error_rate", run.failed / run.attempted, f"({run.failed} of {run.attempted} ops)"))
        for name, value, unit in named:
            print(f"# {args.workload}: {name:24s} {value!s:>22} {unit}")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"meta": meta, "correct": correct, "attempted": run.attempted,
                             "failed": run.failed, "metrics": metrics,
                             "problems": run.problems[:20]}) + "\n")
    if args.trace:
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", "wt") as fh:
            json.dump({"meta": meta, "spans": tracer.columns()}, fh)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
