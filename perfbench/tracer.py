"""Outside-in tracer for the gbent package.

The library has no tracing of its own, so this module wraps its public
functions from outside while a traced run is active and restores them
afterwards.  `from .x import y` copies the reference into the importing
module, so a function is replaced at every module-level binding that holds
it; module code looks its globals up at call time, so calls between the
library's own functions are seen too.

Each call records a span (name, start, end, parent) in memory.  Self time
of a span is its duration minus the part of it covered by its child spans.
Work counters derived from argument shapes are "computed": they count what
the algorithm must do, not what the hardware did.

The span names below are the layer names a library-side trace module
should adopt, so that numbers from both sides line up.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def self_times(starts, ends, parents) -> list[float]:
    """Duration minus the union of child intervals, for every span.

    parents[i] is the index of span i's parent, or -1.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(starts[i], lo), min(ends[i], hi)) for i in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder with additive and maximum counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        return any(self.names[i] == name for i in self._stack[1:])

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name: str, fn, count=None, result=None):
        """fn recording one span per call; count sees the arguments, result the return."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer, *args, **kwargs)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if result is not None:
                result(tracer, out)
            return out
        return traced

    def wrap_generator(self, name: str, fn):
        """fn returning an iterator whose every next() is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs))
        return traced

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all recorded spans."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, st in zip(self.names, self_times(self.starts, self.ends, self.parents)):
            totals[name][0] += 1
            totals[name][1] += st
        return {k: (c, s) for k, (c, s) in totals.items()}

    def columns(self) -> dict:
        """Spans as columns with a name table, times relative to the first start."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": table,
                "name": [index[n] for n in self.names],
                "start_us": [round((s - t0) * 1e6, 1) for s in self.starts],
                "end_us": [round((e - t0) * 1e6, 1) for e in self.ends],
                "parent": self.parents}


class _TimedIterator:
    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer.close(i)


# -- what is wrapped -----------------------------------------------------------


def _fwht_counts(t: Tracer, a, axis: int = -1) -> None:
    stages = int(a.shape[axis]).bit_length() - 1
    t.add("boolfn.fwht.computed_ops", stages * a.size)          # one add or sub per element
    t.add("boolfn.fwht.computed_bytes", stages * 2 * a.nbytes)  # read and write per stage


def _norm_counts(t: Tracer, C) -> None:
    t.add("cyclotomic.norm.computed_mults", C.size * C.shape[-1])


def _block_counts(t: Tracer, n: int, k: int, V) -> None:
    # the (F, 2^n, 2^{k-1}) int64 tensor both batch kernels allocate
    t.peak("sweep.max_block_mb", V.shape[0] * V.shape[1] * (1 << (k - 1)) * 8 / 2**20)


def _sweep_result(t: Tracer, res) -> None:
    if t.inside("sweep.exhaustive"):        # counted once, by the enclosing sweep
        return
    t.add("sweep.functions", res.total)
    t.add("sweep.gbent_found", res.gbent_count)
    t.add("sweep.mismatches", len(res.mismatches))


def _search_result(t: Tracer, out) -> None:
    found, total = out
    t.add("sweep.functions", total)
    t.add("sweep.gbent_found", len(found))


def _trace_parse_args(t: Tracer, parser) -> None:
    parser.parse_args = t.wrap("cli.parse", parser.parse_args)


@dataclass(frozen=True)
class Probe:
    """Wrap function `attr` of gbent module `module` as span `name`."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    result: Callable | None = None
    generator: bool = False


PROBES = (
    Probe("cli", "cli", "main"),
    Probe("cli.parse", "cli", "_build_parser", result=_trace_parse_args),
    Probe("analysis.reports", "analysis", "gbent_reports"),
    Probe("analysis.direct", "analysis", "is_gbent_direct"),
    Probe("analysis.spectral", "analysis", "is_gbent_spectral"),
    Probe("analysis.quadruple", "analysis", "is_gbent_quadruple"),
    Probe("analysis.zq", "analysis", "is_zq_bent"),
    Probe("hadamard.match_row", "hadamard", "match_row"),
    Probe("gbf.gwht", "gbf", "gwht"),
    Probe("gbf.component_walsh", "gbf", "component_walsh_matrix"),
    Probe("boolfn.fwht", "boolfn", "fwht_", count=_fwht_counts),
    Probe("cyclotomic.norm", "cyclotomic", "norm_squared_coeffs", count=_norm_counts),
    Probe("duality.dual", "duality", "dual_gbent"),
    Probe("sweep.enumerate", "sweep", "exhaustive_values", generator=True),
    Probe("sweep.direct", "sweep", "batch_direct_flat", count=_block_counts),
    Probe("sweep.component_walsh", "sweep", "batch_component_walsh", count=_block_counts),
    Probe("sweep.spectral", "sweep", "batch_spectral_pass"),
    Probe("sweep.quadruple", "sweep", "batch_quadruple_verdict"),
    Probe("sweep.three_routes", "sweep", "sweep_three_routes", result=_sweep_result),
    Probe("sweep.exhaustive", "sweep", "sweep_exhaustive", result=_sweep_result),
    Probe("sweep.search", "sweep", "search_gbent", result=_search_result),
)

# search_gbent re-verifies each hit through its own binding of gbent_reports
RENAMED_BINDINGS = {("gbent.sweep", "gbent_reports"): "sweep.verify"}

# methods of the function class: the CLI parses input and emits output through them
METHOD_PROBES = (("cli.parse", "from_text"), ("cli.emit", "to_text"))


class Instrumented:
    """Context manager: every probe wrapped across the package, then restored."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules      # "gbent", "gbent.cli", ... -> module
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        t = self.tracer
        for probe in PROBES:
            original = getattr(self.modules["gbent." + probe.module], probe.attr)
            for mod_name, mod in self.modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    name = RENAMED_BINDINGS.get((mod_name, attr), probe.name)
                    if probe.generator:
                        self._set(mod, attr, t.wrap_generator(name, original))
                    else:
                        self._set(mod, attr, t.wrap(name, original, probe.count, probe.result))
        cls = self.modules["gbent.gbf"].GeneralizedBooleanFunction
        for name, attr in METHOD_PROBES:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(t.wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, t.wrap(name, raw))
        return t

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-cycle layer numbers: calls and self seconds per span name, plus counters."""
    out: dict[str, float] = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        out[f"{name}.calls"] = calls / cycles
        out[f"{name}.self_s"] = self_s / cycles
    for key, value in tracer.counts.items():
        out[key] = value / cycles
    out.update(tracer.maxima)
    out["analysis.reports.calls"] = (out.get("analysis.reports.calls", 0.0)
                                     + out.get("sweep.verify.calls", 0.0))
    functions = out.get("sweep.functions", 0.0)
    out["sweep.hit_ratio"] = out.get("sweep.gbent_found", 0.0) / functions if functions else 0.0
    return out
