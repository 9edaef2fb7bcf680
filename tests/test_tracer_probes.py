"""The traced benchmark wraps library functions by name; every name must resolve.

perfbench/tracer.py lists (module, attr) probes and methods of the function
class.  A rename or deletion in the library would otherwise break only the
traced benchmark run, not this suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import gbent.cli  # noqa: F401  imports every module the probes name
from gbent.gbf import GeneralizedBooleanFunction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_resolves():
    tracer = load_tracer()
    assert tracer.PROBES
    missing = [f"gbent.{p.module}.{p.attr}" for p in tracer.PROBES
               if not callable(getattr(importlib.import_module(f"gbent.{p.module}"),
                                       p.attr, None))]
    assert missing == []


def test_every_method_probe_resolves():
    tracer = load_tracer()
    assert tracer.METHOD_PROBES
    missing = [attr for _, attr in tracer.METHOD_PROBES
               if attr not in GeneralizedBooleanFunction.__dict__]
    assert missing == []
