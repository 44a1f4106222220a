"""The benchmark's tracer finds every program function it instruments.

A traced benchmark run wraps the functions named in ``bench/tracer.py`` by
looking each one up on its owner; a name that no longer resolves is only
reported as ``not instrumented:`` and its per-layer figures read zero.
These tests fail instead, so a rename in the program shows up here.  The
layer probes are run once at a tiny size, so a change to the program they
call that would break the traced run fails here too.  The benchmark
modules are imported, never patched.
"""
from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    # the benchmark's own modules must import against the program as it is
    for name in ("checks", "workloads"):
        importlib.import_module(name)
    probes = importlib.import_module("probes")
    tracer = importlib.import_module("tracer")
finally:
    sys.path.remove(str(BENCH))
COUNTERS = tracer.Tracer()._counters()


def _resolve(mod_name: str, path: str):
    """The callable at path, looked up as Tracer._patch looks it up."""
    module = importlib.import_module(f"llnsim.{mod_name}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return vars(module)[owner_name].__dict__[attr]
    return vars(module)[attr]


@pytest.mark.parametrize("mod_name,path,span", tracer.TARGETS,
                         ids=[span + ":" + path for _, path, span in tracer.TARGETS])
def test_every_span_target_resolves(mod_name, path, span):
    assert callable(_resolve(mod_name, path))


PROBES = {
    "kernel_event_ns": lambda: probes.kernel_event_ns(events=1000, batch=100),
    "radio_tx_us": lambda: probes.radio_tx_us(5, frames=20),
    "loadng_rreq_us": lambda: probes.loadng_rreq_us(keys=30),
    "metrics_reduce_us": lambda: probes.metrics_reduce_us(n=200),
}


@pytest.mark.parametrize("name", PROBES)
def test_every_layer_probe_runs(name):
    figure = PROBES[name]()
    assert math.isfinite(figure) and figure > 0


@pytest.mark.parametrize("mod_name,path,make", COUNTERS,
                         ids=[path for _, path, _ in COUNTERS])
def test_every_counting_wrapper_target_resolves(mod_name, path, make):
    assert callable(_resolve(mod_name, path))
