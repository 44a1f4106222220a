"""The benchmark's tracer finds every program function it instruments.

A traced benchmark run wraps the functions named in ``bench/tracer.py`` by
looking each one up on its owner; a name that no longer resolves is only
reported as ``not instrumented:`` and its per-layer figures read zero.
These tests fail instead, so a rename in the program shows up here.  The
layer probes are run once at a tiny size, so a change to the program they
call that would break the traced run fails here too.  The benchmark
modules are imported, never patched.  The output checks and the tracer's
harvest are run on tiny finished networks, so a renamed piece of program
state that they read (routes, counters, flood keys, MAC counters, record
fields) fails here rather than in a benchmark run.  The traced campaign
checks every run that ``run_sweep`` returns, so a sweep's items must stay
whole runs.  The checks and the tracer read the packet and control logs
row by row, so they are run on logs sealed into several chunks too.
"""
from __future__ import annotations

import csv
import importlib
import math
import sys
from pathlib import Path

import pytest

from llnsim import metrics
from llnsim.experiment import expand_sweep, run_sweep, write_csv
from llnsim.network import Network
from llnsim.scenario import ScenarioConfig

from conftest import sealed_chunks

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    # the benchmark's own modules must import against the program as it is
    checks = importlib.import_module("checks")
    importlib.import_module("workloads")
    probes = importlib.import_module("probes")
    selftest = importlib.import_module("selftest")
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


def test_reception_count_is_the_senders_in_range_neighbors():
    """``radio.receptions`` counts one record per link of the sender, read
    as the length of the sender's row in the medium's link table; a removal
    takes the node out of every row."""
    from llnsim.kernel import Simulator
    from llnsim.messages import BROADCAST
    from llnsim.radio import (Frame, KIND_DATA, Medium, Position, RadioParams,
                              reception_probability)

    radio = RadioParams()
    layout = {0: Position(0, 0), 1: Position(100, 0), 2: Position(0, 200),
              3: Position(240, 0), 4: Position(900, 0)}
    sim = Simulator(1)
    medium = Medium(sim, radio)
    for addr, pos in layout.items():
        medium.add_node(addr, pos, lambda frame, sender: None)
    medium.finalize()
    t = tracer.Tracer()
    make = {path: make for _, path, make in t._counters()}["Medium.transmit"]
    counted = make(type(medium).transmit)

    def in_range(a):
        return sum(1 for b in layout if b != a and b in medium.positions
                   and reception_probability(layout[a].distance_to(layout[b]),
                                             radio) > 0.0)

    assert [len(medium._links[a]) for a in layout] == [3, 3, 2, 2, 0]
    for gone in (None, 1):
        if gone is not None:
            medium.remove_node(gone)
        for a in medium.positions:
            assert len(medium._links[a]) == in_range(a)
            before = t.counts["receptions"]
            counted(medium, a, Frame(a, BROADCAST, 24, KIND_DATA, "b"),
                    lambda ok: None)
            sim.run_until(sim.now + 100_000)
            assert t.counts["receptions"] - before == in_range(a)
    assert [len(medium._links[a]) for a in medium.positions] == [2, 1, 1, 0]


def test_every_output_check_passes_clean_runs_and_flags_planted_faults(tmp_path):
    failed = [name for name, ok in selftest.cases(tmp_path) if not ok]
    assert failed == []


def test_harvest_reads_its_counts_from_finished_networks():
    t = tracer.Tracer()  # not installed: only what harvest reads is under test
    runs = []
    for backend in ("loadng", "loadng-ctp", "rpl"):
        net = Network(ScenarioConfig(backend=backend, node_count=6,
                                     duration=300.0))
        runs.append((net, net.run()))
        t.networks.append(net)
    t.sweeps.append([result for _, result in runs])
    h = t.harvest()

    engines = [e for net, _ in runs for e in net.nodes.values()]
    macs = [e.mac for e in engines]
    assert h["enqueued"] == sum(m.unicast_ok + m.unicast_fail + m.broadcast_done
                                + len(m.queue) for m in macs) > 0
    assert h["attempts"] == sum(m.transmissions for m in macs) > h["enqueued"]
    assert h["queue_drops"] == sum(m.queue_drops for m in macs)
    assert h["records"] == sum(len(r.metrics.records) for _, r in runs) > 0
    assert h["control_log_rows"] == sum(len(r.metrics.control_log)
                                        for _, r in runs) > 0
    assert h["sends"] == sum(len(net.schedule) for net, _ in runs) > 0
    reactive = [e for e in engines if e.net.cfg.backend != "rpl"]
    assert h["dup_state_keys"] == sum(len(e.flood_seen) + len(e.reply_seq)
                                      for e in reactive) > 0
    # sends that beat the tree build fall back to reactive discovery
    assert h["fallback_discoveries"] == sum(
        e.counters["fallback_discovery"] for e in reactive) > 0
    assert h["retained_bytes"] > 0 and h["sweep_bytes"] > 0


def test_every_run_a_sweep_returns_passes_the_output_checks(tmp_path):
    base = ScenarioConfig(backend="loadng-ctp", node_count=6, duration=300.0,
                          removals=((150.0, 3),))
    results = run_sweep(expand_sweep(base, {"seeds": "2"}))
    path = tmp_path / "sweep.csv"
    write_csv(str(path), [r.report for r in results])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(results) == 2
    assert [checks.check_run(r, row) for r, row in zip(results, rows)] == [[], []]


def test_tracer_scheduler_keeps_the_kernel_order_over_events_due_now():
    """The traced run schedules every event through the tracer's wrapper of
    ``Simulator.schedule_at``; events due at the current tick wait in the
    kernel's FIFO, and through the wrapper they must still fire in (tick,
    number) order, count as zero-delay, and count as pending."""
    from llnsim.kernel import Simulator

    t = tracer.Tracer()  # not installed: the wrapper is applied by hand
    schedule_at = t._scheduler(Simulator.schedule_at)
    sim = Simulator(1)
    scheduled, fired = [], []
    zero_delay = 0

    def at(fire_at, children=()):
        nonlocal zero_delay
        zero_delay += fire_at == sim.now
        key = (fire_at, len(scheduled))
        scheduled.append(key)

        def fire():
            fired.append(key)
            for delay in children:
                at(sim.now + delay, children[1:])
        schedule_at(sim, fire_at, fire)

    for _ in range(3):
        at(0, (0, 5, 0))
    # nothing but the three events due now is pending
    assert t.counts["peak_pending"] == 3
    at(5, (0, 0))
    at(2, (0,))
    sim.run_until(100)
    assert fired == sorted(scheduled) and len(fired) == 55
    assert t.counts["zero_delay"] == zero_delay == 41


def test_rreq_counting_wrapper_sees_every_copy_a_node_receives():
    """``loadng.rreq_dup_ratio`` is the share of RREQ copies that the
    tracer's wrapper of ``LoadngNode._process_rreq`` finds already recorded
    in ``flood_seen``, so every copy a node receives must pass through it,
    duplicates included."""
    import types

    from llnsim.messages import BROADCAST, MsgKind, RouteMsg
    from llnsim.radio import Frame, KIND_CONTROL

    t = tracer.Tracer()  # not installed: the wrapper is applied by hand
    make = {path: make for _, path, make in t._counters()}[
        "LoadngNode._process_rreq"]
    net = Network(ScenarioConfig(backend="loadng", node_count=2,
                                 duration=60.0, warmup=0.0))
    node = net.nodes[1]
    node._process_rreq = types.MethodType(make(type(node)._process_rreq), node)
    msg = RouteMsg(MsgKind.RREQ, originator=0, destination=7, seq=3,
                   hop_count=2)
    frame = Frame(0, BROADCAST, 24, KIND_CONTROL, "rreq", msg)
    for _ in range(2):
        node.receive(frame, 0)
    assert (t.counts["rreq_in"], t.counts["rreq_dup"]) == (2, 1)


def _run_in_chunks_of(monkeypatch, chunk_rows: int) -> Network:
    monkeypatch.setattr(metrics, "CHUNK_ROWS", chunk_rows)
    return Network(ScenarioConfig(backend="loadng", node_count=6,
                                  duration=300.0)).run()


def test_the_output_checks_read_sealed_logs_as_unsealed_ones(tmp_path,
                                                            monkeypatch):
    plain = _run_in_chunks_of(monkeypatch, 10**9)
    net = _run_in_chunks_of(monkeypatch, 16)
    records, control_log = net.metrics.records, net.metrics.control_log
    assert sealed_chunks(records) == len(records) // 16 >= 2
    assert sealed_chunks(control_log) == len(control_log) // 16 >= 2
    assert sealed_chunks(plain.metrics.records) == 0
    path = tmp_path / "sealed.csv"
    write_csv(str(path), [net.report])
    with open(path, newline="") as fh:
        row, = csv.DictReader(fh)
    assert checks.check_run(net, row) == []
    assert list(control_log) == list(plain.metrics.control_log)
    # the record reads of bench/selftest.py
    same = plain.metrics.records
    assert list(records) == list(same)
    for i in (0, 15, 16, 17, len(same) // 2, len(same) - 1):
        assert records[i] == same[i]
        assert records[:i] + records[i + 1:] == same[:i] + same[i + 1:]


def test_the_logs_of_a_two_hour_run_hold_at_most_half_their_raw_size():
    """The two logs grow with run length; sealed chunks keep them to under
    half the 17 B per control row and 35 B per packet row of raw columns,
    as ``metrics.retained_mb`` measures them."""
    m = Network(ScenarioConfig(backend="rpl", node_count=60,
                               duration=7200.0)).run().metrics
    raw = 17 * len(m.control_log) + 35 * len(m.records)
    assert tracer.deep_size((m.records, m.control_log)) <= raw / 2
