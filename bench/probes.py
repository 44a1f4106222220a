"""Layer probes: the public functions of one layer, called directly on fixed inputs.

Each probe times a fixed stream of calls and returns the cost of one unit;
``run_probes`` repeats each and keeps the median, so the figures compare
layers across commits without a whole simulation around them.
"""
from __future__ import annotations

import gc
import math
import random
import statistics
import time

from llnsim.kernel import Simulator
from llnsim.messages import BROADCAST, MsgKind, RouteMsg
from llnsim.metrics import DOWN, UP, PacketRecord, avg_delay, overhead_rate, pdr
from llnsim.network import Network
from llnsim.radio import Frame, KIND_CONTROL, KIND_DATA, Medium, Position, RadioParams
from llnsim.scenario import ScenarioConfig

REPEATS = 5


def _noop(*_args) -> None:
    pass


def kernel_event_ns(events: int = 200_000, batch: int = 1000) -> float:
    """Schedule plus pop of one no-op event, with about `batch` pending."""
    rng = random.Random(1)
    delays = [rng.randrange(1, 10_000) for _ in range(batch)]
    sim = Simulator(1)
    start = time.perf_counter_ns()
    for _ in range(events // batch):
        now = sim.now
        for d in delays:
            sim.schedule_at(now + d, _noop)
        sim.run_until(now + 10_000)
    return (time.perf_counter_ns() - start) / events


def radio_tx_us(degree: int, frames: int = 4000) -> float:
    """Medium.transmit plus its finish, from a sender with `degree` neighbours.

    The neighbours sit on a 100 m circle around the sender; the stream
    alternates a 24-byte broadcast with a 61-byte unicast to each neighbour
    in turn.
    """
    sim = Simulator(1)
    medium = Medium(sim, RadioParams())
    medium.add_node(0, Position(500.0, 500.0), _noop)
    for i in range(1, degree + 1):
        angle = 2 * math.pi * i / degree
        medium.add_node(i, Position(500.0 + 100.0 * math.cos(angle),
                                    500.0 + 100.0 * math.sin(angle)), _noop)
    medium.finalize()
    stream = []
    for k in range(frames):
        if k % 2:
            stream.append(Frame(0, 1 + (k // 2) % degree, 61, KIND_DATA, "data"))
        else:
            stream.append(Frame(0, BROADCAST, 24, KIND_CONTROL, "rreq"))
    start = time.perf_counter_ns()
    for frame in stream:
        medium.transmit(0, frame, _noop)
        sim.run_until(sim.now + 100_000)
    return (time.perf_counter_ns() - start) / frames / 1e3


def loadng_rreq_us(keys: int = 10_000) -> float:
    """The LoadNG RREQ receive path at a transit node.

    Every (originator, seq) key arrives three times, as a flood delivers it:
    first at hop count 3 (installed and re-broadcast), then at 4 (a
    suppressed duplicate), then at 2 (a better path, re-broadcast again).
    """
    cfg = ScenarioConfig(backend="loadng", node_count=40, duration=60.0,
                         warmup=0.0, traffic_enabled=False)
    net = Network(cfg)
    node = net.nodes[1]
    msgs = []
    for k in range(keys):
        orig = 2 + k % 30
        seq = 1 + k // 30
        for hops in (3, 4, 2):
            msgs.append((RouteMsg(MsgKind.RREQ, originator=orig, destination=35,
                                  seq=seq, hop_count=hops), 2 + (k + hops) % 30))
    start = time.perf_counter_ns()
    for msg, prev_hop in msgs:
        node.handle_msg(msg, prev_hop)
    return (time.perf_counter_ns() - start) / len(msgs) / 1e3


def metrics_reduce_us(n: int = 100_000) -> float:
    """pdr and avg_delay per direction plus overhead_rate, per record."""
    rng = random.Random(1)
    records = []
    for pid in range(n):
        created = rng.randrange(0, 1_800_000_000)
        rec = PacketRecord(pid, 1 + pid % 59, 0, 512, UP if pid % 2 else DOWN,
                           "report", created)
        if rng.random() < 0.9:
            rec.delivered_at = created + rng.randrange(10_000, 2_000_000)
            rec.fate = "delivered"
        else:
            rec.fate = "mac-drop"
        records.append(rec)
    log = [(rng.randrange(0, 1_800_000_000), "rreq", pid % 60, 40)
           for pid in range(n)]
    warm = 120_000_000
    start = time.perf_counter_ns()
    for direction in (UP, DOWN):
        pdr(records, direction, warm)
        avg_delay(records, direction, warm)
    overhead_rate(log, warm, 1_800_000_000)
    return (time.perf_counter_ns() - start) / n / 1e3


def run_probes() -> dict[str, float]:
    probes = {
        "kernel.event_ns": kernel_event_ns,
        "radio.tx_us_deg5": lambda: radio_tx_us(5),
        "radio.tx_us_deg15": lambda: radio_tx_us(15),
        "radio.tx_us_deg30": lambda: radio_tx_us(30),
        "loadng.rreq_us": loadng_rreq_us,
        "metrics.reduce_us": metrics_reduce_us,
    }
    out = {}
    for name, probe in probes.items():
        samples = []
        for _ in range(REPEATS):
            gc.collect()
            samples.append(probe())
        out[name] = statistics.median(samples)
    return out
