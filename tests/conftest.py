"""Shared builders: deterministic layouts, graph oracles, run helpers."""
from __future__ import annotations

import random
import zlib
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import settings

from llnsim.kernel import to_ticks
from llnsim.metrics import ControlRow
from llnsim.network import Network
from llnsim.radio import Position, RadioParams, reception_probability
from llnsim.scenario import CtpParams, LoadngParams, RplParams, ScenarioConfig

# tier-1 stays a pure function of the code: every property test draws the
# same examples on every run
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# the published campaign scenario files
CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"

# perfect links inside the disc; zero beyond; topology-only experiments
LOSSLESS = RadioParams(p_edge=1.0)

# wide jitters and a generous traversal time keep in-flood self-collisions
# out of topology-equivalence checks; the protocols under test are the same.
# route_lifetime must cover flood depth x jitter or reply paths expire under
# the reply on deep graphs
CALM_LOADNG = LoadngParams(rreq_jitter_max=5.0, route_lifetime=120.0,
                           net_traversal_time=60.0)
CALM_CTP = CtpParams(net_traversal_time=30.0, rreq_max_jitter=5.0,
                     hello_min_jitter=12.0, hello_max_jitter=30.0)
CALM_RPL = RplParams(dio_redundancy_constant=99)


def chain_positions(n: int, spacing: float = 150.0) -> dict[int, Position]:
    """A straight line where only adjacent nodes are within radio range."""
    return {i: Position(100.0 + spacing * i, 500.0) for i in range(n)}


def quiet_cfg(**overrides) -> ScenarioConfig:
    """Lossless radio, no scheduled traffic; sends are injected by hand."""
    overrides.setdefault("radio", LOSSLESS)
    overrides.setdefault("traffic_enabled", False)
    return ScenarioConfig(**overrides)


def inject(net: Network, at_s: float, src: int, dst: int,
           payload: int, direction: str, kind: str = "report") -> None:
    net.sim.schedule_at(to_ticks(at_s), lambda: net.app_send(
        src, dst, payload, direction, kind))


def bfs_hops(positions: dict[int, Position], radio: RadioParams,
             start: int = 0) -> dict[int, int]:
    """Hop count from start over every link with nonzero reception odds."""
    addrs = sorted(positions)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for b in addrs:
                if b in dist:
                    continue
                gap = positions[a].distance_to(positions[b])
                if reception_probability(gap, radio) > 0.0:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def random_connected_positions(n: int, seed: int,
                               radio: RadioParams = LOSSLESS,
                               side: float = 1000.0) -> dict[int, Position]:
    """Uniform placement, concentrator centered, resampled until connected."""
    rng = random.Random(f"layout/{seed}")
    while True:
        pos = {0: Position(side / 2.0, side / 2.0)}
        for a in range(1, n):
            pos[a] = Position(rng.uniform(0.0, side), rng.uniform(0.0, side))
        if len(bfs_hops(pos, radio)) == n:
            return pos


def control_rows(result, label: str) -> list[ControlRow]:
    return [row for row in result.metrics.control_log if row[1] == label]


def root_ticks(result, label: str) -> list[int]:
    """Ticks at which the concentrator put a control frame of this label on air."""
    return [row[0] for row in control_rows(result, label) if row[2] == 0]


def tree_rreps(result) -> int:
    """Route reports sent toward the root in answer to tree builds."""
    return sum(engine.counters["tree_rrep"] for engine in result.nodes.values())


def _sealed_streams(log) -> tuple[list[int], int]:
    """The size of each zlib stream one full read of a log inflates, and
    the width of the log's rows.

    A sealed chunk holds one zlib stream per field of a row, and a full read
    inflates each chunk once.
    """
    sizes = []
    decompress = zlib.decompress

    def counting(data):
        sizes.append(len(data))
        return decompress(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zlib, "decompress", counting)
        rows = [row if isinstance(row, tuple) else astuple(row) for row in log]
    width = len(rows[0]) if rows else 1
    assert len(sizes) % width == 0
    return sizes, width


def sealed_chunks(log) -> int:
    """The sealed chunks one full read of a log inflates: the streams it
    decompresses, divided by the row's width."""
    sizes, width = _sealed_streams(log)
    return len(sizes) // width


def sealed_bytes(log) -> int:
    """The compressed bytes of every sealed chunk of a log."""
    return sum(_sealed_streams(log)[0])
