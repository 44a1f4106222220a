"""Packet accounting: delivery ratio, end-to-end delay, control overhead."""
from __future__ import annotations

import hashlib
import statistics
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .kernel import SimulationError, to_seconds

UP = "up"
DOWN = "down"

DELIVERED = "delivered"
MAC_DROP = "mac-drop"
NO_ROUTE = "no-route"
DISCOVERY_TIMEOUT = "discovery-timeout"
BUFFER_OVERFLOW = "buffer-overflow"
IN_FLIGHT = "in-flight-at-end"


@dataclass(slots=True)
class PacketRecord:
    """One application packet, from creation to its single final fate."""

    pid: int
    src: int
    dst: int
    payload_bytes: int
    direction: str  # UP toward the concentrator, DOWN toward a client
    kind: str  # report | config | ack
    created_at: int
    delivered_at: int | None = None
    fate: str | None = None
    hops: int = 0  # forwarding hops consumed so far


ControlRow = tuple[int, str, int, int]  # (tick, label, node, on-air bytes)


class ControlLog:
    """One row per control frame put on air, held in typed columns.

    A row takes 17 bytes of column storage; the (tick, label, node, bytes)
    tuple of a row exists only while someone iterates.  Labels are stored as
    small ids into the list of distinct labels.  A value out of its
    column's range (a 257th label, a node or size past 2**31) raises
    OverflowError, which aborts the run, rather than wrapping.
    """

    __slots__ = ("_ticks", "_label_ids", "_nodes", "_sizes", "_labels", "_ids")

    def __init__(self) -> None:
        self._ticks = array("q")
        self._label_ids = array("B")
        self._nodes = array("i")
        self._sizes = array("i")
        self._labels: list[str] = []  # label id -> label
        self._ids: dict[str, int] = {}

    def append(self, now: int, label: str, node: int, on_air_bytes: int) -> None:
        lid = self._ids.get(label)
        if lid is None:
            lid = self._ids[label] = len(self._labels)
            self._labels.append(label)
        self._ticks.append(now)
        self._label_ids.append(lid)
        self._nodes.append(node)
        self._sizes.append(on_air_bytes)

    def __len__(self) -> int:
        return len(self._ticks)

    def __iter__(self) -> Iterator[ControlRow]:
        return zip(self._ticks, map(self._labels.__getitem__, self._label_ids),
                   self._nodes, self._sizes)


class MetricsCollector:
    """Gathers packet records and a timestamped control-transmission log."""

    def __init__(self, warmup_ticks: int) -> None:
        self.warmup_ticks = warmup_ticks
        self.records: list[PacketRecord] = []
        self.control_log = ControlLog()
        self._next_pid = 0

    def new_packet(self, src: int, dst: int, payload_bytes: int,
                   direction: str, kind: str, now: int) -> PacketRecord:
        pkt = PacketRecord(self._next_pid, src, dst, payload_bytes,
                           direction, kind, now)
        self._next_pid += 1
        self.records.append(pkt)
        return pkt

    def delivered(self, pkt: PacketRecord, now: int) -> None:
        if pkt.fate is not None:
            raise SimulationError(f"packet {pkt.pid} resolved twice")
        pkt.delivered_at = now
        pkt.fate = DELIVERED

    def dropped(self, pkt: PacketRecord, fate: str) -> None:
        if pkt.fate is not None:
            raise SimulationError(f"packet {pkt.pid} resolved twice")
        pkt.fate = fate

    def close(self, held) -> None:
        """Give the end-of-run fate to the packets nodes still hold.

        Any other unresolved packet leaked, and assert_conserved aborts.
        """
        for pkt in held:
            if pkt.fate is None:
                pkt.fate = IN_FLIGHT

    def assert_conserved(self) -> None:
        """Every created packet has exactly one fate, per direction."""
        for direction in (UP, DOWN):
            created = sum(1 for p in self.records if p.direction == direction)
            resolved = sum(1 for p in self.records
                           if p.direction == direction and p.fate is not None)
            if created != resolved:
                raise SimulationError(
                    f"packet conservation violated for {direction}: "
                    f"{created} created, {resolved} resolved")


def pdr(records: list[PacketRecord], direction: str, warmup_ticks: int) -> float | None:
    """Delivered / created over post-warmup packets; None when none were created."""
    created = delivered = 0
    for pkt in records:
        if pkt.direction != direction or pkt.created_at < warmup_ticks:
            continue
        created += 1
        if pkt.fate == DELIVERED:
            delivered += 1
    if created == 0:
        return None
    return delivered / created


def avg_delay(records: list[PacketRecord], direction: str,
              warmup_ticks: int) -> float | None:
    """Mean creation-to-delivery delay in seconds over post-warmup deliveries."""
    total = 0
    n = 0
    for pkt in records:
        if (pkt.direction != direction or pkt.created_at < warmup_ticks
                or pkt.fate != DELIVERED):
            continue
        total += pkt.delivered_at - pkt.created_at
        n += 1
    if n == 0:
        return None
    return to_seconds(total) / n


def overhead_rate(control_log: Iterable[ControlRow],
                  warmup_ticks: int, end_ticks: int) -> float:
    """Control bytes put on the air per second, measured after warmup."""
    duration = to_seconds(end_ticks - warmup_ticks)
    if duration <= 0:
        raise SimulationError("measurement window must be positive")
    total = sum(entry[3] for entry in control_log if entry[0] >= warmup_ticks)
    return total / duration


@dataclass(frozen=True)
class MetricsReport:
    """Summary of one run; one CSV row."""

    cfg_id: str
    backend: str
    node_count: int
    distance: float | None
    seed: int
    pdr_up: float | None
    pdr_down: float | None
    delay_up_s: float | None
    delay_down_s: float | None
    overhead_bps: float
    up_created: int
    up_delivered: int
    down_created: int
    down_delivered: int
    mac_drop: int
    no_route: int
    discovery_timeout: int
    buffer_overflow: int
    in_flight: int


CSV_COLUMNS = (
    "cfg_id", "backend", "node_count", "distance", "seed",
    "pdr_up", "pdr_down", "delay_up_ms", "delay_down_ms", "overhead_bps",
    "up_created", "up_delivered", "down_created", "down_delivered",
    "mac_drop", "no_route", "discovery_timeout", "buffer_overflow", "in_flight",
)


def _fmt(value, scale: float = 1.0, digits: int = 6) -> str:
    if value is None:
        return ""
    return f"{value * scale:.{digits}f}"


def report_row(report: MetricsReport) -> list[str]:
    return [
        report.cfg_id,
        report.backend,
        str(report.node_count),
        _fmt(report.distance, digits=1),
        str(report.seed),
        _fmt(report.pdr_up),
        _fmt(report.pdr_down),
        _fmt(report.delay_up_s, scale=1e3, digits=3),
        _fmt(report.delay_down_s, scale=1e3, digits=3),
        _fmt(report.overhead_bps, digits=3),
        str(report.up_created),
        str(report.up_delivered),
        str(report.down_created),
        str(report.down_delivered),
        str(report.mac_drop),
        str(report.no_route),
        str(report.discovery_timeout),
        str(report.buffer_overflow),
        str(report.in_flight),
    ]


AGGREGATE_METRICS = ("pdr_up", "pdr_down", "delay_up_s", "delay_down_s",
                     "overhead_bps")


def aggregate(reports: list[MetricsReport]) -> dict[str, tuple[float, float]]:
    """Mean and sample stddev per metric over same-configuration runs."""
    if not reports:
        raise ValueError("nothing to aggregate")
    cfg_ids = {r.cfg_id for r in reports}
    if len(cfg_ids) != 1:
        raise ValueError(f"mixed configurations in aggregate: {sorted(cfg_ids)}")
    out = {}
    for name in AGGREGATE_METRICS:
        values = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if not values:
            continue
        mean = statistics.fmean(values)
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        out[name] = (mean, sd)
    return out


def config_digest(payload: str) -> str:
    """Stable short id for a resolved configuration (seed excluded by caller)."""
    return hashlib.sha1(payload.encode()).hexdigest()[:12]
