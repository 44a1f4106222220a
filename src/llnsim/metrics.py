"""Packet accounting: delivery ratio, end-to-end delay, control overhead."""
from __future__ import annotations

import hashlib
import statistics
import zlib
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, repeat
from operator import sub

from .kernel import SimulationError, to_seconds

UP = "up"
DOWN = "down"

DELIVERED = "delivered"
MAC_DROP = "mac-drop"
NO_ROUTE = "no-route"
DISCOVERY_TIMEOUT = "discovery-timeout"
BUFFER_OVERFLOW = "buffer-overflow"
IN_FLIGHT = "in-flight-at-end"

CHUNK_ROWS = 4096  # rows per sealed chunk of a log


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


class _Names(dict):
    """Name -> small id; a name not seen before takes the next id, so
    list(names) is the id -> name table."""

    def __missing__(self, name: str) -> int:
        nid = self[name] = len(self)
        return nid


class _Table:
    """Rows in typed array columns; each chunk_rows of them (CHUNK_ROWS when
    the table was made) seal into one chunk, a zlib stream per column.  A
    sealed "q" column holds its first value, then each value's difference
    from the one before, so a column that rises steadily packs into small
    repeating numbers.  Its owner writes each row whole through append,
    storing a name as its id in ``names``.
    """

    __slots__ = ("columns", "chunk_rows", "names", "_sealed")

    def __init__(self, typecodes: str) -> None:
        self.columns = tuple(array(code) for code in typecodes)
        self.chunk_rows = CHUNK_ROWS
        self.names = _Names()
        self._sealed: list[tuple[bytes, ...]] = []

    def append(self, row: tuple) -> None:
        """Write one row, a value per column, and seal a full chunk.  A value
        its column refuses (out of range, or not an int), or a difference
        the seal cannot store, raises and leaves every column as it was."""
        n = len(self.columns[0])
        try:
            # array.append returns None, so any() runs the map to its end
            any(map(array.append, self.columns, row))
            if n + 1 >= self.chunk_rows:
                self.seal()
        except (OverflowError, TypeError):
            for col in self.columns:
                del col[n:]
            raise

    def seal(self) -> None:
        """Compress the first chunk_rows rows into one chunk; drop them."""
        n = self.chunk_rows
        # every "q" value a log stores lies in [-1, 2**62): pids count
        # packets, a tick is at most the run's end, which ScenarioConfig
        # bounds below 2**62, and -1 marks no delivery; so a difference
        # lies in [-2**62, 2**62] and fits in "q"
        self._sealed.append(tuple(
            zlib.compress(array("q", map(sub, col[:n], chain((0,), col)))
                          if col.typecode == "q" else col[:n], 1)
            for col in self.columns))
        for col in self.columns:
            del col[:n]

    def __len__(self) -> int:
        return len(self._sealed) * self.chunk_rows + len(self.columns[0])

    def chunks(self) -> Iterator[Sequence[array]]:
        """The columns of each sealed chunk in order, inflated; then the raw."""
        for sealed in self._sealed:
            columns = []
            for col, data in zip(self.columns, sealed):
                values = array(col.typecode, zlib.decompress(data))
                columns.append(array("q", accumulate(values))
                               if col.typecode == "q" else values)
            yield columns
        yield self.columns

    def __iter__(self) -> Iterator[tuple]:
        for columns in self.chunks():
            yield from zip(*columns)


class ControlLog:
    """One row per control frame put on air, held in a sealed table.

    The radio calls append once per frame, and append writes the (tick,
    label, node, bytes) row whole; the table owns the labels, storing each
    as its small id.  A row takes 17 bytes of column storage until each
    CHUNK_ROWS rows are sealed into one zlib chunk, about 2.4 bytes a row on
    the default 8 h rpl run; the row tuple exists only while someone
    iterates.  A value out of its column's range (a 257th label, a node or
    size past 2**31) raises OverflowError, which aborts the run, rather than
    wrapping, and leaves the log as it was.  A tick must lie in [-1, 2**62),
    as every tick of a run does: sealing stores differences of ticks, and
    past that range one may not fit in 64 bits; a row whose seal fails is
    refused the same way.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table = _Table("qBii")

    def append(self, now: int, label: str, node: int, on_air_bytes: int) -> None:
        self._table.append((now, self._table.names[label], node, on_air_bytes))

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[ControlRow]:
        label = list(self._table.names).__getitem__
        for ticks, label_ids, nodes, sizes in self._table.chunks():
            yield from zip(ticks, map(label, label_ids), nodes, sizes)


_FATE_BY_ID = (DELIVERED, MAC_DROP, NO_ROUTE, DISCOVERY_TIMEOUT,
               BUFFER_OVERFLOW, IN_FLIGHT)
_FATE_IDS = {fate: fid for fid, fate in enumerate(_FATE_BY_ID)}
_DELIVERED_ID = _FATE_IDS[DELIVERED]


def _revive(row: tuple, names: list[str]) -> PacketRecord:
    """A fresh PacketRecord from a settled row and its table's names."""
    pid, src, dst, payload, direction, kind, created, delivered, fid, hops = row
    return PacketRecord(pid, src, dst, payload, names[direction], names[kind],
                        created, None if delivered < 0 else delivered,
                        _FATE_BY_ID[fid], hops)


class PacketLog:
    """Every application packet of a run: settled rows in a sealed table,
    unresolved packets as live objects.

    The network opens each packet it creates: open files a PacketRecord in
    ``live`` under the next pid.  Whoever decides the packet's fate settles
    it: settle writes its whole row (the record's fields in order) and
    releases the object.  The table owns the direction and kind names,
    storing each as its small id; the fate is one of six ids.  A row takes
    43 bytes of column storage until each CHUNK_ROWS rows are sealed into
    one zlib chunk, about 6.5 bytes a row on the default 8 h rpl run, so a
    packet held to the end of the run holds back no sealing.  Reading the
    log yields the settled packets in the order they settled, as fresh
    PacketRecords, then the unresolved ones, the live objects, in pid
    order.  An index or a slice reads through that iteration, a pass over
    the whole log; the run itself never indexes it.  A value out of its
    column's range raises OverflowError at settle, as in ControlLog, and the
    packet stays live without a fate.  Its ticks must lie in [-1, 2**62), as
    in ControlLog: past that, a row whose seal fails is refused the same way.
    """

    __slots__ = ("live", "_table")

    def __init__(self) -> None:
        self.live: dict[int, PacketRecord] = {}
        self._table = _Table("qiiiBBqqBi")  # PacketRecord's order

    def open(self, src: int, dst: int, payload_bytes: int, direction: str,
             kind: str, now: int) -> PacketRecord:
        """File an unresolved packet in live under the next pid."""
        pid = len(self._table) + len(self.live)
        pkt = self.live[pid] = PacketRecord(pid, src, dst, payload_bytes,
                                            direction, kind, now)
        return pkt

    def settle(self, pkt: PacketRecord, fate: str,
               delivered_at: int | None = None) -> None:
        """Give an unresolved packet its one fate; write its row, drop it."""
        if pkt.fate is not None:
            raise SimulationError(f"packet {pkt.pid} resolved twice")
        fid = _FATE_IDS.get(fate)
        if fid is None:
            raise SimulationError(f"packet {pkt.pid} given unknown fate {fate!r}")
        names = self._table.names
        self._table.append((
            pkt.pid, pkt.src, pkt.dst, pkt.payload_bytes, names[pkt.direction],
            names[pkt.kind], pkt.created_at,
            -1 if delivered_at is None else delivered_at, fid, pkt.hops))
        del self.live[pkt.pid]
        pkt.fate = fate
        pkt.delivered_at = delivered_at

    def __len__(self) -> int:
        return len(self._table) + len(self.live)

    def __getitem__(self, index: int | slice
                    ) -> PacketRecord | list[PacketRecord]:
        return list(self)[index]

    def __iter__(self) -> Iterator[PacketRecord]:
        yield from map(_revive, self._table, repeat(list(self._table.names)))
        yield from self.live.values()

    def tally(self, warmup_ticks: int
              ) -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
        """One pass over the settled packets created at or after warmup_ticks.

        Returns (created, delivered, delay ticks summed over deliveries) per
        direction seen, and the packet count of each fate.
        """
        names = list(self._table.names)
        sums = [[0, 0, 0] for _ in names]
        fates = [0] * len(_FATE_BY_ID)
        seen = set()
        for columns in self._table.chunks():
            directions, _, created_at, delivered_at, fate_ids = columns[4:9]
            seen.update(directions)
            for nid, created, delivered, fid in zip(directions, created_at,
                                                    delivered_at, fate_ids):
                if created < warmup_ticks:
                    continue
                row = sums[nid]
                row[0] += 1
                fates[fid] += 1
                if fid == _DELIVERED_ID:
                    row[1] += 1
                    row[2] += delivered - created
        per_direction = {names[nid]: tuple(sums[nid]) for nid in seen}
        return per_direction, dict(zip(_FATE_BY_ID, fates))


class MetricsCollector:
    """A run's warmup and two logs: the network opens each packet in
    ``records`` and whoever decides its fate settles it there, and the radio
    appends each control frame to ``control_log``."""

    def __init__(self, warmup_ticks: int) -> None:
        self.warmup_ticks = warmup_ticks
        self.records = PacketLog()
        self.control_log = ControlLog()

    def close(self, held) -> None:
        """Give the end-of-run fate to the packets nodes still hold.

        Any other unresolved packet leaked, and assert_conserved aborts.
        """
        for pkt in held:
            if pkt.fate is None:
                self.records.settle(pkt, IN_FLIGHT)

    def assert_conserved(self) -> None:
        """Every created packet has exactly one fate, per direction."""
        unresolved = Counter(p.direction for p in self.records.live.values())
        if unresolved:
            direction, n = min(unresolved.items())
            raise SimulationError(
                f"packet conservation violated for {direction}: "
                f"{n} created without a fate")


def pdr(records: Iterable[PacketRecord], direction: str,
        warmup_ticks: int) -> float | None:
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


def avg_delay(records: Iterable[PacketRecord], direction: str,
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


def _fixed(digits: int, scale: float = 1.0):
    """A formatter to digits decimals after scaling; None is an empty cell."""
    return lambda value: "" if value is None else f"{value * scale:.{digits}f}"


def csv_column(fmt=str, name: str | None = None):
    """A report field's CSV cell: its formatter, under name or the field's."""
    return field(metadata={"csv": (name, fmt)})


@dataclass(frozen=True)
class MetricsReport:
    """Summary of one run; one CSV row, its columns in field order."""

    cfg_id: str = csv_column()
    backend: str = csv_column()
    node_count: int = csv_column()
    distance: float | None = csv_column(_fixed(1))
    seed: int = csv_column()
    pdr_up: float | None = csv_column(_fixed(6))
    pdr_down: float | None = csv_column(_fixed(6))
    delay_up_s: float | None = csv_column(_fixed(3, 1e3), "delay_up_ms")
    delay_down_s: float | None = csv_column(_fixed(3, 1e3), "delay_down_ms")
    overhead_bps: float = csv_column(_fixed(3))
    up_created: int = csv_column()
    up_delivered: int = csv_column()
    down_created: int = csv_column()
    down_delivered: int = csv_column()
    mac_drop: int = csv_column()
    no_route: int = csv_column()
    discovery_timeout: int = csv_column()
    buffer_overflow: int = csv_column()
    in_flight: int = csv_column()


_CSV = [(f.name, *f.metadata["csv"]) for f in fields(MetricsReport)]
CSV_COLUMNS = tuple(name or attr for attr, name, _ in _CSV)


def report_row(report: MetricsReport) -> list[str]:
    return [fmt(getattr(report, attr)) for attr, _, fmt in _CSV]


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
