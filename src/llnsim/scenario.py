"""Scenario configuration: parameter sets, topology layout, traffic schedule.

Every default below equals the baseline measurement campaign values, so an
empty scenario file reproduces the reference setup: 1000 m x 1000 m field,
250 m radio range, 512-byte meter reports every 60 s upward, per-arrival
acks plus 61-byte config pushes every 300 s downward.
"""
from __future__ import annotations

import configparser
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

from .kernel import (MAX_DURATION, Checked, ConfigError, bounded,
                     draw_uniform, seconds, to_ticks)
from .messages import BROADCAST
from .metrics import DOWN, UP, config_digest
from .radio import MacParams, Position, RadioParams, reception_probability

BACKENDS = ("loadng", "loadng-ctp", "rpl")
TOPOLOGIES = ("random-grid", "distance-line")

CONCENTRATOR = 0  # the collection point always has address 0

# relay spacing that keeps a line topology connected with margin at 250 m range
MAX_LINE_SPACING = 200.0

MAX_PLACEMENT_RESAMPLES = 1000


@dataclass(frozen=True)
class LoadngParams(Checked):
    rreq_jitter_max: float = seconds(0.5)  # flood desync per hop
    route_lifetime: float = seconds(15.0, strict=True)  # how long a tuple lives unused
    net_traversal_time: float = seconds(10.0, strict=True)  # discovery timeout, no retry
    buffer_capacity: int = bounded(4, 1)  # packets held per destination in discovery


@dataclass(frozen=True)
class CtpParams(Checked):
    net_traversal_time: float = seconds(10.0, strict=True)  # build flood fires at twice this
    rreq_max_jitter: float = seconds(1.0, strict=True)
    hello_min_jitter: float = seconds(3.0, strict=True)
    hello_max_jitter: float = seconds(5.0, strict=True)
    rrep_required: bool = True  # build flood asks every node to report its path
    rebuild_interval: float = seconds(0.0)  # 0 disables periodic re-triggering

    def validate(self) -> None:
        super().validate()
        if self.hello_min_jitter <= 2 * self.rreq_max_jitter:
            # HELLOs must fire after every trigger re-broadcast could have;
            # otherwise the neighbor lists miss late re-broadcasters
            raise ConfigError(
                "hello_min_jitter must exceed twice rreq_max_jitter "
                f"({self.hello_min_jitter} <= 2 * {self.rreq_max_jitter})")
        if self.hello_max_jitter < self.hello_min_jitter:
            raise ConfigError("hello_max_jitter must be >= hello_min_jitter")


@dataclass(frozen=True)
class RplParams(Checked):
    dio_interval_min: float = seconds(2.0, strict=True)  # trickle Imin
    dio_interval_doublings: int = bounded(20, 0, hi=255)  # an 8-bit field (RFC 6550)
    dio_redundancy_constant: int = bounded(1, 1)
    dao_interval: float = seconds(15.0, strict=True)
    dis_interval: float = seconds(5.0, strict=True)  # unjoined nodes solicit this often
    buffer_capacity: int = bounded(4, 1)  # upward packets held until the node joins


@dataclass(frozen=True)
class TrafficProfile(Checked):
    # payload sizes fit the IPv6 payload length field (RFC 8200)
    report_bytes: int = bounded(512, 0, strict=True, hi=0xFFFF)
    report_period: float = seconds(60.0, strict=True)
    # the client's ack per downward frame, the concentrator's per report
    upward_ack_bytes: int = bounded(16, 0, strict=True, hi=0xFFFF)
    downward_ack_bytes: int = bounded(12, 0, strict=True, hi=0xFFFF)
    config_bytes: int = bounded(61, 0, strict=True, hi=0xFFFF)
    config_period: float = seconds(300.0, strict=True)


@dataclass(frozen=True)
class ScenarioConfig(Checked):
    backend: str = "loadng"
    node_count: int = bounded(20, 2, hi=BROADCAST)
    topology: str = "random-grid"
    grid_side: float = bounded(1000.0, 0, strict=True)
    concentrator_distance: float = 250.0  # used by distance-line layouts
    duration: float = seconds(28800.0, strict=True)  # the baseline campaign length
    warmup: float = seconds(120.0)  # metrics ignore packets created before this
    seed: int = 1
    traffic_enabled: bool = True
    removals: tuple[tuple[float, int], ...] = ()  # scripted (time_s, addr) failures
    radio: RadioParams = field(default_factory=RadioParams)
    mac: MacParams = field(default_factory=MacParams)
    loadng: LoadngParams = field(default_factory=LoadngParams)
    ctp: CtpParams = field(default_factory=CtpParams)
    rpl: RplParams = field(default_factory=RplParams)
    traffic: TrafficProfile = field(default_factory=TrafficProfile)

    def validate(self) -> None:
        super().validate()
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; "
                              f"expected one of {BACKENDS}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}; "
                              f"expected one of {TOPOLOGIES}")
        if to_ticks(self.duration) <= to_ticks(self.warmup):
            # the clock counts whole microseconds: a shorter window is empty
            raise ConfigError("warmup must end at least one microsecond "
                              "tick before duration")
        if self.topology == "distance-line":
            if not 0 < self.concentrator_distance <= self.grid_side:
                raise ConfigError("concentrator_distance must lie in (0, grid_side]")
            spacing = self.concentrator_distance / (self.node_count - 1)
            if spacing > MAX_LINE_SPACING:
                raise ConfigError(
                    f"line spacing {spacing:.0f} m exceeds {MAX_LINE_SPACING:.0f} m; "
                    "raise node_count to keep the line connected")
        for time_s, addr in self.removals:
            if not 0 <= time_s <= MAX_DURATION or not 0 < addr < self.node_count:
                raise ConfigError(f"bad removal entry ({time_s}, {addr})")

    def cfg_id(self) -> str:
        """Digest over everything except the seed, so repeat runs group together."""
        parts = []
        for f in fields(self):
            if f.name == "seed":
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return config_digest(";".join(parts))


def generate_topology(cfg: ScenarioConfig, rng: random.Random) -> dict[int, Position]:
    """Node placements for one run; the concentrator is always address 0."""
    if cfg.topology == "distance-line":
        return _line_topology(cfg)
    return _grid_topology(cfg, rng)


def _line_topology(cfg: ScenarioConfig) -> dict[int, Position]:
    span = cfg.concentrator_distance
    spacing = span / (cfg.node_count - 1)
    x0 = (cfg.grid_side - span) / 2
    y = cfg.grid_side / 2
    positions = {CONCENTRATOR: Position(x0, y)}
    for i in range(1, cfg.node_count):
        positions[i] = Position(x0 + i * spacing, y)
    return positions


def _grid_topology(cfg: ScenarioConfig, rng: random.Random) -> dict[int, Position]:
    side = cfg.grid_side
    positions = {CONCENTRATOR: Position(side / 2, side / 2)}
    for i in range(1, cfg.node_count):
        positions[i] = Position(rng.uniform(0, side), rng.uniform(0, side))
    # a reached node keeps its place and so its path: each pass asks only
    # which of the re-placed nodes now join the reached set
    reached = {CONCENTRATOR}
    resamples = 0
    while True:
        stranded = _grow_reached(positions, cfg.radio, reached)
        if not stranded:
            return positions
        resamples += len(stranded)
        if resamples > MAX_PLACEMENT_RESAMPLES:
            raise ConfigError(
                f"could not place {cfg.node_count} connected nodes within "
                f"{MAX_PLACEMENT_RESAMPLES} resamples; widen the radio range "
                "or raise node_count")
        for addr in stranded:
            positions[addr] = Position(rng.uniform(0, side), rng.uniform(0, side))


def _grow_reached(positions: dict[int, Position], radio: RadioParams,
                  reached: set[int]) -> list[int]:
    """Grow reached by every address linked into it; return the rest, in order."""
    stranded = [a for a in positions if a not in reached]
    frontier = deque(reached)
    while frontier and stranded:
        pos = positions[frontier.popleft()]
        joined = [a for a in stranded if reception_probability(
            pos.distance_to(positions[a]), radio) > 0]
        if joined:
            reached.update(joined)
            frontier.extend(joined)
            stranded = [a for a in stranded if a not in reached]
    return stranded


@dataclass(frozen=True, slots=True)
class TrafficStream:
    """One client's periodic sends: the first at `first` seconds, then every `period`."""

    first: float
    period: float
    src: int
    dst: int
    payload_bytes: int
    direction: str
    kind: str

    def times(self, duration: float) -> Iterator[float]:
        # repeated addition, not first + k * period: the rounding of the
        # running sum decides each tick, and a run is defined by these ticks
        t = self.first
        while t < duration:
            yield t
            t += self.period


@dataclass(frozen=True)
class TrafficSchedule:
    """A run's periodic sends, one stream per client and direction.

    The streams are sorted by (src, dst): sends due on the same tick go out
    in that order.  len() counts the sends without building any.
    """

    streams: tuple[TrafficStream, ...]
    duration: float

    def __len__(self) -> int:
        return sum(sum(1 for _ in s.times(self.duration)) for s in self.streams)


def build_traffic_schedule(cfg: ScenarioConfig,
                           rng: random.Random) -> TrafficSchedule:
    """Periodic sends for the whole run; a pure function of (cfg, seed).

    Only the periodic reports and config pushes appear here; the per-arrival
    acks are reactive and are generated when deliveries happen.
    """
    if not cfg.traffic_enabled:
        return TrafficSchedule((), cfg.duration)
    streams: list[TrafficStream] = []
    traffic = cfg.traffic
    # every client's report phase is drawn before any config phase
    for period, payload, direction, kind in (
            (traffic.report_period, traffic.report_bytes, UP, "report"),
            (traffic.config_period, traffic.config_bytes, DOWN, "config")):
        for client in range(1, cfg.node_count):
            src, dst = ((client, CONCENTRATOR) if direction == UP
                        else (CONCENTRATOR, client))
            streams.append(TrafficStream(draw_uniform(rng, 0.0, period), period,
                                         src, dst, payload, direction, kind))
    streams.sort(key=lambda s: (s.src, s.dst))
    return TrafficSchedule(tuple(streams), cfg.duration)


# ---------------------------------------------------------------------------
# scenario file loading: flat INI sections, every key optional


def _load_section(parser: configparser.ConfigParser, section: str, params):
    """params with the section's keys applied; nested parameter sets are not keys."""
    if not parser.has_section(section):
        return params
    known = {f.name for f in fields(params)
             if not isinstance(getattr(params, f.name), Checked)}
    updates = {}
    for key in parser.options(section):
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        default = getattr(params, key)
        try:
            if isinstance(default, tuple):
                updates[key] = _parse_removals(parser.get(section, key))
            elif isinstance(default, bool):
                updates[key] = parser.getboolean(section, key)
            elif isinstance(default, int):
                updates[key] = parser.getint(section, key)
            elif isinstance(default, float):
                updates[key] = parser.getfloat(section, key)
            else:
                updates[key] = parser.get(section, key)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return replace(params, **updates)


def _parse_removals(text: str) -> tuple[tuple[float, int], ...]:
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            time_s, addr = part.split(":")
            entries.append((float(time_s), int(addr)))
        except ValueError:
            raise ConfigError(
                f"bad removals entry {part!r}; expected time:addr") from None
    return tuple(entries)


def load_scenario(path: str) -> tuple[ScenarioConfig, dict]:
    """Parse a scenario file; returns (config, sweep-section key/values)."""
    # plain INI: a value is taken as written, with no % interpolation, and a
    # [DEFAULT] section is refused as unknown, since no header can name ""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file is not UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None

    cfg = ScenarioConfig()
    nested = [f.name for f in fields(cfg) if isinstance(getattr(cfg, f.name), Checked)]
    for section in parser.sections():
        if section not in {*nested, "scenario", "sweep"}:
            raise ConfigError(f"unknown section [{section}]")
    cfg = _load_section(parser, "scenario", cfg)
    cfg = replace(cfg, **{name: _load_section(parser, name, getattr(cfg, name))
                          for name in nested})

    sweep = dict(parser.items("sweep")) if parser.has_section("sweep") else {}
    cfg.validate()
    return cfg, sweep
