"""Topology generation, traffic schedules, config validation, INI loading."""
from __future__ import annotations

import csv
import gc
import math
import random
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llnsim import cli
from llnsim.experiment import write_csv
from llnsim.kernel import SimulationError, draw_uniform, to_ticks
from llnsim.metrics import DELIVERED, DOWN, UP, report_row
from llnsim.network import Network
from llnsim.radio import MacParams, Position, RadioParams
from llnsim.scenario import (MAX_DURATION, ConfigError, CtpParams,
                             LoadngParams, RplParams, ScenarioConfig,
                             TrafficProfile, build_traffic_schedule,
                             generate_topology, load_scenario)

from conftest import bfs_hops, chain_positions, inject, quiet_cfg


def test_same_seed_reproduces_the_layout():
    cfg = ScenarioConfig(node_count=20, seed=11)
    a = generate_topology(cfg, random.Random("11/topo"))
    b = generate_topology(cfg, random.Random("11/topo"))
    assert a == b
    c = generate_topology(cfg, random.Random("12/topo"))
    assert a != c


def test_grid_layout_is_centered_bounded_and_connected():
    cfg = ScenarioConfig(node_count=20, seed=5)
    pos = generate_topology(cfg, random.Random("5/topo"))
    assert pos[0] == Position(500.0, 500.0)
    assert all(0.0 <= p.x <= 1000.0 and 0.0 <= p.y <= 1000.0
               for p in pos.values())
    assert len(bfs_hops(pos, cfg.radio)) == 20


def _placed_by_full_bfs(cfg, rng):
    """Grid placement with a whole-graph BFS on every pass, as the oracle."""
    side = cfg.grid_side
    pos = {0: Position(side / 2, side / 2)}
    for a in range(1, cfg.node_count):
        pos[a] = Position(rng.uniform(0, side), rng.uniform(0, side))
    passes = 0
    while True:
        reached = bfs_hops(pos, cfg.radio)
        stranded = [a for a in pos if a not in reached]
        if not stranded:
            return pos, passes
        passes += 1
        for a in stranded:
            pos[a] = Position(rng.uniform(0, side), rng.uniform(0, side))


def test_grid_placement_equals_a_full_bfs_on_every_pass():
    resampled = 0
    for n in (10, 30, 60):
        for range_m in (150.0, 250.0):
            for seed in range(1, 11):
                cfg = ScenarioConfig(node_count=n, seed=seed,
                                     radio=RadioParams(range_m=range_m))
                want, passes = _placed_by_full_bfs(
                    cfg, random.Random(f"{seed}/topo"))
                got = generate_topology(cfg, random.Random(f"{seed}/topo"))
                assert got == want, (n, range_m, seed)
                resampled += passes > 0
    assert resampled >= 40  # most of these layouts strand a node at first


def test_line_layout_spans_the_concentrator_distance_evenly():
    cfg = ScenarioConfig(node_count=4, topology="distance-line",
                         concentrator_distance=300.0)
    pos = generate_topology(cfg, random.Random("1/topo"))
    assert pos[0].distance_to(pos[3]) == pytest.approx(300.0)
    assert len({p.y for p in pos.values()}) == 1
    gaps = [pos[i].distance_to(pos[i + 1]) for i in range(3)]
    assert all(g == pytest.approx(100.0) for g in gaps)


def test_two_node_line_at_fifty_meters_is_one_hop():
    cfg = quiet_cfg(node_count=2, topology="distance-line",
                    concentrator_distance=50.0, duration=30.0, warmup=0.0)
    net = Network(cfg)
    inject(net, 1.0, 1, 0, 512, UP, "report")
    result = net.run()
    rec = result.metrics.records[0]
    assert rec.fate == DELIVERED
    assert rec.hops == 1


def test_every_delivered_report_draws_exactly_one_ack():
    cfg = quiet_cfg(node_count=3, duration=400.0, warmup=0.0,
                    traffic_enabled=True)
    net = Network(cfg, chain_positions(3))
    result = net.run()
    records = result.metrics.records
    reports = [p for p in records if p.kind == "report" and p.fate == DELIVERED]
    down_acks = [p for p in records if p.kind == "ack" and p.direction == DOWN]
    assert len(down_acks) == len(reports)
    assert all(p.payload_bytes == 12 for p in down_acks)
    assert sorted(p.created_at for p in down_acks) == \
           sorted(p.delivered_at for p in reports)
    # and symmetrically: every delivered downward frame draws a client ack
    down_delivered = [p for p in records
                      if p.direction == DOWN and p.fate == DELIVERED]
    up_acks = [p for p in records if p.kind == "ack" and p.direction == UP]
    assert len(up_acks) == len(down_delivered)
    assert all(p.payload_bytes == 16 for p in up_acks)


def test_schedule_is_pure_and_backend_independent():
    cfg = ScenarioConfig(node_count=5, duration=3600.0)
    base = build_traffic_schedule(cfg, random.Random("9/traffic")).streams
    again = build_traffic_schedule(cfg, random.Random("9/traffic")).streams
    assert base == again
    for backend in ("loadng", "loadng-ctp", "rpl"):
        alt = build_traffic_schedule(replace(cfg, backend=backend),
                                     random.Random("9/traffic")).streams
        assert alt == base
    other = build_traffic_schedule(cfg, random.Random("10/traffic")).streams
    assert other != base


def test_eight_hour_run_schedules_480_reports_and_96_configs_per_client():
    cfg = ScenarioConfig(node_count=2, duration=28800.0)
    schedule = build_traffic_schedule(cfg, random.Random("3/traffic"))
    # the streams come in (src, dst) order: the concentrator's pushes first
    config, report = schedule.streams
    assert (report.kind, report.src, report.dst) == ("report", 1, 0)
    assert (config.kind, config.src, config.dst) == ("config", 0, 1)
    reports = list(report.times(cfg.duration))
    configs = list(config.times(cfg.duration))
    assert len(reports) == 480
    assert len(configs) == 96
    assert len(schedule) == 480 + 96
    assert all(to_ticks(t) < to_ticks(28800.0) for t in reports + configs)


def test_disabled_traffic_schedules_nothing():
    cfg = ScenarioConfig(traffic_enabled=False)
    schedule = build_traffic_schedule(cfg, random.Random("1/traffic"))
    assert schedule.streams == ()
    assert len(schedule) == 0


def _eager_schedule(cfg, rng):
    """The schedule built whole: every send in stream order, then a stable sort.

    A send is (tick, src, dst, payload, direction, kind)."""
    sends = []
    traffic = cfg.traffic
    for period, payload, direction, kind in (
            (traffic.report_period, traffic.report_bytes, UP, "report"),
            (traffic.config_period, traffic.config_bytes, DOWN, "config")):
        for client in range(1, cfg.node_count):
            src, dst = (client, 0) if direction == UP else (0, client)
            t = draw_uniform(rng, 0.0, period)
            while t < cfg.duration:
                sends.append((to_ticks(t), src, dst, payload, direction, kind))
                t += period
    sends.sort(key=lambda s: s[:3])
    return sends


@given(node_count=st.integers(2, 12),
       # periods under a microsecond put several sends of a stream on one tick
       period=st.one_of(st.floats(1e-7, 1e-6), st.floats(1e-6, 100.0)),
       config_ratio=st.floats(0.2, 5.0),
       periods_per_run=st.floats(0.01, 40.0),
       seed=st.integers(0, 2**16))
# about a third of the draws are runs under one tick, which are rejected
@settings(max_examples=120)
def test_generated_schedule_equals_the_sorted_schedule(
        node_count, period, config_ratio, periods_per_run, seed):
    cfg = ScenarioConfig(
        node_count=node_count, duration=period * periods_per_run, warmup=0.0,
        seed=seed, traffic=TrafficProfile(report_period=period,
                                          config_period=period * config_ratio))
    if to_ticks(cfg.duration) == 0:
        # a run shorter than one tick has no measurement window to report
        with pytest.raises(ConfigError):
            Network(cfg, chain_positions(node_count))
        return
    net = Network(cfg, chain_positions(node_count))
    sends = []
    # the run hands its sends over, nothing more
    net.app_send = lambda *send: sends.append((net.sim.now, *send))
    # the traffic part of run(), without the engines or the report
    net._start_traffic()
    net.sim.run_until(net.end_ticks)
    assert sends == _eager_schedule(cfg, random.Random(f"{seed}/traffic"))
    assert len(net.schedule) == len(sends)


def test_a_run_holds_one_pending_send_per_stream():
    cfg = ScenarioConfig(node_count=4, duration=3600.0)
    net = Network(cfg, chain_positions(4))
    pending = []
    net.app_send = lambda *send: pending.append(net.sim.pending())
    net.run()
    # the loadng engines schedule nothing unprompted, so only sends are queued
    assert len(pending) == len(net.schedule)
    assert max(pending) == len(net.schedule.streams) == 6
    assert pending[-1] == 0


def _build_peak_bytes(duration: float) -> int:
    """tracemalloc peak while a 60-node rpl network is built and its sends counted."""
    cfg = ScenarioConfig(backend="rpl", node_count=60, duration=duration)
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(cfg)
        len(net.schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_building_an_eight_hour_run_costs_what_half_an_hour_does():
    _build_peak_bytes(1800.0)  # the first build fills caches every build shares
    short = _build_peak_bytes(1800.0)
    long = _build_peak_bytes(28800.0)
    assert long - short <= 64 * 1024


def test_pending_events_stay_bounded_through_a_long_run():
    cfg = ScenarioConfig(backend="rpl", node_count=20, duration=7200.0)
    net = Network(cfg)
    samples = []

    def probe():
        samples.append(net.sim.pending())
        net.sim.schedule_at(net.sim.now + to_ticks(60.0), probe)
    net.sim.schedule_at(0, probe)
    net.run()
    assert len(samples) == 121  # every minute, both ends included
    assert max(samples) <= 20 * cfg.node_count


@pytest.mark.parametrize("bad", [
    dict(node_count=1),
    dict(backend="olsr"),
    dict(topology="ring"),
    dict(duration=0.0),
    dict(warmup=28800.0),
    dict(grid_side=-1.0),
    dict(topology="distance-line", node_count=2, concentrator_distance=500.0),
    dict(removals=((10.0, 99),)),
    dict(removals=((-1.0, 1),)),
    dict(radio=RadioParams(p_edge=1.5)),
    dict(ctp=CtpParams(rreq_max_jitter=1.0, hello_min_jitter=1.5)),
    dict(removals=((10.0, 0),)),  # the concentrator is never removed
    # windows that round to no whole microsecond tick
    dict(node_count=2, duration=60.0000004, warmup=60.0),
    dict(duration=1e-7, warmup=0.0),
])
def test_invalid_configurations_are_rejected(bad):
    with pytest.raises(ConfigError):
        ScenarioConfig(**bad).validate()


def test_node_count_stops_below_the_broadcast_address():
    # a node numbered 0xFFFF would receive every broadcast frame as its own
    with pytest.raises(ConfigError, match="node_count"):
        ScenarioConfig(node_count=0x10000).validate()
    ScenarioConfig(node_count=0xFFFF).validate()


def test_duration_stops_below_2_62_ticks():
    # the sealed logs store tick differences, which fit in 64 bits only
    # while every tick lies below 2**62
    assert to_ticks(MAX_DURATION) < 2**62
    for below in (math.nextafter(MAX_DURATION, 0), MAX_DURATION):
        ScenarioConfig(duration=below).validate()
    for above in (math.nextafter(MAX_DURATION, math.inf), 2**62 / 1e6):
        with pytest.raises(ConfigError, match="duration"):
            ScenarioConfig(duration=above).validate()


def test_jitter_rule_boundary_is_strict():
    with pytest.raises(ConfigError):
        # equality is still too tight: a maximally late re-broadcast would tie
        ScenarioConfig(ctp=CtpParams(rreq_max_jitter=1.0,
                                     hello_min_jitter=2.0)).validate()
    ScenarioConfig(ctp=CtpParams(rreq_max_jitter=1.0,
                                 hello_min_jitter=2.000001)).validate()


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[scenario]\n"
        "backend = rpl\n"
        "node_count = 7\n"
        "duration = 120.0\n"
        "warmup = 10.0\n"
        "seed = 4\n"
        "removals = 60:3, 90:5\n"
        "[radio]\n"
        "p_edge = 1.0\n"
        "[rpl]\n"
        "dao_interval = 20.0\n"
        "[sweep]\n"
        "seeds = 3\n")
    cfg, sweep = load_scenario(str(path))
    assert cfg.backend == "rpl"
    assert cfg.node_count == 7
    assert cfg.duration == 120.0
    assert cfg.removals == ((60.0, 3), (90.0, 5))
    assert cfg.radio.p_edge == 1.0
    assert cfg.rpl.dao_interval == 20.0
    assert cfg.rpl.dis_interval == 5.0  # untouched keys keep their defaults
    assert sweep == {"seeds": "3"}


def test_scenario_file_rejects_unknown_names(tmp_path):
    for text in ("[scenario]\nnode_cunt = 7\n",
                 "[rpll]\ndao_interval = 1\n",
                 "[scenario]\nremovals = sixty:3\n",
                 # a nested section's name and a method name are not keys
                 "[scenario]\nradio = 1\n",
                 "[radio]\nvalidate = 3\n"):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_scenario(str(path))
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.ini"))


@pytest.mark.parametrize("text, argv", [
    ("[traffic]\nreport_period = nan\n", []),
    ("[scenario]\nduration = inf\n", []),
    ("[loadng]\nrreq_jitter_max = nan\n", []),
    ("[scenario]\nremovals = nan:3\n", []),
    ("", ["--duration", "nan"]),
], ids=["report_period", "duration", "rreq_jitter_max", "removals", "cli-duration"])
def test_non_finite_values_are_rejected(tmp_path, capsys, text, argv):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert cli.main(["--scenario", str(path), "--quiet", *argv]) == cli.EXIT_BAD_CONFIG
    assert "configuration error:" in capsys.readouterr().err


def test_every_numeric_knob_declares_its_bounds():
    # a knob without bounds would accept nan, inf and out-of-range values
    unchecked = {("ScenarioConfig", "seed"),
                 ("ScenarioConfig", "concentrator_distance")}  # line layouts only
    for cls in (RadioParams, MacParams, LoadngParams, CtpParams, RplParams,
                TrafficProfile, ScenarioConfig):
        for f in fields(cls):
            if type(getattr(cls(), f.name)) not in (int, float):
                continue
            if (cls.__name__, f.name) in unchecked:
                assert "bounds" not in f.metadata
                continue
            assert "bounds" in f.metadata, f"{cls.__name__}.{f.name}"
            with pytest.raises(ConfigError, match=f.name):
                replace(cls(), **{f.name: math.nan}).validate()


def test_readme_scenario_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(example)
    cfg, sweep = load_scenario(str(path))
    assert cfg.removals == ((600.0, 7), (900.0, 12))
    assert sweep["seeds"] == "10"


def test_cfg_id_groups_seeds_and_splits_configs():
    base = ScenarioConfig(node_count=20)
    assert base.cfg_id() == replace(base, seed=99).cfg_id()
    assert base.cfg_id() != replace(base, node_count=21).cfg_id()
    assert base.cfg_id() != replace(base, backend="rpl").cfg_id()


@pytest.mark.parametrize("traffic", [True, False])
def test_a_network_runs_only_once(traffic, tmp_path):
    net = Network(ScenarioConfig(backend="rpl", node_count=10, duration=300.0,
                                 traffic_enabled=traffic))
    # a finished run is its network, with the report set
    assert net.run() is net
    path = tmp_path / "run.csv"
    write_csv(str(path), [net.report])
    with open(path, newline="") as fh:
        written = list(csv.reader(fh))[1]
    assert report_row(net.report) == written
    state = (net.sim.now, net.sim.pending(), len(net.metrics.records),
             len(net.metrics.control_log))
    # a second call would restart every timer from a clock already at the end
    with pytest.raises(SimulationError, match="network already ran"):
        net.run()
    assert (net.sim.now, net.sim.pending(), len(net.metrics.records),
            len(net.metrics.control_log)) == state
