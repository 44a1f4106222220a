"""Release gate: the full desk-scale measurement campaign, end to end.

Each check prints one PASS/FAIL line to the live terminal stream so a full
run reads as a checklist even under output capture; the assertion carries
the same condition.
"""
from __future__ import annotations

import statistics
import time

import pytest

from llnsim.experiment import expand_sweep, write_csv
from llnsim.kernel import to_ticks
from llnsim.loadng import SYM
from llnsim.metrics import DELIVERED, DOWN, report_row
from llnsim.network import Network
from llnsim.radio import Position
from llnsim.scenario import ConfigError, ScenarioConfig, load_scenario

from conftest import (CALM_CTP, CALM_LOADNG, CALM_RPL, CAMPAIGNS, bfs_hops,
                      chain_positions, control_rows, inject, quiet_cfg,
                      random_connected_positions, root_ticks, tree_rreps)

BACKENDS = ("loadng", "loadng-ctp", "rpl")
GRID_COUNTS = (20, 40, 60)
GRID_SEEDS = 10


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    """Let _check write through pytest's capture to the real terminal."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


def _collect(configs):
    """Run configs sequentially, keeping only the summary reports."""
    reports = []
    for cfg in configs:
        result = Network(cfg).run()
        result.metrics.assert_conserved()
        reports.append(result.report)
        del result
    return reports


# the gate measures the published campaign files themselves, so the two
# cannot drift apart
@pytest.fixture(scope="module")
def grid():
    configs = expand_sweep(*load_scenario(str(CAMPAIGNS / "grid.ini")))
    start = time.perf_counter()
    reports = _collect(configs)
    wall = time.perf_counter() - start
    return {"reports": reports, "wall": wall}


@pytest.fixture(scope="module")
def distance_line():
    return _collect(expand_sweep(*load_scenario(str(CAMPAIGNS / "distance.ini"))))


def _mean(reports, attr, backend, **match):
    values = [getattr(r, attr) for r in reports
              if r.backend == backend
              and all(getattr(r, k) == v for k, v in match.items())]
    assert len(values) == GRID_SEEDS
    assert all(v is not None for v in values)
    return statistics.fmean(values)


def test_criterion_01_grid_completes_inside_five_minutes(grid):
    runs = len(grid["reports"])
    _check(1, "3 backends x {20,40,60} nodes x 10 seeds x 30 min in < 5 min wall",
           runs == len(BACKENDS) * len(GRID_COUNTS) * GRID_SEEDS
           and grid["wall"] < 300.0,
           f"{runs} runs in {grid['wall']:.1f} s")


def test_criterion_02_pdr_ordering_and_degradation(grid):
    up = {(b, n): _mean(grid["reports"], "pdr_up", b, node_count=n)
          for b in BACKENDS for n in GRID_COUNTS}
    ok = (up[("rpl", 60)] >= 0.99
          and up[("loadng-ctp", 60)] >= 0.99
          and up[("loadng", 60)] <= up[("rpl", 60)] - 0.02
          and up[("loadng", 60)] <= up[("loadng-ctp", 60)] - 0.02
          and up[("loadng", 60)] < up[("loadng", 20)])
    _check(2, "upward PDR: trees >= 0.99 at 60 nodes, reactive lower by >= 0.02 "
              "and degrading with size", ok,
           f"rpl={up[('rpl', 60)]:.4f} ctp={up[('loadng-ctp', 60)]:.4f} "
           f"loadng={up[('loadng', 60)]:.4f} loadng@20={up[('loadng', 20)]:.4f}")


def test_criterion_03_delay_ratios_at_sixty_nodes(grid):
    delay = {b: _mean(grid["reports"], "delay_up_s", b, node_count=60)
             for b in BACKENDS}
    ok = (delay["loadng"] >= 2.5 * delay["loadng-ctp"]
          and delay["loadng"] >= 2.5 * delay["rpl"]
          and delay["loadng-ctp"] <= 1.2 * delay["rpl"])
    _check(3, "upward delay at 60 nodes: reactive >= 2.5x both trees, "
              "collection tree <= 1.2x proactive", ok,
           f"loadng={delay['loadng'] * 1e3:.1f}ms "
           f"ctp={delay['loadng-ctp'] * 1e3:.1f}ms "
           f"rpl={delay['rpl'] * 1e3:.1f}ms")


def test_criterion_04_collection_tree_has_lowest_overhead(grid):
    rate = {(b, n): _mean(grid["reports"], "overhead_bps", b, node_count=n)
            for b in BACKENDS for n in GRID_COUNTS}
    ok = all(rate[("loadng-ctp", n)] < rate[("loadng", n)]
             and rate[("loadng-ctp", n)] < rate[("rpl", n)]
             for n in GRID_COUNTS)
    _check(4, "control overhead: loadng-ctp lowest at every node count", ok,
           " ".join(f"n={n}: "
                    f"{rate[('loadng-ctp', n)]:.0f}<{rate[('loadng', n)]:.0f}"
                    f"/{rate[('rpl', n)]:.0f}" for n in GRID_COUNTS))


def test_criterion_05_distance_line_pdr(distance_line):
    up = {(b, d): _mean(distance_line, "pdr_up", b, distance=d)
          for b in BACKENDS for d in (50.0, 250.0, 500.0)}
    down = {(b, d): _mean(distance_line, "pdr_down", b, distance=d)
            for b in BACKENDS for d in (50.0, 250.0, 500.0)}
    trees_ok = all(up[(b, d)] >= 0.99 and down[(b, d)] >= 0.99
                   for b in ("rpl", "loadng-ctp")
                   for d in (50.0, 250.0, 500.0))
    ok = trees_ok and up[("loadng", 500.0)] < up[("loadng", 50.0)]
    _check(5, "distance line 50/250/500 m: trees >= 0.99 everywhere, "
              "reactive worse at 500 than 50", ok,
           f"loadng@50={up[('loadng', 50.0)]:.4f} "
           f"loadng@500={up[('loadng', 500.0)]:.4f}")


def _oracle_graphs():
    for seed in range(1, 11):
        positions = random_connected_positions(15, seed)
        yield seed, positions, bfs_hops(positions, quiet_cfg().radio, 0)


def test_criterion_06a_reactive_metrics_equal_bfs():
    ok = True
    for seed, positions, oracle in _oracle_graphs():
        cfg = quiet_cfg(node_count=15, duration=950.0, warmup=0.0, seed=seed,
                        loadng=CALM_LOADNG)
        net = Network(cfg, positions)
        for k in range(1, 15):
            inject(net, 5.0 + 65.0 * (k - 1), 0, k, 61, DOWN, "config")
        result = net.run()
        ok = ok and all(p.fate == DELIVERED for p in result.metrics.records)
        for k in range(1, 15):
            ok = ok and net.nodes[0].routes.get(k).metric == oracle[k]
    _check(6, "(a) lossless reactive route metrics equal BFS hop distance "
              "on 10 random 15-node graphs", ok)


def test_criterion_06b_collection_tree_equals_bfs_and_is_acyclic():
    ok = True
    for seed, positions, oracle in _oracle_graphs():
        cfg = quiet_cfg(backend="loadng-ctp", node_count=15, duration=150.0,
                        warmup=0.0, seed=seed, ctp=CALM_CTP)
        net = Network(cfg, positions)
        net.run()
        for addr in range(1, 15):
            tup = net.nodes[addr].routes.get(0)
            ok = ok and tup is not None and tup.metric == oracle[addr]
            walked, at = [], addr
            while at != 0 and ok:
                ok = at not in walked
                walked.append(at)
                step = net.nodes[at].routes.get(0)
                ok = ok and step is not None \
                    and net.nodes[at].neighbor_status.get(step.next_hop) == SYM
                if not ok:
                    break
                at = step.next_hop
            ok = ok and at == 0
    _check(6, "(b) lossless collection-tree metrics equal BFS and the parent "
              "walk reaches the root acyclically on 10 graphs", ok)


def test_criterion_06c_proactive_ranks_equal_bfs_plus_one():
    ok = True
    for seed, positions, oracle in _oracle_graphs():
        cfg = quiet_cfg(backend="rpl", node_count=15, duration=300.0,
                        warmup=0.0, seed=seed, rpl=CALM_RPL)
        net = Network(cfg, positions)
        net.run()
        for addr in range(15):
            ok = ok and net.nodes[addr].rank == oracle[addr] + 1
    _check(6, "(c) lossless proactive ranks equal BFS distance + 1 "
              "on 10 graphs", ok)


@pytest.fixture(scope="module")
def ctp_chains():
    runs = {}
    for n in (3, 5, 10):
        cfg = quiet_cfg(backend="loadng-ctp", node_count=n, duration=60.0,
                        warmup=0.0)
        net = Network(cfg, chain_positions(n))
        runs[n] = net.run()
    return runs


def test_criterion_07_tree_build_message_counts(ctp_chains):
    ok = True
    details = []
    for n, result in ctp_chains.items():
        triggers = len(control_rows(result, "rreq_trigger"))
        hellos = len(control_rows(result, "hello"))
        builds = len(control_rows(result, "rreq_build"))
        paths = tree_rreps(result)
        ok = ok and triggers == n and hellos <= n and builds == n \
            and paths == n - 1
        details.append(f"n={n}: {triggers}/{hellos}/{builds}/{paths}")
    _check(7, "lossless build: n triggers, <= n hellos, n builds, "
              "n-1 route reports for n in {3,5,10}",
           ok, " ".join(details))


def test_criterion_08_timer_laws(ctp_chains, tmp_path):
    result = ctp_chains[3]
    trigger = root_ticks(result, "rreq_trigger")
    build = root_ticks(result, "rreq_build")
    build_ok = (len(trigger) == 1 and len(build) == 1
                and abs((build[0] - trigger[0]) - 2 * to_ticks(10.0)) <= 1)

    ini = tmp_path / "tight.ini"
    ini.write_text("[ctp]\nrreq_max_jitter = 2.0\nhello_min_jitter = 4.0\n")
    try:
        load_scenario(str(ini))
        loader_ok = False
    except ConfigError:
        loader_ok = True

    cfg = quiet_cfg(backend="rpl", node_count=2, duration=30.0, warmup=0.0,
                    seed=3)
    net = Network(cfg, {0: Position(100.0, 100.0), 1: Position(900.0, 900.0)})
    run = net.run()
    dios = sorted(root_ticks(run, "dio"))[:3]
    windows = [(1.0, 2.0), (4.0, 6.0), (10.0, 14.0)]
    dio_ok = len(dios) == 3 and all(
        to_ticks(lo) <= t < to_ticks(hi)
        for t, (lo, hi) in zip(dios, windows))

    _check(8, "build flood at exactly 2x traversal time, loader rejects "
              "hello jitter <= 2x flood jitter, isolated root beacons "
              "at 2/4/8 s intervals",
           build_ok and loader_ok and dio_ok,
           f"build@{build[0] - trigger[0]}us "
           f"dios@{','.join(f'{t / 1e6:.2f}s' for t in dios)}")


def test_criterion_09_reruns_are_byte_identical(grid, tmp_path):
    configs = expand_sweep(
        ScenarioConfig(duration=1800.0),
        {"backend": ",".join(BACKENDS), "node_count": "20", "seeds": "2"})
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(str(first), _collect(configs))
    write_csv(str(second), _collect(configs))

    # independent re-executions must also reproduce the original grid rows
    grid_rows = {(r.cfg_id, r.seed): ",".join(report_row(r))
                 for r in grid["reports"]}
    fresh = {}
    for line in first.read_text().splitlines()[1:]:
        cells = line.split(",")
        fresh[(cells[0], int(cells[4]))] = line
    rows_ok = all(grid_rows[key] == line for key, line in fresh.items())

    _check(9, "same (config, seed) twice -> byte-identical CSV; "
              "conservation held on all grid runs",
           first.read_bytes() == second.read_bytes() and rows_ok
           and len(fresh) == 6,
           f"{len(grid['reports'])} conserved runs")


def test_criterion_10_traffic_free_signatures():
    base = dict(node_count=20, duration=600.0, warmup=0.0,
                traffic_enabled=False)
    quiet = {}
    for backend in BACKENDS:
        cfg = ScenarioConfig(backend=backend, **base)
        quiet[backend] = Network(cfg).run()
    loadng_silent = (quiet["loadng"].report.overhead_bps == 0.0
                     and len(quiet["loadng"].metrics.control_log) == 0)
    rpl_active = quiet["rpl"].report.overhead_bps > 0.0
    ctp_log = quiet["loadng-ctp"].metrics.control_log
    ctp_windowed = (quiet["loadng-ctp"].report.overhead_bps > 0.0
                    and max(row[0] for row in ctp_log) < to_ticks(30.0))
    _check(10, "zero traffic: reactive emits 0 bytes, proactive keeps "
               "beaconing, collection tree transmits only while building",
           loadng_silent and rpl_active and ctp_windowed,
           f"ctp last tx {max(row[0] for row in ctp_log) / 1e6:.1f}s")
