"""Tree construction: trigger, HELLO link vetting, build flood, tree RREPs."""
from __future__ import annotations

from llnsim.kernel import to_ticks
from llnsim.loadng import HEARD, SYM
from llnsim.messages import BROADCAST, MsgKind, RouteMsg
from llnsim.metrics import DELIVERED, DISCOVERY_TIMEOUT, NO_ROUTE, UP
from llnsim.network import Network
from llnsim.radio import Position
from llnsim.scenario import CtpParams

from conftest import (bfs_hops, chain_positions, control_rows, inject,
                      quiet_cfg, root_ticks, tree_rreps)


def _ctp_net(n=3, duration=60.0, seed=1, positions=None, **overrides):
    cfg = quiet_cfg(backend="loadng-ctp", node_count=n, duration=duration,
                    warmup=0.0, seed=seed, **overrides)
    return Network(cfg, positions if positions is not None
                   else chain_positions(n))


def test_lone_root_triggers_and_builds_into_silence():
    layout = {0: Position(100, 100), 1: Position(900, 900)}
    net = _ctp_net(2, positions=layout)
    result = net.run()
    assert len(control_rows(result, "rreq_trigger")) == 1
    assert len(control_rows(result, "rreq_build")) == 1
    assert len(control_rows(result, "hello")) == 1  # the root's own
    assert tree_rreps(result) == 0
    assert len(net.nodes[0].routes) == 0
    assert net.nodes[1].trigger_received is False


def test_build_fires_at_exactly_twice_the_traversal_time():
    net = _ctp_net()
    result = net.run()
    trigger = root_ticks(result, "rreq_trigger")[0]
    build = root_ticks(result, "rreq_build")[0]
    assert abs(build - trigger - 2 * to_ticks(10.0)) <= 1


def test_hello_listing_decides_heard_versus_sym():
    net = _ctp_net()
    node = net.nodes[1]
    one_way = RouteMsg(MsgKind.HELLO, originator=2, destination=BROADCAST,
                       hello_neighbors=(7, 9))
    node._process_hello(one_way, prev_hop=2)
    assert node.neighbor_status[2] == HEARD
    both_ways = RouteMsg(MsgKind.HELLO, originator=2, destination=BROADCAST,
                         hello_neighbors=(1, 7))
    node._process_hello(both_ways, prev_hop=2)
    assert node.neighbor_status[2] == SYM
    # hearsay arriving after confirmation must not demote the link
    node._process_hello(one_way, prev_hop=2)
    assert node.neighbor_status[2] == SYM


def test_chain_tree_matches_bfs_and_counts_one_flood_each():
    net = _ctp_net(3)
    result = net.run()
    oracle = bfs_hops(net.positions, net.cfg.radio, 0)
    for addr in (1, 2):
        # the build installs the upward route, the tree RREP the root's
        # downward one
        for tup in (net.nodes[addr].routes.get(0), net.nodes[0].routes.get(addr)):
            assert tup.status == SYM
            assert tup.valid_until > net.end_ticks  # tree routes never age out
            assert tup.metric == oracle[addr]
    assert net.nodes[2].routes.get(0).next_hop == 1
    assert len(control_rows(result, "rreq_trigger")) == 3
    assert len(control_rows(result, "hello")) == 3
    assert len(control_rows(result, "rreq_build")) == 3
    assert tree_rreps(result) == 2


def test_equal_metric_build_copy_is_not_rebroadcast_again():
    layout = {0: Position(100, 500), 1: Position(250, 420),
              2: Position(250, 580), 3: Position(400, 500)}
    net = _ctp_net(4, positions=layout)
    result = net.run()
    # 3 hears equal-metric builds from both branches yet floods only once
    builds = control_rows(result, "rreq_build")
    assert len(builds) == 4
    assert sum(1 for row in builds if row[2] == 3) == 1
    assert net.nodes[3].counters["tree_rrep"] == 1
    assert tree_rreps(result) == 3


def test_root_gains_a_downward_route_per_sensor():
    net = _ctp_net(4)
    net.run()
    root = net.nodes[0].routes
    assert {dest for dest, _ in root.items()} == {1, 2, 3}
    assert all(tup.status == SYM for _, tup in root.items())


def test_intermediate_on_two_rrep_paths_holds_both_downward_routes():
    layout = {0: Position(100, 500), 1: Position(250, 500),
              2: Position(400, 420), 3: Position(400, 580)}
    net = _ctp_net(4, positions=layout)
    net.run()
    dests = {dest for dest, _ in net.nodes[1].routes.items()}
    assert {0, 2, 3} <= dests


def test_sym_links_underlie_every_tree_route():
    layout = {0: Position(100, 500), 1: Position(250, 420),
              2: Position(250, 580), 3: Position(400, 500)}
    net = _ctp_net(4, positions=layout)
    net.run()
    for addr, engine in net.nodes.items():
        for _, tup in engine.routes.items():
            assert engine.neighbor_status.get(tup.next_hop) == SYM, addr


def test_hellos_wait_out_every_trigger_rebroadcast():
    net = _ctp_net(5)
    result = net.run()
    last_trigger = max(row[0] for row in control_rows(result, "rreq_trigger"))
    first_hello = min(row[0] for row in control_rows(result, "hello"))
    assert first_hello > last_trigger


def test_build_requires_prior_trigger_and_a_symmetric_link():
    net = _ctp_net(3)
    node = net.nodes[2]
    build = RouteMsg(MsgKind.BUILD, originator=0, destination=0, seq=9,
                     rrep_required=True)
    node._process_build(build, prev_hop=1)
    assert node.counters["build_without_trigger"] == 1
    node.trigger_received = True  # heard the trigger, link still unproven
    node._process_build(build, prev_hop=1)
    assert node.counters["build_from_asym"] == 1
    assert node.routes.get(0) is None


def test_periodic_rebuild_retriggers_and_rebuilds_the_tree():
    net = _ctp_net(4, duration=100.0, ctp=CtpParams(rebuild_interval=30.0))
    result = net.run()
    assert root_ticks(result, "rreq_trigger") == [to_ticks(t) for t in
                                                  (0.0, 30.0, 60.0, 90.0)]
    assert root_ticks(result, "rreq_build") == [to_ticks(t) for t in
                                                (20.0, 50.0, 80.0)]
    # every accepted trigger draws one HELLO, so each node sends one per round
    hellos = control_rows(result, "hello")
    assert sorted(row[2] for row in hellos) == sorted([0, 1, 2, 3] * 4)
    assert tree_rreps(result) == 9  # every router reports after every build
    # seqs 1..7 went to trigger, build, ..., trigger: the last build took 6
    assert net.nodes[0].seq == 7
    for addr in (1, 2, 3):
        tup = net.nodes[addr].routes[0]
        assert (tup.next_hop, tup.metric, tup.seq) == (addr - 1, addr, 6)


def test_build_without_reports_leaves_the_root_no_downward_route():
    net = _ctp_net(4, ctp=CtpParams(rrep_required=False))
    result = net.run()
    assert tree_rreps(result) == 0
    assert control_rows(result, "rrep") == []
    assert net.nodes[0].routes == {}
    assert [net.nodes[addr].routes[0].metric for addr in (1, 2, 3)] == [1, 2, 3]


def test_tree_traffic_runs_with_zero_discoveries_and_goes_quiet():
    net = _ctp_net(3, duration=300.0, traffic_enabled=True)
    result = net.run()
    assert all(p.fate == DELIVERED for p in result.metrics.records)
    # sends that beat the 20 s build fall back to reactive discovery; every
    # later report, ack, and config rides the tree without another flood
    fallbacks = control_rows(result, "rreq")
    assert all(row[0] < to_ticks(20.0) for row in fallbacks)
    assert max(row[0] for row in result.metrics.control_log) < to_ticks(30.0)


def test_sensor_that_missed_the_build_falls_back_to_discovery():
    layout = {0: Position(100, 100), 1: Position(900, 900)}
    net = _ctp_net(2, positions=layout)
    inject(net, 30.0, 1, 0, 512, UP, "report")
    result = net.run()
    assert net.nodes[1].counters["fallback_discovery"] == 1
    assert result.metrics.records[0].fate == DISCOVERY_TIMEOUT


def test_transit_route_loss_repaired_in_place_by_ctp_only():
    # identical surgery on both backends: the transit hop loses its route
    # to the root just before a packet from further out crosses it
    net = _ctp_net(3, duration=120.0)
    net.sim.schedule_at(to_ticks(50.0), lambda: net.nodes[1].routes.pop(0, None))
    inject(net, 60.0, 2, 0, 512, UP, "report")
    result = net.run()
    assert result.metrics.records[0].fate == DELIVERED
    assert net.nodes[1].counters["fallback_discovery"] == 1

    cfg = quiet_cfg(node_count=3, duration=120.0, warmup=0.0)
    plain = Network(cfg, chain_positions(3))
    inject(plain, 1.0, 2, 0, 512, UP, "report")  # establish the route
    plain.sim.schedule_at(to_ticks(5.0), lambda: plain.nodes[1].routes.pop(0, None))
    inject(plain, 6.0, 2, 0, 512, UP, "report")
    result = plain.run()
    fates = [p.fate for p in result.metrics.records]
    assert fates == [DELIVERED, NO_ROUTE]
    assert plain.nodes[1].counters["no_route_drop"] == 1


def test_ctp_overhead_undercuts_per_report_rediscovery():
    reports = {}
    for backend in ("loadng-ctp", "loadng"):
        cfg = quiet_cfg(backend=backend, node_count=5, duration=600.0,
                        warmup=0.0, traffic_enabled=True)
        reports[backend] = Network(cfg, chain_positions(5)).run().report
    assert reports["loadng-ctp"].overhead_bps < reports["loadng"].overhead_bps
