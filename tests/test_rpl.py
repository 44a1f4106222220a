"""DODAG joining, trickle discipline, DAO reporting, source-route repair."""
from __future__ import annotations

from operator import attrgetter

from llnsim.kernel import to_seconds, to_ticks
from llnsim.messages import BROADCAST, MsgKind, RouteMsg
from llnsim.metrics import (BUFFER_OVERFLOW, DELIVERED, DOWN, MAC_DROP,
                            NO_ROUTE, UP)
from llnsim.network import Network
from llnsim.radio import Position
from llnsim.scenario import RplParams

from conftest import (CALM_RPL, bfs_hops, chain_positions, control_rows,
                      inject, quiet_cfg, random_connected_positions,
                      root_ticks)


def _rpl_net(n=2, duration=60.0, seed=1, positions=None, **overrides):
    cfg = quiet_cfg(backend="rpl", node_count=n, duration=duration,
                    warmup=0.0, seed=seed, **overrides)
    if positions is None:
        positions = chain_positions(n) if n > 2 else {
            0: Position(100, 500), 1: Position(250, 500)}
    return Network(cfg, positions)


ISOLATED = {0: Position(100, 100), 1: Position(900, 900)}


def test_first_heard_dio_joins_at_rank_two():
    net = _rpl_net(duration=30.0)
    net.run()
    assert net.nodes[0].rank == 1
    assert net.nodes[1].rank == 2
    assert net.nodes[1].preferred == 0


def test_lowest_advertised_rank_wins_parent_selection():
    # suppression off so every router advertises and 3 sees both candidates
    layout = {0: Position(100, 500), 1: Position(300, 500),
              2: Position(500, 500), 3: Position(420, 650)}
    net = _rpl_net(4, positions=layout, duration=60.0, rpl=CALM_RPL)
    net.run()
    assert net.nodes[1].rank == 2
    assert net.nodes[2].rank == 3
    assert net.nodes[3].parent_set[1] == 2
    assert net.nodes[3].parent_set[2] == 3
    assert net.nodes[3].preferred == 1
    assert net.nodes[3].rank == 3


def test_chain_ranks_are_bfs_distance_plus_one():
    positions = {i: Position(250.0 * i, 500.0) for i in range(5)}
    net = _rpl_net(5, positions=positions, duration=120.0)
    net.run()
    oracle = bfs_hops(positions, net.cfg.radio, 0)
    for addr, engine in net.nodes.items():
        assert engine.rank == oracle[addr] + 1


def test_dis_resets_a_slow_trickle_but_not_one_at_the_floor():
    net = _rpl_net(positions=ISOLATED, duration=120.0)
    root = net.nodes[0]
    dis = RouteMsg(MsgKind.DIS, originator=1, destination=BROADCAST)
    seen = {}

    def poke():
        seen["grown"] = root.interval
        root._process_dis(dis, prev_hop=1)
        seen["after_reset"] = root.interval
        seen["epoch"] = root._epoch
        root._process_dis(dis, prev_hop=1)
        seen["epoch_after_second"] = root._epoch
        seen["heard"] = root.heard

    net.sim.schedule_at(to_ticks(100.0), poke)
    result = net.run()
    assert seen["grown"] > root.imin  # six quiet doublings by t=100
    assert seen["after_reset"] == root.imin
    # at the floor a second solicitation must not cancel the pending beacon
    assert seen["epoch_after_second"] == seen["epoch"]
    assert seen["heard"] == 0
    # the reset interval spans [100, 102) and fires in its second half
    fired = [t for t in root_ticks(result, "dio")
             if to_ticks(100.0) < t <= to_ticks(102.0)]
    assert len(fired) == 1


def test_isolated_root_beacon_windows_follow_doubling_intervals():
    net = _rpl_net(positions=ISOLATED, duration=30.0, seed=3)
    result = net.run()
    dios = root_ticks(result, "dio")
    first, second, third = (to_seconds(t) for t in dios[:3])
    assert 1.0 <= first < 2.0
    assert 4.0 <= second < 6.0
    assert 10.0 <= third < 14.0


def test_trickle_fires_exactly_once_per_interval():
    net = _rpl_net(positions=ISOLATED, duration=600.0, seed=7)
    result = net.run()
    # doubling intervals starting at 2 s place fires 1-2, 4-6, 10-14, 22-30,
    # 46-62, 94-126, 190-254, 382-510; the ninth window opens after 600 s
    assert len(root_ticks(result, "dio")) == 8


def test_root_splices_reported_parents_into_source_routes():
    net = _rpl_net(3, duration=60.0)
    net.run()
    root = net.nodes[0]
    assert root.parent_links == {1: 0, 2: 1}
    assert root._source_route(1) == [1]
    assert root._source_route(2) == [1, 2]
    assert root._source_route(9) is None


def test_downward_config_follows_the_source_route():
    net = _rpl_net(3, duration=90.0)
    inject(net, 50.0, 0, 2, 61, DOWN, "config")
    result = net.run()
    rec = result.metrics.records[0]
    assert rec.fate == DELIVERED
    assert rec.hops == 2


def test_unreported_sensor_is_unroutable_downward():
    net = _rpl_net(positions=ISOLATED, duration=90.0)
    inject(net, 50.0, 0, 1, 61, DOWN, "config")
    result = net.run()
    assert result.metrics.records[0].fate == NO_ROUTE
    assert net.nodes[0].counters["no_route_drop"] == 1


def test_prejoin_upward_traffic_is_buffered_until_the_first_dio():
    net = _rpl_net(duration=30.0)
    inject(net, 0.5, 1, 0, 512, UP, "report")
    result = net.run()
    rec = result.metrics.records[0]
    assert rec.fate == DELIVERED
    held = to_seconds(rec.delivered_at - rec.created_at)
    assert 0.4 < held < 2.0  # waited out the root's first beacon window


def test_detached_buffer_sheds_what_exceeds_its_capacity():
    net = _rpl_net(duration=30.0, rpl=RplParams(buffer_capacity=2))
    for k in range(3):
        inject(net, 0.5 + 0.01 * k, 1, 0, 512, UP, "report")
    result = net.run()
    records = sorted(result.metrics.records, key=attrgetter("pid"))
    assert [p.fate for p in records] == [DELIVERED, DELIVERED, BUFFER_OVERFLOW]
    assert net.nodes[1].counters["buffer_overflow"] == 1
    first_dio = root_ticks(result, "dio")[0]
    assert all(p.delivered_at > first_dio for p in records[:2])


def test_parent_loss_evicts_after_two_strikes_and_daos_the_new_parent():
    layout = {0: Position(100, 500), 1: Position(270, 500),
              2: Position(440, 500), 3: Position(270, 650)}
    cfg = quiet_cfg(backend="rpl", node_count=4, duration=150.0, warmup=0.0,
                    removals=((60.0, 1),))
    net = Network(cfg, layout)
    inject(net, 110.0, 2, 0, 512, UP, "report")
    inject(net, 120.0, 0, 2, 61, DOWN, "config")
    result = net.run()
    two = net.nodes[2]
    assert two.preferred == 3  # failed DAO unicasts struck out the dead parent
    assert two.counters["parent_evictions"] == 1
    assert net.nodes[0].parent_links[2] == 3
    assert net.nodes[0].parent_links[3] == 0
    fates = [p.fate for p in result.metrics.records]
    assert fates == [DELIVERED, DELIVERED]


def test_stale_source_route_drops_until_the_next_dao_round():
    layout = {0: Position(100, 500), 1: Position(270, 500),
              2: Position(440, 500), 3: Position(270, 650)}
    cfg = quiet_cfg(backend="rpl", node_count=4, duration=150.0, warmup=0.0,
                    removals=((60.0, 1),))
    net = Network(cfg, layout)
    inject(net, 70.0, 0, 2, 61, DOWN, "config")  # root still believes 0-1-2
    inject(net, 130.0, 0, 2, 61, DOWN, "config")
    result = net.run()
    fates = [p.fate for p in result.metrics.records]
    assert fates == [MAC_DROP, DELIVERED]
    assert net.nodes[0].counters["downward_break"] == 1


def test_root_never_emits_dao():
    net = _rpl_net(3, duration=90.0)
    result = net.run()
    senders = {row[2] for row in control_rows(result, "dao")}
    assert senders == {1, 2}


def test_dao_forwarding_respects_the_hop_limit():
    net = _rpl_net(3, duration=60.0)
    runaway = RouteMsg(MsgKind.DAO, originator=2, destination=0,
                       dao_parent=2, hop_count=net.hop_limit)
    net.sim.schedule_at(to_ticks(50.0),
                        lambda: net.nodes[1]._process_dao(runaway, prev_hop=2))
    net.run()
    assert net.nodes[1].counters["dao_hop_limit"] == 1


def test_ranks_monotone_and_parent_walk_reaches_root():
    for seed in (1, 2):
        positions = random_connected_positions(10, seed)
        cfg = quiet_cfg(backend="rpl", node_count=10, duration=120.0,
                        warmup=0.0, seed=seed, rpl=CALM_RPL)
        net = Network(cfg, positions)
        net.run()
        oracle = bfs_hops(positions, cfg.radio, 0)
        for addr, engine in net.nodes.items():
            assert engine.rank == oracle[addr] + 1, (seed, addr)
            if addr == 0:
                continue
            walked = []
            at = addr
            while at != 0:
                assert at not in walked, (seed, addr, walked)
                walked.append(at)
                parent = net.nodes[at].preferred
                assert net.nodes[at].rank == net.nodes[parent].rank + 1
                at = parent


def test_idle_network_still_pays_the_proactive_floor():
    net = _rpl_net(positions=ISOLATED, duration=600.0)
    result = net.run()
    assert result.report.overhead_bps > 0.0
    # the orphan solicits on its fixed cadence the whole run
    dis_count = len(control_rows(result, "dis"))
    assert 100 <= dis_count <= 121
