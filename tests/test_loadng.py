"""Reactive discovery: floods, replies, expiry, breaks, and rediscovery."""
from __future__ import annotations

import copy
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llnsim import messages
from llnsim.kernel import to_ticks
from llnsim.loadng import HEARD, SYM, RoutingTuple
from llnsim.messages import MsgKind, RouteMsg
from llnsim.metrics import (BUFFER_OVERFLOW, DELIVERED, DISCOVERY_TIMEOUT,
                            DOWN, MAC_DROP, UP)
from llnsim.network import Network
from llnsim.radio import Frame, KIND_CONTROL, KIND_DATA, Position
from llnsim.scenario import CtpParams, ScenarioConfig

from conftest import (CALM_LOADNG, bfs_hops, chain_positions, control_rows,
                      inject, quiet_cfg, random_connected_positions)

# seed under which the three-hop branch of the improvement layout wins the
# jitter race, so the two-hop copy lands second as a strict improvement
IMPROVE_SEED = 2


def _chain_net(n=3, duration=60.0, seed=1, **overrides):
    cfg = quiet_cfg(node_count=n, duration=duration, warmup=0.0, seed=seed,
                    **overrides)
    return Network(cfg, chain_positions(n))


def test_flood_installs_reverse_route_matching_bfs():
    net = _chain_net()
    inject(net, 1.0, 0, 2, 64, DOWN, "config")
    result = net.run()
    tup = net.nodes[2].routes.get(0)
    assert (tup.next_hop, tup.metric) == (1, 2)
    assert tup.metric == bfs_hops(net.positions, net.cfg.radio, 0)[2]
    assert result.metrics.records[0].fate == DELIVERED


def test_single_rrep_per_discovery_on_a_chain():
    net = _chain_net()
    inject(net, 1.0, 0, 2, 64, DOWN, "config")
    result = net.run()
    assert net.nodes[2].counters["rrep_originated"] == 1
    # origination at 2 plus one forward at 1; the destination never rebroadcasts
    assert len(control_rows(result, "rrep")) == 2
    assert len(control_rows(result, "rreq")) == 2
    assert len(control_rows(result, "rrep_ack")) == 2


def test_duplicate_flood_copy_with_equal_metric_draws_no_second_reply():
    # two disjoint 2-hop branches deliver the same flood at the same metric
    layout = {0: Position(100, 500), 1: Position(250, 420),
              2: Position(250, 580), 3: Position(400, 500)}
    cfg = quiet_cfg(node_count=4, duration=60.0, warmup=0.0)
    net = Network(cfg, layout)
    inject(net, 1.0, 0, 3, 64, DOWN, "config")
    net.run()
    assert net.nodes[3].counters["rrep_originated"] == 1
    assert net.nodes[3].routes.get(0).metric == 2


def test_shorter_late_flood_copy_triggers_an_improvement_reply():
    # 0-1-4 is two hops; 0-2-3-4 is three.  The seed is chosen so the long
    # branch's copy reaches 4 first, so the short copy arrives as a strict
    # improvement and 4 must answer a second time under the same flood seq.
    layout = {0: Position(100, 630), 1: Position(250, 500),
              2: Position(250, 760), 3: Position(430, 740),
              4: Position(450, 500)}
    cfg = quiet_cfg(node_count=5, duration=60.0, warmup=0.0, seed=IMPROVE_SEED)
    net = Network(cfg, layout)
    inject(net, 1.0, 0, 4, 64, DOWN, "config")
    net.run()
    assert net.nodes[4].counters["rrep_originated"] == 2
    assert net.nodes[0].routes.get(4).metric == 2


def test_flood_keys_are_forgotten_a_hold_time_after_first_seen():
    net = _chain_net()
    node = net.nodes[1]
    key = (0, 7)
    assert node.hold_ticks == 2 * node.ntt_ticks
    assert node._first_or_better(key, 3)
    assert not node._first_or_better(key, 3)  # equal copy: a duplicate
    net.sim.run_until(node.hold_ticks - 1)
    # a better copy is taken but keeps the expiry of the first record
    assert node._first_or_better(key, 2)
    assert not node._first_or_better(key, 3)
    net.sim.run_until(node.hold_ticks)
    assert node._first_or_better(key, 5)  # forgotten: any copy is new again
    assert node.flood_seen == {key: 5}


def test_reports_survive_sequence_wraparound(monkeypatch):
    # with a 256-value sequence space the originators wrap within each run;
    # stale duplicate keys would then swallow fresh floods.  A collection
    # tree rebuilt every 25 s wraps the root's trigger and build floods too
    configs = [ScenarioConfig(backend="loadng", node_count=20, duration=600.0,
                              seed=1),
               ScenarioConfig(backend="loadng-ctp", node_count=20,
                              duration=4000.0, seed=1,
                              ctp=CtpParams(rebuild_interval=25.0))]
    plains = [Network(cfg).run() for cfg in configs]
    for plain in plains:
        assert max(e.seq for e in plain.nodes.values()) > 256
    monkeypatch.setattr(messages, "SEQ_MOD", 256)
    monkeypatch.setattr(messages, "SEQ_HALF", 128)
    for cfg, plain in zip(configs, plains):
        assert Network(cfg).run().report == plain.report


def test_rrep_with_no_reverse_route_is_dropped_and_counted():
    net = _chain_net()
    msg = RouteMsg(MsgKind.RREP, originator=2, destination=0, seq=5)
    net.sim.schedule_at(to_ticks(1.0),
                        lambda: net.nodes[1]._process_rrep(msg, prev_hop=2))
    result = net.run()
    assert net.nodes[1].counters["rrep_no_route"] == 1
    assert control_rows(result, "rrep") == []


def test_rerr_with_no_route_toward_its_destination_is_dropped_and_counted():
    net = _chain_net()
    msg = RouteMsg(MsgKind.RERR, originator=2, destination=0, unreachable=9)
    net.sim.schedule_at(to_ticks(1.0),
                        lambda: net.nodes[1]._process_rerr(msg, prev_hop=2))
    result = net.run()
    assert net.nodes[1].counters["rerr_no_route"] == 1
    assert control_rows(result, "rerr") == []


def test_expired_route_forces_rediscovery():
    net = _chain_net(duration=120.0)
    inject(net, 1.0, 0, 2, 64, DOWN, "config")
    inject(net, 100.0, 0, 2, 64, DOWN, "config")  # lifetime is 15 s
    result = net.run()
    assert net.nodes[0].counters["rreq_originated"] == 2
    assert [p.fate for p in result.metrics.records] == [DELIVERED, DELIVERED]


def test_packets_buffered_during_discovery_all_flush_on_the_reply():
    net = _chain_net()
    for k in range(3):
        inject(net, 1.0 + 0.01 * k, 0, 2, 64, DOWN, "config")
    result = net.run()
    assert net.nodes[0].counters["rreq_originated"] == 1
    assert [p.fate for p in result.metrics.records] == [DELIVERED] * 3
    # the first packet waited out the whole discovery exchange
    first = result.metrics.records[0]
    rtt = first.delivered_at - first.created_at
    assert rtt > to_ticks(0.002)  # well past three lossless frame airtimes


def test_discovery_buffer_overflow_sheds_the_excess():
    net = _chain_net()
    for k in range(6):  # capacity is 4 per destination
        inject(net, 1.0 + 0.001 * k, 0, 2, 64, DOWN, "config")
    result = net.run()
    fates = [p.fate for p in result.metrics.records]
    assert fates.count(DELIVERED) == 4
    assert fates.count(BUFFER_OVERFLOW) == 2


def test_unreachable_destination_times_out_and_drops():
    layout = chain_positions(3)
    layout[3] = Position(5000.0, 5000.0)  # islanded, no links at all
    cfg = quiet_cfg(node_count=4, duration=60.0, warmup=0.0)
    net = Network(cfg, layout)
    inject(net, 1.0, 0, 3, 64, DOWN, "config")
    result = net.run()
    assert result.metrics.records[0].fate == DISCOVERY_TIMEOUT
    assert net.nodes[0].counters["discovery_timeout"] == 1


def test_forwarder_break_reports_rerr_to_source_which_rediscovers():
    # 3-2-{1 or 4}-0; the relay actually chosen is cut at t=5
    layout = {0: Position(100, 500), 1: Position(260, 500),
              2: Position(420, 500), 3: Position(580, 500),
              4: Position(260, 650)}
    cfg = quiet_cfg(node_count=5, duration=60.0, warmup=0.0)
    net = Network(cfg, layout)
    inject(net, 1.0, 3, 0, 512, UP, "report")
    inject(net, 10.0, 3, 0, 512, UP, "report")
    inject(net, 20.0, 3, 0, 512, UP, "report")

    def cut():
        relay = net.nodes[2].routes.get(0).next_hop
        assert relay in (1, 4)
        net.remove_node(relay)

    net.sim.schedule_at(to_ticks(5.0), cut)
    result = net.run()
    fates = [p.fate for p in result.metrics.records]
    assert fates == [DELIVERED, MAC_DROP, DELIVERED]
    assert net.nodes[2].counters["link_breaks"] == 1
    rerr_senders = {row[2] for row in control_rows(result, "rerr")}
    assert 2 in rerr_senders
    assert net.nodes[3].counters["rreq_originated"] == 2


def test_break_with_no_matching_routes_raises_no_rerr():
    net = _chain_net()
    pkt = net.metrics.records.open(1, 9, 512, UP, "report", 0)

    def poke():
        from llnsim.radio import Frame, KIND_DATA
        net.nodes[1].on_broken_link(Frame(1, 9, 512, KIND_DATA, "d", None, pkt))
        net.metrics.records.settle(pkt, MAC_DROP)

    net.sim.schedule_at(to_ticks(1.0), poke)
    result = net.run()
    assert net.nodes[1].counters["link_breaks"] == 1
    assert control_rows(result, "rerr") == []


def test_broken_link_drops_exactly_the_routes_via_the_lost_neighbor():
    net = _chain_net()
    node = net.nodes[1]
    for dest, hop in ((9, 2), (0, 0), (7, 2), (8, 0)):
        node.routes[dest] = RoutingTuple(hop, 1, 1, None, SYM)
    pkt = net.metrics.records.open(0, 9, 512, DOWN, "config", 0)

    def poke():
        node.on_broken_link(Frame(1, 2, 512, KIND_DATA, "d", None, pkt))
        net.metrics.records.settle(pkt, MAC_DROP)

    net.sim.schedule_at(to_ticks(1.0), poke)
    result = net.run()
    assert list(node.routes) == [0, 8]
    # the packet came from elsewhere, so its source hears of the break
    assert [row[2] for row in control_rows(result, "rerr")] == [1]


def test_rerr_invalidates_only_tuples_via_its_sender():
    net = _chain_net()
    routes = net.nodes[1].routes
    routes[9] = RoutingTuple(2, 1, 1, None, SYM)
    routes[8] = RoutingTuple(0, 1, 1, None, SYM)
    msg = RouteMsg(MsgKind.RERR, originator=2, destination=1, unreachable=9)
    net.nodes[1]._process_rerr(msg, prev_hop=2)
    assert routes.get(9) is None
    assert routes.get(8) is not None
    # same announcement from a node that is not the next hop changes nothing
    routes[9] = RoutingTuple(2, 1, 1, None, SYM)
    net.nodes[1]._process_rerr(msg, prev_hop=0)
    assert routes.get(9) is not None


def test_overheard_flood_state_carries_replies_but_not_data():
    # after 0's discovery, 2 reaches 0 only as flood hearsay; its own first
    # data packet toward 0 must therefore run a discovery of its own
    net = _chain_net()
    inject(net, 1.0, 0, 2, 64, DOWN, "config")
    inject(net, 3.0, 2, 0, 512, UP, "report")
    result = net.run()
    assert [p.fate for p in result.metrics.records] == [DELIVERED, DELIVERED]
    assert net.nodes[2].counters["rreq_originated"] == 1
    assert net.nodes[2].routes.get(0).status == SYM


def test_flood_hearsay_neither_degrades_nor_refreshes_a_confirmed_route():
    net = _chain_net(duration=40.0)
    node = net.nodes[2]
    seen = []

    def confirmed():
        node._update_route(0, 1, 2, seq=2)
        seen.append(node.routes.get(0).valid_until)

    def hearsay():
        # a copy of 0's flood, relayed by 1, for a node outside the network
        msg = RouteMsg(MsgKind.RREQ, originator=0, destination=9, seq=4,
                       hop_count=1)
        node.receive(Frame(1, messages.BROADCAST, 24, KIND_CONTROL, "rreq",
                           msg), 1)
        tup = node.routes.get(0)
        seen.append((tup.status, tup.seq, tup.valid_until))

    net.sim.schedule_at(to_ticks(1.0), confirmed)
    net.sim.schedule_at(to_ticks(5.0), hearsay)
    net.sim.schedule_at(to_ticks(30.0), hearsay)
    net.run()
    until = seen[0]
    assert seen[1] == (SYM, 2, until)  # untouched despite the newer seq
    # expiry reopens the slot
    assert seen[2] == (HEARD, 4, to_ticks(30.0) + node.lifetime_ticks)


def test_idle_reactive_network_transmits_nothing():
    net = _chain_net(duration=600.0)
    result = net.run()
    assert len(result.metrics.control_log) == 0
    assert result.report.overhead_bps == 0.0


def test_discovered_metrics_equal_bfs_on_random_graphs():
    for seed in (1, 2):
        positions = random_connected_positions(10, seed)
        cfg = quiet_cfg(node_count=10, duration=700.0, warmup=0.0, seed=seed,
                        loadng=CALM_LOADNG)
        net = Network(cfg, positions)
        for k in range(1, 10):
            inject(net, 5.0 + 65.0 * (k - 1), 0, k, 64, DOWN, "config")
        result = net.run()
        oracle = bfs_hops(positions, cfg.radio, 0)
        for k in range(1, 10):
            assert net.nodes[0].routes.get(k).metric == oracle[k], (seed, k)
        assert all(p.fate == DELIVERED for p in result.metrics.records)


def test_no_forwarding_loops_at_quiescence():
    for seed in (1, 2):
        positions = random_connected_positions(10, seed)
        cfg = quiet_cfg(node_count=10, duration=700.0, warmup=0.0, seed=seed,
                        loadng=CALM_LOADNG)
        net = Network(cfg, positions)
        for k in range(1, 10):
            inject(net, 5.0 + 65.0 * (k - 1), 0, k, 64, DOWN, "config")
        net.run()
        for start in net.nodes:
            for dest, _ in list(net.nodes[start].routes.items()):
                at, walked = start, []
                while at != dest:
                    assert at not in walked, (seed, start, dest, walked)
                    walked.append(at)
                    tup = net.nodes[at]._route(dest)
                    if tup is None or tup.status != SYM:
                        break  # a gap is a drop, not a loop
                    at = tup.next_hop


# -- the overheard-route rule of LoadngNode._process_rreq -------------------

_LIFETIME = to_ticks(15.0)  # LoadngParams defaults: route lifetime 15 s,
_HOLD = to_ticks(20.0)  # flood keys held twice the 10 s traversal time

# few keys, so copies repeat: seqs on both sides of the 16-value wrap
_seqs = st.sampled_from([0, 1, 8, 15])
_peers = st.sampled_from([0, 2])
# (op, originator, seq, hop count, prev hop, destination).  The collection
# tree's floods reach only a loadng-ctp node; there a destination of 1 lists
# node 1 in a HELLO (a symmetric link) and asks a BUILD for tree RREPs
_CTP_OPS = ("trigger", "hello", "build")
_ops = st.one_of(
    st.tuples(st.just("rreq"), st.sampled_from([0, 1, 2]), _seqs,
              st.integers(0, 3), _peers, st.sampled_from([1, 3])),
    st.tuples(st.sampled_from(["trigger", "build"]),
              st.sampled_from([0, 1, 2]), _seqs, st.integers(0, 3), _peers,
              st.sampled_from([1, 3])),
    st.tuples(st.sampled_from(["rrep", "rerr", "hello"]), _peers, _seqs,
              st.integers(0, 3), _peers, st.sampled_from([1, 3])),
    st.tuples(st.just("wait"), st.sampled_from(
        [0, 1, to_ticks(1.0), to_ticks(5.0), _LIFETIME - 1, _LIFETIME,
         _LIFETIME + 1, _HOLD, _HOLD + 1])))
_KINDS = {"rreq": MsgKind.RREQ, "rrep": MsgKind.RREP, "rerr": MsgKind.RERR,
          "trigger": MsgKind.TRIGGER, "hello": MsgKind.HELLO,
          "build": MsgKind.BUILD}


def _isolated_node(backend: str):
    """Node 1 of a two-node network, out of the other's range: it hears
    only what the test hands it, and what it sends reaches no one."""
    cfg = quiet_cfg(backend=backend, node_count=2, duration=600.0,
                    warmup=0.0)
    net = Network(cfg, {0: Position(0.0, 0.0), 1: Position(900.0, 0.0)})
    return net, net.nodes[1]


def _node_state(net, node) -> tuple:
    return (net.sim.now, net.sim.pending(), node.seq, node.routes,
            node.flood_seen, node.reply_seq, list(node._key_expiry),
            node.pending, dict(node.counters),
            list(net.metrics.control_log))


def _reference_rreq(node, m: RouteMsg, prev_hop: int) -> None:
    """A RREQ copy as LoadNG handled it when the overheard route went
    through the shared route installer: a live route to the originator
    refuses the copy when it is confirmed, and otherwise unless the copy
    is fresher, or same-age but shorter; then the flood-key rule decides
    whether the copy is answered or forwarded."""
    if m.originator == node.addr:
        return
    metric = m.hop_count + 1
    cur = node._route(m.originator)
    refused = cur is not None and (
        cur.status == SYM
        or not (messages.seq_newer(m.seq, cur.seq)
                or (m.seq == cur.seq and metric < cur.metric)))
    if not refused:
        valid_until = (None if node.permanent_routes
                       else node.sim.now + node.lifetime_ticks)
        node.routes[m.originator] = RoutingTuple(prev_hop, metric, m.seq,
                                                 valid_until, HEARD)
    if not node._first_or_better((m.originator, m.seq), metric):
        return
    if m.destination == node.addr:
        node._generate_rrep(m)
        return
    fwd = m.forwarded()
    node.after_jitter(node.params.rreq_jitter_max,
                      lambda: node.send_control(fwd, messages.BROADCAST))


@pytest.mark.parametrize("backend", ["loadng", "loadng-ctp"])
@given(ops=st.lists(_ops, min_size=5, max_size=60))
@settings(max_examples=200)
# a route lost while its flood key is held comes back worse than the best
# copy, so a copy between the two must still improve it
@example(ops=[("rreq", 0, 1, 1, 0, 3), ("rerr", 0, 1, 0, 0, 3),
              ("rreq", 0, 1, 3, 0, 3), ("rreq", 0, 1, 2, 0, 3)])
@example(ops=[("rreq", 0, 1, 1, 0, 3), ("wait", _LIFETIME + 1),
              ("rreq", 0, 1, 3, 0, 3), ("rreq", 0, 1, 2, 0, 3)])
# a route is live through the tick its lifetime ends on, so a worse copy
# arriving then is refused
@example(ops=[("rreq", 0, 1, 1, 0, 3), ("wait", _LIFETIME),
              ("rreq", 0, 1, 3, 2, 3)])
# a tree route from a BUILD is permanent and confirmed: a fresher flood
# copy over the same link must leave it alone
@example(ops=[("hello", 0, 0, 0, 0, 1), ("trigger", 0, 1, 0, 0, 3),
              ("rreq", 0, 8, 2, 0, 3), ("build", 0, 1, 0, 0, 1),
              ("rreq", 0, 15, 0, 0, 3), ("wait", _LIFETIME + 1),
              ("rreq", 0, 0, 0, 2, 1)])
def test_receive_treats_every_rreq_copy_as_the_reference_does(backend, ops):
    with mock.patch.object(messages, "SEQ_MOD", 16), \
            mock.patch.object(messages, "SEQ_HALF", 8):
        fast_net, fast = _isolated_node(backend)
        ref_net, ref = _isolated_node(backend)
        for op in ops:
            if op[0] == "wait":
                for net in (fast_net, ref_net):
                    net.sim.run_until(net.sim.now + op[1])
                continue
            kind, orig, seq, hops, prev_hop, dest = op
            if kind in _CTP_OPS and backend == "loadng":
                continue
            msg = RouteMsg(_KINDS[kind], originator=orig, destination=dest,
                           seq=seq, hop_count=hops,
                           rrep_required=kind == "build" and dest == 1,
                           hello_neighbors=(dest,) if kind == "hello" else (),
                           unreachable=orig)
            frame = Frame(prev_hop, messages.BROADCAST, 24, KIND_CONTROL,
                          kind, msg)
            fast.receive(frame, prev_hop)
            if kind == "rreq":
                _reference_rreq(ref, msg, prev_hop)
            else:
                ref.receive(frame, prev_hop)
            assert _node_state(fast_net, fast) == _node_state(ref_net, ref)
        for net in (fast_net, ref_net):
            net.sim.run_until(net.end_ticks)
        assert _node_state(fast_net, fast) == _node_state(ref_net, ref)


def test_a_second_identical_rreq_copy_changes_nothing():
    net, node = _isolated_node("loadng")
    msg = RouteMsg(MsgKind.RREQ, originator=0, destination=7, seq=3,
                   hop_count=2)
    frame = Frame(0, messages.BROADCAST, 24, KIND_CONTROL, "rreq", msg)
    node.receive(frame, 0)
    assert node.routes[0] == RoutingTuple(0, 3, 3, _LIFETIME, HEARD)
    first = copy.deepcopy(_node_state(net, node))
    node.receive(frame, 0)
    assert _node_state(net, node) == first
    net.sim.run_until(net.end_ticks)
    # one forward of the first copy, none of the second
    assert [row[1] for row in net.metrics.control_log] == ["rreq"]
