"""Packet accounting oracles: PDR, delay, overhead rate, aggregation."""
from __future__ import annotations

import hashlib
import statistics
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from llnsim import metrics
from llnsim.kernel import SimulationError, to_seconds, to_ticks
from llnsim.metrics import (AGGREGATE_METRICS, BUFFER_OVERFLOW, CSV_COLUMNS,
                            DELIVERED, DISCOVERY_TIMEOUT, DOWN, IN_FLIGHT,
                            MAC_DROP, NO_ROUTE, UP, ControlLog,
                            MetricsCollector, MetricsReport, aggregate,
                            avg_delay, config_digest, overhead_rate, pdr,
                            report_row)
from llnsim.network import Network
from llnsim.radio import Position
from llnsim.scenario import ScenarioConfig

from conftest import (chain_positions, control_rows, inject, quiet_cfg,
                      sealed_bytes, sealed_chunks)

WARM = to_ticks(120.0)


def _fill(collector, spec):
    """spec rows: (direction, created_s, delivered_s | fate)."""
    for direction, created, outcome in spec:
        pkt = collector.records.open(1, 0, 512, direction, "report",
                                     to_ticks(created))
        if isinstance(outcome, str):
            collector.records.settle(pkt, outcome)
        elif outcome is not None:
            collector.records.settle(pkt, DELIVERED, to_ticks(outcome))
    return collector.records


def test_pdr_counts_post_warmup_creations_only():
    c = MetricsCollector(WARM)
    records = _fill(c, [
        (UP, 10.0, 11.0),      # warmup, ignored
        (UP, 119.9, MAC_DROP),  # warmup, ignored
        (UP, 120.0, 121.0),    # boundary counts
        (UP, 200.0, 201.0),
        (UP, 300.0, MAC_DROP),
        (DOWN, 400.0, 401.0),
    ])
    assert pdr(records, UP, WARM) == pytest.approx(2 / 3)
    assert pdr(records, DOWN, WARM) == 1.0
    assert pdr([], UP, WARM) is None
    assert pdr(records[:2], UP, WARM) is None  # warmup-only traffic


def test_avg_delay_is_the_mean_over_delivered_packets():
    c = MetricsCollector(WARM)
    records = _fill(c, [
        (UP, 10.0, 110.0),     # warmup, ignored
        (UP, 130.0, 130.5),
        (UP, 140.0, 141.5),
        (UP, 150.0, MAC_DROP),  # drops carry no delay
    ])
    assert avg_delay(records, UP, WARM) == pytest.approx(1.0)
    assert avg_delay(records, DOWN, WARM) is None
    assert avg_delay(records[:1], UP, WARM) is None


def test_settled_route_delay_is_exactly_one_airtime():
    cfg = quiet_cfg(node_count=2, duration=30.0, warmup=0.0)
    net = Network(cfg, chain_positions(2))
    inject(net, 1.0, 1, 0, 512, UP, "report")   # pays for discovery
    inject(net, 10.0, 1, 0, 512, UP, "report")  # rides the settled route
    result = net.run()
    first, second = result.metrics.records
    assert second.delivered_at - second.created_at == 16896
    assert second.hops == 1
    assert first.delivered_at - first.created_at > 16896
    assert avg_delay([second], UP, 0) == pytest.approx(to_seconds(16896))


def test_failed_discovery_flood_cost_is_exact():
    # reachable chain plus an island destination: the flood crosses the
    # chain once (3 transmitters) and the query times out
    positions = chain_positions(3)
    positions[3] = Position(5000.0, 5000.0)
    cfg = quiet_cfg(node_count=4, duration=60.0, warmup=0.0)
    net = Network(cfg, positions)
    inject(net, 1.0, 0, 3, 61, DOWN, "config")
    result = net.run()
    rreq = control_rows(result, "rreq")
    assert len(rreq) == 3
    assert sum(row[3] for row in rreq) == 3 * (24 + 16)
    assert result.metrics.records[0].fate == DISCOVERY_TIMEOUT


def test_overhead_rate_filters_warmup_and_rejects_empty_windows():
    log = [(0, "dio", 0, 50), (WARM, "dio", 0, 30),
           (to_ticks(180.0), "dio", 1, 10)]
    assert overhead_rate(log, WARM, to_ticks(240.0)) == pytest.approx(40 / 120)
    assert overhead_rate([], WARM, to_ticks(240.0)) == 0.0
    with pytest.raises(SimulationError):
        overhead_rate(log, WARM, WARM)


def _control_log(rows):
    log = ControlLog()
    for row in rows:
        log.append(*row)
    return log


def test_control_log_reads_back_the_rows_it_was_given():
    # ticks past 2**31 (an 8 h run ends at 2.88e10) and a label first seen late
    rows = [(to_ticks(t), label, node, size)
            for t, label, node, size in [
                (0.5, "dio", 0, 66), (1.0, "dis", 7, 20), (2200.0, "dio", 3, 66),
                (28_799.9, "dao", 59, 46), (28_800.0, "dao_ack", 0, 20),
                (28_800.0, "dio", 2, 66)]]
    log = _control_log(rows)
    assert len(log) == len(rows)
    assert list(log) == rows
    assert list(log) == rows  # iterating does not consume the log
    assert len(ControlLog()) == 0 and list(ControlLog()) == []


@pytest.mark.parametrize("row", [(6, "rrep", 2**31, 40), (6, "rrep", 2, 2**31),
                                 (2**63, "rrep", 2, 40)],
                         ids=["node", "size", "tick"])
def test_control_log_refuses_values_it_cannot_hold(row):
    _refused_row(_control_log([(5, "dio", 0, 66)]), row)


def test_control_log_refuses_a_257th_label():
    log = _control_log([(i, f"label{i}", 0, 1) for i in range(256)])
    _refused_row(log, (256, "label256", 0, 1))


def test_control_log_refuses_a_row_whose_seal_fails(monkeypatch):
    # the second row fills a two-row chunk, and its tick's difference from
    # the first does not fit in 64 bits
    monkeypatch.setattr(metrics, "CHUNK_ROWS", 2)
    _refused_row(_control_log([(-2**62, "dio", 0, 66)]), (2**62, "dio", 0, 66))


def _refused_row(log, row):
    """Appending row raises OverflowError and leaves the log as it was: a
    later row (with a label already seen) reads back whole, after the
    earlier ones."""
    before = list(log)
    with pytest.raises(OverflowError):
        log.append(*row)
    assert len(log) == len(before) and list(log) == before
    later = (7, before[0][1], 4, 20)
    log.append(*later)
    assert len(log) == len(before) + 1 and list(log) == before + [later]


def test_overhead_rate_is_the_same_on_a_control_log():
    rows = [(0, "dio", 0, 50), (WARM, "dao", 0, 30),
            (to_ticks(180.0), "dio", 1, 10), (to_ticks(200.0), "dis", 4, 7)]
    end = to_ticks(240.0)
    assert (overhead_rate(_control_log(rows), WARM, end)
            == overhead_rate(rows, WARM, end) == (30 + 10 + 7) / 120)


def test_control_log_holds_a_row_in_at_most_24_bytes():
    # the tuple-per-row log it replaced took about 112 B per row
    n = 100_000
    log = ControlLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            log.append(to_ticks(28_000.0) + i, "dao", i % 60, 46)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == n
    assert grown / n <= 24


K = 4  # CHUNK_ROWS in the sealing tests, so short logs cross chunk boundaries


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(metrics, "CHUNK_ROWS", K)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 3 * K + 5])
def test_control_log_reads_back_rows_across_sealed_chunks(small_chunks, n):
    rows = [(to_ticks(28_000.0) + 7 * i, ("dio", "dao", "dis")[i % 3], i % 60,
             20 + i) for i in range(n)]
    log = _control_log(rows)
    assert sealed_chunks(log) == n // K  # every Kth append seals
    assert len(log) == n
    assert list(log) == rows
    assert list(log) == rows


def _open(c, i):
    """Packet i of a sealing test, opened with fields that vary per pid."""
    pkt = c.records.open(i % 7, 59 - i % 7, 100 + i, UP if i % 2 else DOWN,
                         "ack" if i % 3 else "report",
                         to_ticks(28_000.0) + 5 * i)
    pkt.hops = i % 4
    return pkt


def _settle(c, pkt):
    if pkt.pid % 5:
        c.records.settle(pkt, DELIVERED, pkt.created_at + 16896 + pkt.pid)
    else:
        c.records.settle(pkt, (MAC_DROP, NO_ROUTE)[pkt.pid % 2])


FATES = (DELIVERED, MAC_DROP, NO_ROUTE, DISCOVERY_TIMEOUT, BUFFER_OVERFLOW,
         IN_FLIGHT)


def _tally(records, w):
    """PacketLog.tally recomputed from PacketRecords: the settled ones."""
    settled = [p for p in records if p.fate is not None]
    sums = {p.direction: [0, 0, 0] for p in settled}
    fates = dict.fromkeys(FATES, 0)
    for p in settled:
        if p.created_at < w:
            continue
        row = sums[p.direction]
        row[0] += 1
        fates[p.fate] += 1
        if p.fate == DELIVERED:
            row[1] += 1
            row[2] += p.delivered_at - p.created_at
    return {d: tuple(row) for d, row in sums.items()}, fates


def _same_as(log, oracle):
    """Every read of the log agrees with a plain list of the same packets in
    the log's read order: settled ones as they settled, then the live ones."""
    rows = [astuple(p) for p in oracle]
    n = len(oracle)
    assert len(log) == n
    assert [astuple(p) for p in log] == rows
    assert [astuple(log[i]) for i in range(-n, n)] == rows + rows
    for part in (slice(None), slice(1, -1), slice(None, None, -3),
                 slice(K - 1, 3 * K + 2, 2), slice(n + 1, None)):
        assert [astuple(p) for p in log[part]] == rows[part]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            log[i]
    for w in (0, oracle[n // 2].created_at if oracle else 0):
        assert log.tally(w) == _tally(oracle, w)


@pytest.mark.parametrize("n", [0, 1, K - 1, K, K + 1, 3 * K + 5])
def test_packet_log_reads_back_rows_across_sealed_chunks(small_chunks, n):
    c = MetricsCollector(0)
    oracle = []
    for i in range(n):
        oracle.append(_open(c, i))
        _settle(c, oracle[-1])
    assert sealed_chunks(c.records) == n // K  # every Kth settle seals
    _same_as(c.records, oracle)


def test_a_live_packet_holds_back_no_sealing(small_chunks):
    c = MetricsCollector(0)
    oracle = []
    for i in range(4 * K):
        pkt = _open(c, i)
        if i != K + 1:
            _settle(c, pkt)
            oracle.append(pkt)
    held = c.records.live[K + 1]
    # the 4K - 1 settled rows fill three chunks, each sealed as it filled;
    # the live packet is read after them
    assert sealed_chunks(c.records) == 3 and list(c.records.live) == [K + 1]
    _same_as(c.records, oracle + [held])
    assert c.records[-1] is held
    c.records.settle(held, DELIVERED, held.created_at + 1)
    oracle.append(held)
    oracle.append(_open(c, 4 * K))
    _settle(c, oracle[-1])
    assert sealed_chunks(c.records) == 4 and not c.records.live
    _same_as(c.records, oracle)


def test_a_packet_held_to_the_end_of_a_run_holds_back_no_sealing(small_chunks):
    # node 3 is removed with its own report in its MAC queue, so that packet
    # stays unresolved until the run ends; meanwhile every other packet
    # settles and each K of them seal
    net = Network(ScenarioConfig(backend="rpl", node_count=20, duration=900.0,
                                 removals=((506.4439, 3),))).run()
    records = net.metrics.records
    held = [p for p in records if p.fate == IN_FLIGHT]
    assert [(p.src, p.kind) for p in held] == [(3, "report")]
    assert net.report.in_flight >= 1
    assert held[0].pid < len(records) - 10 * K
    assert not records.live
    assert sealed_chunks(records) == len(records) // K


_OPS = st.lists(st.tuples(st.sampled_from(("open", "deliver", "drop", "close")),
                          st.integers(0, 2**16)), max_size=60)


@settings(max_examples=200)
@given(_OPS)
def test_packet_log_agrees_with_a_list_of_its_packets(ops):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "CHUNK_ROWS", K)
        c = MetricsCollector(0)
        opened, settled = [], []  # in pid order; in the order they settled
        for op, x in ops:
            live = [p for p in opened if p.fate is None]
            if op == "open":  # a burst of one to eight packets
                opened += [_open(c, x + i) for i in range(1 + x % 8)]
            elif op == "close":  # the packets whose bit of x is set, settled or not
                c.close([p for i, p in enumerate(opened) if (x >> i % 16) & 1])
                settled += [p for p in live if p.fate is not None]
            elif live:
                pkt = live[x % len(live)]
                if op == "deliver":
                    c.records.settle(pkt, DELIVERED, pkt.created_at + x)
                else:
                    c.records.settle(pkt, FATES[1 + x % 4])
                settled.append(pkt)
        log = c.records
        live = [p for p in opened if p.fate is None]
        order = settled + live
        assert len(log) == len(opened)
        assert Counter(map(astuple, log)) == Counter(map(astuple, opened))
        assert list(log.live) == [p.pid for p in live]
        assert all(log.live[p.pid] is p for p in live)
        assert sealed_chunks(log) == len(settled) // K
        _same_as(log, order)
        for w in {p.created_at for p in opened}:
            assert log.tally(w) == _tally(opened, w)


# a sealed 64-bit column holds differences; every value a run can log lies
# in [-1, 2**62), and the draws favour its ends side by side
_Q = st.sampled_from((-1, 0, 2**62 - 1)) | st.integers(-1, 2**62 - 1)
_I = st.sampled_from((0, 2**31 - 1)) | st.integers(0, 2**31 - 1)
_DELIVERED = (st.none() | st.sampled_from((0, 2**62 - 1))
              | st.integers(0, 2**62 - 1))
_EDGES = [-1, 2**62 - 1, -1, 0, 2**62 - 1, 2**62 - 1, 0, -1, 5, 2**62 - 1]


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_Q, st.sampled_from(("dio", "dao", "dis")), _I, _I),
                max_size=3 * K + 1),
       st.lists(st.tuples(_I, _I, _I, _Q, _DELIVERED, _I, _I),
                max_size=3 * K + 1))
@example([(t, "dio", 2**31 - 1, 2**31 - 1) for t in _EDGES],
         [(2**31 - 1, 2**31 - 1, 2**31 - 1, t, 2**62 - 1 - max(t, 0), i, -i)
          for i, t in enumerate(_EDGES)])
def test_sealed_logs_read_back_extreme_64_bit_values(small_chunks, control,
                                                     packets):
    log = _control_log(control)
    assert len(log) == len(control) and list(log) == control
    c = MetricsCollector(0)
    opened = []
    for src, dst, payload, created, _, hops, _ in packets:
        pkt = c.records.open(src, dst, payload, UP if hops % 2 else DOWN,
                             "report", created)
        pkt.hops = hops
        opened.append(pkt)
    # settled in the order of the last field, so pids need not rise
    order = sorted(range(len(packets)), key=lambda i: packets[i][-1])
    for i in order:
        if packets[i][4] is None:
            c.records.settle(opened[i], MAC_DROP)
        else:
            c.records.settle(opened[i], DELIVERED, packets[i][4])
    settled = [opened[i] for i in order]
    assert sealed_chunks(c.records) == len(packets) // K
    _same_as(c.records, settled)
    for w in (-1, 0, 2**62 - 1):
        assert c.records.tally(w) == _tally(settled, w)


def test_an_rpl_run_seals_its_logs_into_few_bytes_a_row():
    # 4 h, 20 nodes: 40,960 control and 12,288 packet rows sealed.  The
    # logs' 64-bit columns are stored as differences; stored as values they
    # took 3.8 and 9.1 B a row
    net = Network(ScenarioConfig(backend="rpl", node_count=20,
                                 duration=4 * 3600.0)).run()
    per_row = []
    for log in (net.metrics.control_log, net.metrics.records):
        rows = sealed_chunks(log) * metrics.CHUNK_ROWS
        assert rows >= 3 * metrics.CHUNK_ROWS
        per_row.append(sealed_bytes(log) / rows)
    control, packets = per_row
    assert control <= 1.7 and packets <= 4.8  # 1.62 and 4.56 measured


def test_collector_rejects_double_resolution():
    c = MetricsCollector(0)
    pkt = c.records.open(1, 0, 512, UP, "report", 0)
    c.records.settle(pkt, DELIVERED, 5)
    with pytest.raises(SimulationError):
        c.records.settle(pkt, DELIVERED, 6)
    with pytest.raises(SimulationError):
        c.records.settle(pkt, MAC_DROP)


def test_close_sweeps_unresolved_packets_into_in_flight():
    c = MetricsCollector(0)
    done = c.records.open(1, 0, 512, UP, "report", 0)
    c.records.settle(done, DELIVERED, 5)
    held = c.records.open(2, 0, 512, UP, "report", 3)  # still held at the end
    with pytest.raises(SimulationError):
        c.assert_conserved()
    c.close([held, done])
    c.assert_conserved()
    assert [p.fate for p in c.records] == [DELIVERED, IN_FLIGHT]
    # a packet no node holds has leaked: it keeps no fate and the check aborts
    c.records.open(3, 0, 512, UP, "report", 4)
    c.close([held])
    with pytest.raises(SimulationError):
        c.assert_conserved()


def test_a_packet_no_node_holds_aborts_the_run():
    net = Network(quiet_cfg(node_count=3, duration=30.0, warmup=0.0),
                  chain_positions(3))
    net.metrics.records.open(2, 0, 512, UP, "report", 0)
    with pytest.raises(SimulationError):
        net.run()


def test_packets_nodes_still_hold_end_in_flight():
    # node 2 is an island that nobody hears
    layout = {0: Position(100, 500), 1: Position(250, 500),
              2: Position(5000, 500)}
    net = Network(quiet_cfg(node_count=3, duration=20.0, warmup=0.0), layout)
    inject(net, 1.0, 0, 1, 512, DOWN, "config")  # discovers the route
    inject(net, 10.0, 0, 1, 512, DOWN, "config")  # keeps it fresh
    inject(net, 15.0, 0, 2, 512, DOWN, "config")  # waits on a discovery
    inject(net, 19.995, 0, 1, 512, DOWN, "config")  # queued, on the air
    fates = [p.fate for p in net.run().metrics.records]
    assert fates == [DELIVERED, DELIVERED, IN_FLIGHT, IN_FLIGHT]
    net = Network(quiet_cfg(backend="rpl", node_count=3, duration=20.0,
                            warmup=0.0), layout)
    inject(net, 1.0, 2, 0, 512, UP)  # held until a join that never comes
    assert [p.fate for p in net.run().metrics.records] == [IN_FLIGHT]


def test_packet_log_reads_back_live_and_settled_packets():
    c = MetricsCollector(0)
    start = to_ticks(28_000.0)  # ticks past 2**31
    pkts = [c.records.open(i, 59 - i, 100 + i, UP if i % 2 else DOWN,
                           "ack" if i % 3 else "report", start + i)
            for i in range(6)]
    pkts[0].hops = 3
    c.records.settle(pkts[0], DELIVERED, to_ticks(28_800.0))
    pkts[1].hops = 2
    c.records.settle(pkts[1], MAC_DROP)
    c.close([pkts[4]])
    log = c.records
    rows = [astuple(p) for p in pkts]
    pid = attrgetter("pid")
    assert len(log) == 6 and list(log.live) == [2, 3, 5]
    # the settled packets in the order they settled, then the live ones
    assert [p.pid for p in log] == [0, 1, 4, 2, 3, 5]
    assert [astuple(p) for p in sorted(log, key=pid)] == rows
    assert [astuple(p) for p in sorted(log, key=pid)] == rows  # not consumed
    # an unresolved packet is the live object; a settled one is a fresh copy
    assert log[3] is pkts[2] and log[-1] is pkts[5] and log[-3] is pkts[2]
    assert log[0] is not pkts[0] and log[0] == pkts[0]
    assert (log[0].hops, log[0].delivered_at) == (3, to_ticks(28_800.0))
    assert astuple(log[-6]) == rows[0] and astuple(log[2]) == rows[4]
    assert log[1].fate == MAC_DROP and log[1].delivered_at is None
    assert log[2].fate == IN_FLIGHT
    part = log[1:5]
    assert isinstance(part, list) and [p.pid for p in part] == [1, 4, 2, 3]
    assert [astuple(p) for p in sorted(part, key=pid)] == rows[1:5]
    assert [p.pid for p in log[::-2]] == [5, 2, 1]
    assert [p.pid for p in log[:2] + log[3:]] == [0, 1, 2, 3, 5]
    assert log[7:] == []
    for index in (6, -7):
        with pytest.raises(IndexError):
            log[index]


def test_an_unknown_fate_is_rejected_by_name():
    c = MetricsCollector(0)
    pkt = c.records.open(1, 0, 512, UP, "report", 0)
    with pytest.raises(SimulationError, match="lost-in-space"):
        c.records.settle(pkt, "lost-in-space")
    assert pkt.fate is None and c.records[0] is pkt  # still unresolved
    c.records.settle(pkt, NO_ROUTE)
    c.assert_conserved()


@pytest.mark.parametrize("packet", [(2**31, 0, 512, 0), (1, 2**31, 512, 0),
                                    (1, 0, 2**31, 0), (1, 0, 512, 2**63)],
                         ids=["src", "dst", "payload", "created"])
def test_packet_log_refuses_values_it_cannot_hold(packet):
    src, dst, payload, now = packet
    c = MetricsCollector(0)
    c.records.settle(c.records.open(3, 0, 512, UP, "report", 1), DELIVERED, 2)
    pkt = c.records.open(src, dst, payload, UP, "report", now)
    # its row is written when it settles
    _refused_settle(c, pkt, lambda: c.records.settle(pkt, MAC_DROP))


def test_packet_log_refuses_a_settled_value_it_cannot_hold():
    c = MetricsCollector(0)
    c.records.settle(c.records.open(3, 0, 512, UP, "report", 1), DELIVERED, 2)
    pkt = c.records.open(1, 0, 512, UP, "report", 0)
    pkt.hops = 2**31
    _refused_settle(c, pkt, lambda: c.records.settle(pkt, MAC_DROP))
    pkt = c.records.open(1, 0, 512, UP, "report", 0)
    _refused_settle(c, pkt, lambda: c.records.settle(pkt, DELIVERED, 2**63))


def test_packet_log_refuses_a_257th_name():
    c = MetricsCollector(0)
    for i in range(254):  # 255 names with UP
        c.records.settle(c.records.open(1, 0, 512, UP, f"kind{i}", 0), MAC_DROP)
    c.records.settle(c.records.open(1, 0, 512, UP, "kind254", 0), MAC_DROP)  # 256th
    pkt = c.records.open(1, 0, 512, UP, "kind255", 0)
    _refused_settle(c, pkt, lambda: c.records.settle(pkt, MAC_DROP))


def test_packet_log_refuses_a_row_whose_seal_fails(monkeypatch):
    # the second row fills a two-row chunk, and its creation tick's
    # difference from the first does not fit in 64 bits
    monkeypatch.setattr(metrics, "CHUNK_ROWS", 2)
    c = MetricsCollector(0)
    c.records.settle(c.records.open(3, 0, 512, UP, "report", -2**62), MAC_DROP)
    pkt = c.records.open(1, 0, 512, UP, "report", 2**62)
    _refused_settle(c, pkt, lambda: c.records.settle(pkt, MAC_DROP))


def _refused_settle(c, pkt, settle):
    """settle() raises OverflowError and leaves no trace of pkt's row: pkt
    stays live without a fate, so conservation aborts naming its direction,
    and the next packet (named as the first) gets the next pid and reads
    back whole."""
    def rows():
        return [astuple(p) for p in sorted(c.records, key=attrgetter("pid"))]
    before = rows()
    with pytest.raises(OverflowError):
        settle()
    assert pkt.fate is None and c.records.live[pkt.pid] is pkt
    assert len(c.records) == len(before) and rows() == before
    first = c.records[0]
    nxt = c.records.open(2, 0, 61, first.direction, first.kind, 5)
    c.records.settle(nxt, DELIVERED, 9)
    assert nxt.pid == len(before) and rows() == before + [astuple(nxt)]
    with pytest.raises(SimulationError, match=f"violated for {pkt.direction}"):
        c.assert_conserved()


def test_packet_log_holds_a_settled_row_in_at_most_48_bytes():
    # a PacketRecord kept per packet took about 220 B
    n = 100_000
    c = MetricsCollector(0)
    start = to_ticks(28_000.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            pkt = c.records.open(1 + i % 59, 0, 512, UP, "report", start + i)
            pkt.hops = 1 + i % 5
            if i % 10:
                c.records.settle(pkt, DELIVERED, start + i + 16896)
            else:
                c.records.settle(pkt, MAC_DROP)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(c.records) == n and not c.records.live
    assert grown / n <= 48


@pytest.mark.parametrize("backend", ["loadng", "loadng-ctp", "rpl"])
def test_one_pass_report_equals_the_per_record_reduction(backend):
    result = Network(ScenarioConfig(backend=backend, node_count=20,
                                    duration=600.0,
                                    removals=((300.0, 5),))).run()
    records, report = result.metrics.records, result.report
    w = result.metrics.warmup_ticks
    post = [p for p in records if p.created_at >= w]
    for direction in (UP, DOWN):
        assert getattr(report, f"pdr_{direction}") == pdr(records, direction, w)
        assert (getattr(report, f"delay_{direction}_s")
                == avg_delay(records, direction, w))
        mine = [p for p in post if p.direction == direction]
        assert getattr(report, f"{direction}_created") == len(mine) > 0
        assert (getattr(report, f"{direction}_delivered")
                == sum(p.fate == DELIVERED for p in mine))
    fates = Counter(p.fate for p in post)
    assert ((report.mac_drop, report.no_route, report.discovery_timeout,
             report.buffer_overflow, report.in_flight)
            == (fates[MAC_DROP], fates[NO_ROUTE], fates[DISCOVERY_TIMEOUT],
                fates[BUFFER_OVERFLOW], fates[IN_FLIGHT]))
    assert report.pdr_up is not None and report.delay_down_s is not None


def _report(**over):
    base = MetricsReport(
        cfg_id="abc123def456", backend="loadng", node_count=20, distance=None,
        seed=1, pdr_up=1.0, pdr_down=1.0, delay_up_s=0.05, delay_down_s=0.04,
        overhead_bps=100.0, up_created=480, up_delivered=480, down_created=480,
        down_delivered=480, mac_drop=0, no_route=0, discovery_timeout=0,
        buffer_overflow=0, in_flight=0)
    return replace(base, **over)


def test_aggregate_matches_statistics_oracle():
    reports = [_report(seed=s, pdr_up=v, overhead_bps=10.0 * v)
               for s, v in enumerate([0.9, 1.0, 0.95, 0.99])]
    out = aggregate(reports)
    assert out["pdr_up"][0] == pytest.approx(statistics.fmean([0.9, 1.0, 0.95, 0.99]))
    assert out["pdr_up"][1] == pytest.approx(statistics.stdev([0.9, 1.0, 0.95, 0.99]))
    assert out["overhead_bps"][0] == pytest.approx(9.6)
    single = aggregate([reports[0]])
    assert single["pdr_up"] == (0.9, 0.0)


def test_aggregate_skips_absent_metrics_and_rejects_mixes():
    quiet = [_report(seed=s, delay_down_s=None) for s in range(3)]
    assert "delay_down_s" not in aggregate(quiet)
    assert set(aggregate([_report()])) == set(AGGREGATE_METRICS)
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([_report(), _report(cfg_id="other0other00")])


def test_aggregate_is_permutation_invariant():
    reports = [_report(seed=s, pdr_up=v)
               for s, v in enumerate([0.91, 0.97, 1.0, 0.88, 0.94])]
    forward = aggregate(reports)
    backward = aggregate(list(reversed(reports)))
    for name in forward:
        assert forward[name][0] == pytest.approx(backward[name][0])
        assert forward[name][1] == pytest.approx(backward[name][1])


def test_csv_row_formatting():
    row = report_row(_report(distance=250.0, pdr_up=0.987654321,
                             delay_up_s=0.0123456, overhead_bps=12.3456789))
    assert len(row) == len(CSV_COLUMNS)
    named = dict(zip(CSV_COLUMNS, row))
    assert named["pdr_up"] == "0.987654"
    assert named["delay_up_ms"] == "12.346"
    assert named["overhead_bps"] == "12.346"
    assert named["distance"] == "250.0"
    blank = dict(zip(CSV_COLUMNS, report_row(_report())))
    assert blank["distance"] == ""


def test_config_digest_is_a_stable_sha1_prefix():
    payload = "backend=loadng|node_count=20"
    assert config_digest(payload) == hashlib.sha1(payload.encode()).hexdigest()[:12]
    assert config_digest(payload) == config_digest(payload)
    assert config_digest(payload) != config_digest(payload + "x")
