"""Loss curve, airtime, collisions, and the CSMA retry discipline."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llnsim.kernel import SimulationError, Simulator
from llnsim.messages import BROADCAST
from llnsim.radio import (Frame, KIND_CONTROL, KIND_DATA, LINK_HEADER_BYTES,
                          MacParams, Medium, NodeMac, Position, RadioParams,
                          reception_probability)

DEFAULT = RadioParams()
LOSSLESS = RadioParams(p_edge=1.0)


def test_reception_certain_at_zero_distance():
    assert reception_probability(0.0, DEFAULT) == 1.0


def test_reception_at_half_range():
    # quadratic falloff oracle: 1 - (1 - 0.8) * (125/250)^2
    assert reception_probability(125.0, DEFAULT) == pytest.approx(0.95)


def test_reception_at_exact_range_equals_edge_probability():
    assert reception_probability(250.0, DEFAULT) == pytest.approx(0.8)


def test_reception_zero_beyond_range():
    assert reception_probability(250.0001, DEFAULT) == 0.0
    assert reception_probability(10_000.0, DEFAULT) == 0.0


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        reception_probability(-1.0, DEFAULT)


@given(st.floats(0.0, 600.0), st.floats(0.0, 600.0))
def test_reception_monotone_nonincreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    p_lo = reception_probability(lo, DEFAULT)
    p_hi = reception_probability(hi, DEFAULT)
    assert 0.0 <= p_hi <= p_lo <= 1.0


def test_param_validation():
    with pytest.raises(ValueError):
        RadioParams(p_edge=0.0).validate()
    with pytest.raises(ValueError):
        RadioParams(p_edge=1.2).validate()
    with pytest.raises(ValueError):
        RadioParams(range_m=0.0).validate()
    with pytest.raises(ValueError):
        MacParams(queue_capacity=0).validate()
    DEFAULT.validate()
    MacParams().validate()


# -- medium level ----------------------------------------------------------


class Harness:
    """Medium plus per-node MACs and a receive log."""

    def __init__(self, layout: dict[int, Position], radio=LOSSLESS, seed=1):
        self.sim = Simulator(seed)
        self.medium = Medium(self.sim, radio)
        self.received: list[tuple[int, int, Frame]] = []  # (tick, at, frame)
        self.resolved: list[tuple[int, Frame, bool]] = []
        self.macs: dict[int, NodeMac] = {}
        for addr, pos in layout.items():
            def receive(frame, sender, a=addr):
                self.received.append((self.sim.now, a, frame))
            self.macs[addr] = NodeMac(self.sim, self.medium, addr, MacParams(),
                                      self._on_result)
            self.medium.add_node(addr, pos, receive)
        self.medium.finalize()

    def _on_result(self, frame, delivered):
        self.resolved.append((self.sim.now, frame, delivered))

    def send(self, src, dst, payload=512):
        return self.macs[src].enqueue(Frame(src, dst, payload, KIND_DATA, "d"))


def test_airtime_is_payload_plus_header_at_bitrate():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    assert h.medium.airtime_ticks(512) == (512 + 16) * 8 * 1_000_000 // 250_000
    assert h.medium.airtime_ticks(512) == 16896
    assert h.medium.airtime_ticks(24) == 1280
    assert LINK_HEADER_BYTES == 16


def test_idle_lossless_unicast_one_transmission_at_exact_airtime():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    h.send(0, 1)
    h.sim.run_until(1_000_000)
    assert [(t, a) for t, a, _ in h.received] == [(16896, 1)]
    # the ack costs no airtime: resolution lands with the frame itself
    assert [(t, ok) for t, _, ok in h.resolved] == [(16896, True)]
    assert h.macs[0].transmissions == 1
    assert h.macs[0].unicast_ok == 1


def test_unicast_reaches_its_destination_only_but_every_neighbor_hears_it():
    # 2 is in range of 0 but is not addressed: it defers, it does not receive
    h = Harness({0: Position(0, 0), 1: Position(100, 0), 2: Position(50, 50)})
    busy = []
    h.send(0, 1)
    h.sim.schedule_at(5000, lambda: busy.append(h.medium.busy_for(2)))
    h.sim.run_until(1_000_000)
    assert busy == [True]
    assert [a for _, a, _ in h.received] == [1]
    h.send(0, BROADCAST)
    h.sim.run_until(2_000_000)
    assert sorted(a for _, a, f in h.received if f.dst == BROADCAST) == [1, 2]


def test_out_of_range_unicast_retries_then_gives_up():
    h = Harness({0: Position(0, 0), 1: Position(300, 0)})
    h.send(0, 1)
    h.sim.run_until(5_000_000)
    assert h.received == []
    # initial try plus max_retries
    assert h.macs[0].transmissions == 4
    assert h.macs[0].unicast_fail == 1
    assert [ok for _, _, ok in h.resolved] == [False]


def test_removed_node_neither_hears_nor_is_heard():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    h.medium.remove_node(1)
    h.send(0, 1)
    h.sim.run_until(5_000_000)
    assert h.received == []
    assert h.macs[0].unicast_fail == 1


def test_node_removed_mid_frame_loses_it_and_sends_no_ack():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    h.send(0, 1)
    h.sim.schedule_at(5000, lambda: h.medium.remove_node(1))
    h.sim.run_until(5_000_000)
    assert h.received == []
    assert [ok for _, _, ok in h.resolved] == [False]


def test_node_removed_while_sending_delivers_none_of_its_frame():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    h.send(1, 0)
    busy = []

    def remove():
        h.macs[1].dead = True
        h.medium.remove_node(1)

    h.sim.schedule_at(5000, remove)
    # carrier sense still hears the frame until its scheduled end
    for at in (10_000, 17_000):
        h.sim.schedule_at(at, lambda: busy.append(h.medium.busy_for(0)))
    h.sim.run_until(5_000_000)
    assert h.received == []
    assert busy == [True, False]
    # no ack and no result: the packet stays in the dead MAC's queue
    assert h.resolved == []
    assert len(h.macs[1].queue) == 1


def test_a_node_that_starts_transmitting_loses_the_frame_it_hears():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    done = []
    h.medium.transmit(0, Frame(0, 1, 512, KIND_DATA, "d"), done.append)
    h.sim.schedule_at(5000, lambda: h.medium.transmit(
        1, Frame(1, BROADCAST, 24, KIND_DATA, "b"), lambda ok: None))
    h.sim.run_until(1_000_000)
    assert [a for _, a, f in h.received if f.src == 0] == []
    assert done == [False]


def test_hidden_pair_collides_at_common_receiver_only():
    # 0 and 2 cannot hear each other; both reach 1; 3 hears only 0
    h = Harness({0: Position(0, 0), 1: Position(200, 0),
                 2: Position(400, 0), 3: Position(-200, 0)})
    h.send(0, BROADCAST)
    h.send(2, BROADCAST)
    h.sim.run_until(1_000_000)
    got = {(a, f.src) for _, a, f in h.received}
    assert (1, 0) not in got and (1, 2) not in got
    assert (3, 0) in got
    assert h.macs[0].broadcast_done == 1
    assert h.macs[2].broadcast_done == 1


def test_carrier_sense_defers_to_an_audible_ongoing_frame():
    h = Harness({0: Position(0, 0), 1: Position(100, 0), 2: Position(50, 50)})
    h.send(0, 1)
    h.sim.schedule_at(5000, lambda: h.send(2, 1, payload=50))
    h.sim.run_until(1_000_000)
    # 2 heard 0's frame in flight, waited, and delivered cleanly afterwards
    assert {(a, f.src) for _, a, f in h.received} == {(1, 0), (1, 2)}
    assert all(ok for _, _, ok in h.resolved)
    late = max(t for t, a, f in h.received if f.src == 2)
    assert late > 16896  # deferred past the first frame's airtime


def test_broadcast_losses_draw_per_receiver():
    layout = {0: Position(0, 0), 1: Position(50, 0), 2: Position(240, 0)}
    h = Harness(layout, radio=DEFAULT, seed=5)
    n = 400
    for i in range(n):
        h.sim.schedule_at(i * 5000,
                          lambda: h.macs[0].enqueue(
                              Frame(0, BROADCAST, 50, KIND_DATA, "b")))
    h.sim.run_until(n * 5000 + 1_000_000)
    near = sum(1 for _, a, _ in h.received if a == 1)
    far = sum(1 for _, a, _ in h.received if a == 2)
    p_near = reception_probability(50.0, DEFAULT)
    p_far = reception_probability(240.0, DEFAULT)
    assert abs(near / n - p_near) < 0.05
    assert abs(far / n - p_far) < 0.06
    # joint frequency near the product: the draws are per-link, not per-frame
    ticks_near = {t for t, a, _ in h.received if a == 1}
    both = sum(1 for t, a, _ in h.received if a == 2 and t in ticks_near)
    assert abs(both / n - p_near * p_far) < 0.06


def test_queue_overflow_drops_the_ninth_frame():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    results = [h.send(0, 1) for _ in range(9)]
    assert results == [True] * 8 + [False]
    assert h.macs[0].queue_drops == 1
    h.sim.run_until(10_000_000)
    assert h.macs[0].unicast_ok == 8


def test_mac_conservation_holds_mid_run_and_at_end():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    for _ in range(5):
        h.send(0, 1)
    h.sim.run_until(20_000)  # one frame out, four still queued
    assert h.macs[0].conserved()
    h.sim.run_until(10_000_000)
    assert h.macs[0].conserved()
    assert h.macs[0].unicast_ok == 5


def test_dead_mac_rejects_frames():
    h = Harness({0: Position(0, 0), 1: Position(100, 0)})
    h.macs[0].dead = True
    assert h.send(0, 1) is False


def _attempts_in_flight(h, mac):
    """Pending _attempt events of mac, plus one if its frame is on the air."""
    fns = [e[2] for e in h.sim._queue] + [e[1] for e in h.sim._due]
    return fns.count(mac._attempt) + (mac.addr in h.medium._on_air)


def test_a_frame_enqueued_by_the_result_callback_keeps_one_attempt_in_flight():
    # 2 is out of range of 0, so frames to it fail after every retry; 1 also
    # broadcasts at the start, so it defers while 0 sends
    h = Harness({0: Position(0, 0), 1: Position(100, 0), 2: Position(300, 0)})
    mac = h.macs[0]
    frames = [Frame(0, dst, 61, KIND_DATA, str(i))
              for i, dst in enumerate((1, 2, 1, 1, 1))]
    # 0 is acked on an emptied queue, 1 fails on an emptied queue, and 2 is
    # acked with 3 still queued
    follow = {"0": frames[1:2], "1": frames[2:4], "2": frames[4:]}
    resolved = []

    def on_result(frame, delivered):
        resolved.append((frame.label, delivered))
        for nxt in follow.get(frame.label, ()):
            assert mac.enqueue(nxt)

    mac.on_result = on_result
    sent = []
    transmit = h.medium.transmit

    def record(sender, frame, on_done):
        sent.append((sender, frame.label))
        transmit(sender, frame, on_done)

    h.medium.transmit = record
    assert mac.enqueue(frames[0]) and h.send(1, BROADCAST, 20)
    while True:
        for m in h.macs.values():
            assert _attempts_in_flight(h, m) == (1 if m.queue else 0)
            assert m.conserved()
        if not h.sim.pending():
            break
        h.sim.run_until(h.sim.now if h.sim._due else h.sim._queue[0][0])
    mine = [label for sender, label in sent if sender == 0]
    assert mine == ["0"] + ["1"] * (1 + MacParams().max_retries) + ["2", "3", "4"]
    assert resolved == [("0", True), ("1", False), ("2", True), ("3", True),
                        ("4", True)]
    assert h.macs[1].broadcast_done == 1


def test_a_unicast_draws_at_its_destination_only_and_leaves_no_state():
    # 1, 2 and 3 are all in range of 0 over lossy links; only 1 is addressed
    h = Harness({0: Position(0, 0), 1: Position(100, 0), 2: Position(0, 120),
                 3: Position(-150, 0)}, radio=DEFAULT)
    streams = {a: h.sim.node_stream(a) for a in (1, 2, 3)}
    before = {a: rng.getstate() for a, rng in streams.items()}
    done = []
    h.medium.transmit(0, Frame(0, 1, 61, KIND_DATA, "d"), done.append)
    assert all(h.medium.busy_for(a) for a in (0, 1, 2, 3))
    h.sim.run_until(1_000_000)
    assert len(done) == 1
    assert streams[1].getstate() != before[1]
    assert {a: streams[a].getstate() for a in (2, 3)} == \
           {a: before[a] for a in (2, 3)}
    assert h.medium._on_air == {} and h.medium._lost == {}
    assert not any(h.medium.busy_for(a) for a in (0, 1, 2, 3))


# -- the medium against a reference model ----------------------------------


class StampMedium:
    """Reference collision model: per-node hearing counts and stamps.

    Each node counts the frames arriving at it now and keeps a stamp that
    moves whenever a frame starts arriving there or the node starts to
    transmit; a reception is intact if its receiver was idle at the start
    and the stamp has not moved by the end.  It does work for every
    in-range neighbor on every frame, which the medium avoids; the two must
    agree on every delivery, every result, every carrier-sense answer and
    every loss draw.
    """

    def __init__(self, sim, radio):
        self.sim = sim
        self.radio = radio
        self.positions = {}
        self._receive_fns = {}
        self._links = {}
        self._hearing = {}
        self._stamp = {}
        self._transmitting = set()

    def add_node(self, addr, position, receive_fn):
        self.positions[addr] = position
        self._receive_fns[addr] = receive_fn
        self._hearing[addr] = 0
        self._stamp[addr] = 0

    def finalize(self):
        addrs = sorted(self.positions)
        for a in addrs:
            links = []
            for b in addrs:
                if b == a:
                    continue
                dist = self.positions[a].distance_to(self.positions[b])
                prob = reception_probability(dist, self.radio)
                if prob > 0.0:
                    links.append((b, prob, self.sim.node_stream(b),
                                  self._receive_fns[b]))
            self._links[a] = links

    def remove_node(self, addr):
        self.positions.pop(addr, None)
        self._receive_fns.pop(addr, None)
        self._stamp[addr] += 1
        transmitting = addr in self._transmitting
        for nbr, *_ in self._links.pop(addr, ()):
            self._links[nbr] = [e for e in self._links[nbr] if e[0] != addr]
            if transmitting:
                self._stamp[nbr] += 1

    def busy_for(self, addr):
        return self._hearing[addr] > 0 or addr in self._transmitting

    def transmit(self, sender, frame, on_done):
        if sender in self._transmitting:
            raise SimulationError(f"node {sender} is already transmitting")
        self._transmitting.add(sender)
        hearing, stamp = self._hearing, self._stamp
        stamp[sender] += 1
        links = self._links.get(sender, ())
        marks = []
        for entry in links:
            nbr = entry[0]
            stamp[nbr] += 1
            marks.append(-1 if hearing[nbr] or nbr in self._transmitting
                         else stamp[nbr])
            hearing[nbr] += 1
        airtime = Medium.airtime_ticks(self, frame.payload_bytes)
        self.sim.schedule_at(self.sim.now + airtime, lambda: self._finish(
            sender, frame, links, marks, on_done))

    def _finish(self, sender, frame, links, marks, on_done):
        self._transmitting.discard(sender)
        broadcast = frame.dst == BROADCAST
        ok = broadcast
        deliveries = []
        for entry, mark in zip(links, marks):
            nbr = entry[0]
            self._hearing[nbr] -= 1
            if mark != self._stamp[nbr] or not (broadcast or nbr == frame.dst):
                continue
            if entry[1] >= 1.0 or entry[2].random() < entry[1]:
                deliveries.append(entry)
                ok = ok or nbr == frame.dst
        for entry in deliveries:
            entry[3](frame, sender)
        on_done(ok)


# frames start on whole units and every airtime is a whole number of units,
# so many frames start on the very tick another ends
UNIT = 256
PAYLOADS = (0, 8, 16, 24)  # 2, 3, 4 and 5 units of airtime
LAST_TICK = 40 * UNIT


def _run_medium(medium_cls, radio, positions, frames, removals, probes):
    """Drive one medium through a script; return its log and node streams.

    A frame whose sender is on the air or removed is skipped, as the MAC
    would hold it; a frame with a follow-up makes its sender send again
    from inside its own completion, on the tick the first frame ends.
    """
    sim = Simulator(7)
    medium = medium_cls(sim, radio)
    log = []
    sending, removed = set(), set()
    for addr, pos in positions.items():
        medium.add_node(addr, pos, lambda frame, sender, a=addr:
                        log.append(("rx", sim.now, a, sender)))
    medium.finalize()

    def send(src, dst, payload, follow):
        if src in sending or src in removed:
            return
        sending.add(src)

        def done(ok):
            sending.discard(src)
            log.append(("done", sim.now, src, ok))
            if follow is not None:
                send(src, follow, payload, None)

        medium.transmit(src, Frame(src, dst, payload, KIND_CONTROL, "c"), done)

    def remove(addr):
        if addr not in removed:
            removed.add(addr)
            medium.remove_node(addr)

    def probe(addr):
        log.append(("busy", sim.now, addr, medium.busy_for(addr)))

    for unit, src, dst, payload, follow in frames:
        sim.schedule_at(unit * UNIT,
                        lambda a=(src, dst, payload, follow): send(*a))
    for tick, addr in removals:
        sim.schedule_at(tick, lambda a=addr: remove(a))
    for tick, addr in probes:
        sim.schedule_at(tick, lambda a=addr: probe(a))
    sim.run_until(LAST_TICK + 20 * UNIT)
    assert not sending
    return log, [sim.node_stream(a).getstate() for a in positions]


@st.composite
def medium_scripts(draw):
    n = draw(st.integers(3, 8))
    radio = RadioParams(range_m=draw(st.sampled_from((60.0, 120.0, 250.0))),
                        p_edge=draw(st.sampled_from((0.3, 0.8, 1.0))))
    positions = {a: Position(draw(st.integers(0, 300)), draw(st.integers(0, 300)))
                 for a in range(n)}
    node = st.integers(0, n - 1)
    # a unicast may go to any node, in range or not; -1 is broadcast
    dst = st.integers(-1, n - 1).map(lambda d: BROADCAST if d < 0 else d)
    frames = draw(st.lists(st.tuples(
        st.integers(0, 30), node, dst, st.sampled_from(PAYLOADS),
        st.none() | dst), min_size=1, max_size=16))
    frames = [(u, s, BROADCAST if d == s else d, p,
               BROADCAST if f == s else f) for u, s, d, p, f in frames]
    # removals land inside a drawn frame's airtime, at its sender or its
    # destination, or at any node at any tick
    inside = st.tuples(st.sampled_from(frames), st.integers(1, 5 * UNIT - 1),
                       st.booleans()).map(
        lambda t: (t[0][0] * UNIT + t[1],
                   t[0][1] if t[2] or t[0][2] == BROADCAST else t[0][2]))
    removals = draw(st.lists(inside | st.tuples(st.integers(0, LAST_TICK), node),
                             max_size=3))
    probes = draw(st.lists(st.tuples(st.integers(0, LAST_TICK), node),
                           max_size=12))
    return radio, positions, frames, removals, probes


@settings(max_examples=300)
@given(medium_scripts())
def test_medium_agrees_with_the_stamp_model(script):
    assert _run_medium(Medium, *script) == _run_medium(StampMedium, *script)


# -- the link table ------------------------------------------------------------


def _all_pairs_links(medium: Medium) -> list:
    """The link table measured from both ends of every pair, row by row in
    address order: the oracle finalize must match entry for entry."""
    addrs = sorted(medium.positions)
    table = []
    for a in addrs:
        row = []
        for b in addrs:
            if b == a:
                continue
            dist = medium.positions[a].distance_to(medium.positions[b])
            prob = reception_probability(dist, medium.radio)
            if prob > 0.0:
                row.append((b, (b, prob, medium.sim.node_stream(b),
                                medium._receive_fns[b])))
        table.append((a, row))
    return table


# multiples of 50 m put many pairs exactly at the 250 m range, as 150-200-250
_coords = st.one_of(st.sampled_from([-250.0 + 50.0 * k for k in range(11)]),
                    st.floats(-400.0, 400.0))


@given(positions=st.dictionaries(st.integers(0, 40),
                                 st.builds(Position, _coords, _coords),
                                 min_size=1, max_size=12),
       p_edge=st.sampled_from([1.0, 0.8, 1e-9]))
@settings(max_examples=150)
def test_link_table_matches_measuring_every_pair_both_ways(positions, p_edge):
    medium = Medium(Simulator(3), RadioParams(p_edge=p_edge))
    for addr, pos in positions.items():
        medium.add_node(addr, pos, lambda frame, sender, a=addr: None)
    medium.finalize()
    built = [(a, list(row.items())) for a, row in medium._links.items()]
    assert built == _all_pairs_links(medium)
