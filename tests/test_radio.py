"""Loss curve, airtime, collisions, and the CSMA retry discipline."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llnsim.kernel import Simulator
from llnsim.messages import BROADCAST
from llnsim.radio import (Frame, KIND_DATA, LINK_HEADER_BYTES, MacParams,
                          Medium, NodeMac, Position, RadioParams,
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
