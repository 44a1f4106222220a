"""Lossy-disc radio medium with collision detection, plus a CSMA link layer.

Reception probability falls off quadratically with distance inside the radio
range and is zero beyond it.  Two transmissions whose airtimes overlap at a
common in-range receiver destroy each other there (no capture).  Unicast
frames are retransmitted on missing link-layer acks; acks themselves are
idealized: never lost and free of airtime.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .kernel import (Checked, SimulationError, Simulator, TICKS_PER_SECOND, bounded,
                     draw_uniform, seconds, to_ticks)
from .messages import BROADCAST

# every frame pays this many bytes of link header on the air
LINK_HEADER_BYTES = 16

KIND_CONTROL = "control"
KIND_DATA = "data"


@dataclass(frozen=True, slots=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RadioParams(Checked):
    range_m: float = bounded(250.0, 0, strict=True)
    p_edge: float = bounded(0.8, 0, strict=True, hi=1.0)  # reception chance at full range
    bitrate: int = bounded(250_000, 0, strict=True)  # bits per second


@dataclass(frozen=True)
class MacParams(Checked):
    max_retries: int = bounded(3, 0, hi=7)  # IEEE 802.15.4 macMaxFrameRetries
    backoff_unit: float = seconds(0.00032, strict=True)
    max_backoff_exponent: int = bounded(5, 0, hi=8)  # IEEE 802.15.4 macMaxBE
    queue_capacity: int = bounded(8, 1)


def reception_probability(distance: float, radio: RadioParams) -> float:
    """Chance a single frame crosses a link of the given length."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance > radio.range_m:
        return 0.0
    ratio = distance / radio.range_m
    return 1.0 - (1.0 - radio.p_edge) * ratio * ratio


@dataclass(slots=True)
class Frame:
    """One link-layer transmission unit; a fresh Frame is built per hop."""

    src: int
    dst: int
    payload_bytes: int
    kind: str
    label: str = ""  # control subtype for the overhead log, e.g. "rreq_trigger"
    msg: object = None
    packet: object = None
    source_route: tuple[int, ...] = ()


class Medium:
    """Shared radio channel: static positions, precomputed link probabilities.

    A frame on the air keeps its sender's row of in-range receivers from its
    start; a new frame is checked against the frames already on the air, and
    only those it overlaps keep a set of the receivers they lost.  Every
    in-range neighbor counts, so carrier sense and collisions see frames it
    will discard; loss draws are only spent on receivers that could accept
    the frame, so a unicast costs its destination only.
    """

    def __init__(self, sim: Simulator, radio: RadioParams,
                 on_control_tx=None) -> None:
        self.sim = sim
        self.radio = radio
        self.on_control_tx = on_control_tx
        self.positions: dict[int, Position] = {}
        self._receive_fns: dict[int, object] = {}
        # addr -> {nbr: (nbr, prob, nbr_rng, nbr_receive_fn)}, by address
        self._links: dict[int, dict] = {}
        self._on_air: dict[int, dict] = {}  # sender -> its row at the start
        self._lost: dict[int, set] = {}  # sender -> receivers its frame lost
        self._airtimes: dict[int, int] = {}  # payload bytes -> airtime ticks

    def add_node(self, addr: int, position: Position, receive_fn) -> None:
        if addr in self.positions:
            raise SimulationError(f"duplicate node address {addr}")
        self.positions[addr] = position
        self._receive_fns[addr] = receive_fn

    def finalize(self) -> None:
        """Build per-node link tables once all nodes are placed.

        Each pair is measured once: hypot ignores sign and IEEE subtraction
        negates exactly, so both directions get the bit-identical
        probability.  Rows fill in address order.
        """
        addrs = sorted(self.positions)
        # (rng, receive_fn) per node, the tail of every entry naming it
        ends = {a: (self.sim.node_stream(a), self._receive_fns[a]) for a in addrs}
        links = self._links
        for a in addrs:
            links[a] = {}
        for i, a in enumerate(addrs):
            pos_a = self.positions[a]
            row_a = links[a]
            for b in addrs[i + 1:]:
                prob = reception_probability(
                    pos_a.distance_to(self.positions[b]), self.radio)
                if prob > 0.0:
                    row_a[b] = (b, prob, *ends[b])
                    links[b][a] = (a, prob, *ends[a])

    def remove_node(self, addr: int) -> None:
        """Scripted removal: the node stops hearing and being heard, and a
        frame it is sending reaches no one."""
        self.positions.pop(addr, None)
        # it loses the frames it was hearing: a unicast to it is not acked.
        # Its own frame reaches no one but stays on the air to its scheduled
        # end, so carrier sense still hears it
        for sender, row in self._on_air.items():
            self._lost.setdefault(sender, set()).update(
                row if sender == addr else (addr,))
        # links are symmetric, so only the node's neighbors list it; their
        # rows are replaced, not edited, as frames on the air still use them
        links = self._links
        for nbr in links.pop(addr, ()):
            links[nbr] = {b: e for b, e in links[nbr].items() if b != addr}

    def airtime_ticks(self, payload_bytes: int) -> int:
        bits = (payload_bytes + LINK_HEADER_BYTES) * 8
        return (bits * TICKS_PER_SECOND) // self.radio.bitrate

    def busy_for(self, addr: int) -> bool:
        """Carrier sense: the node hears an ongoing frame or is on the air itself."""
        on_air = self._on_air
        if addr in on_air:
            return True
        for row in on_air.values():
            if addr in row:
                return True
        return False

    def transmit(self, sender: int, frame: Frame, on_done) -> None:
        """Put a frame on the air; on_done(ok) fires when the airtime ends.

        ok reports whether the unicast destination decoded the frame
        (always True for broadcast).  The caller must keep the sender's
        radio idle: one frame in flight per node.
        """
        on_air = self._on_air
        if sender in on_air:
            raise SimulationError(f"node {sender} is already transmitting")
        if self.on_control_tx is not None and frame.kind == KIND_CONTROL:
            self.on_control_tx(self.sim.now, frame.label, sender,
                               frame.payload_bytes + LINK_HEADER_BYTES)
        row = self._links.get(sender, {})
        if on_air:
            for other, other_row in on_air.items():
                # a receiver of both decodes neither, and a node on the air
                # decodes nothing: the new sender loses what it was hearing and
                # a transmitting neighbor loses the new frame
                hit = row.keys() & other_row.keys()
                if sender in other_row:
                    hit.add(sender)
                if other in row:
                    hit.add(other)
                if hit:
                    self._lost.setdefault(other, set()).update(hit)
                    self._lost.setdefault(sender, set()).update(hit)
        on_air[sender] = row
        size = frame.payload_bytes
        airtime = self._airtimes.get(size)
        if airtime is None:
            airtime = self._airtimes[size] = self.airtime_ticks(size)
        self.sim.schedule_at(self.sim.now + airtime,
                             lambda: self._finish(sender, frame, on_done))

    def _finish(self, sender: int, frame: Frame, on_done) -> None:
        row = self._on_air.pop(sender)
        lost = self._lost.pop(sender, ())
        dst = frame.dst
        ok = dst == BROADCAST
        entries = row.values() if ok else (row[dst],) if dst in row else ()
        # one draw per receiver that could accept the frame, in row order
        deliveries = [entry for entry in entries if entry[0] not in lost
                      and (entry[1] >= 1.0 or entry[2].random() < entry[1])]
        ok = ok or bool(deliveries)
        # dispatch after the loss draws so handlers cannot perturb them
        for entry in deliveries:
            entry[3](frame, sender)
        on_done(ok)


class NodeMac:
    """Per-node CSMA queue: carrier sense, binary-exponential backoff, and
    acked retransmission for unicast frames.  Broadcast goes out once.  A live
    MAC has one attempt pending, or its head frame on the air, exactly while
    its queue is not empty; a resolved frame leaves the queue and the next
    attempt is scheduled before on_result runs, so on_result may enqueue."""

    def __init__(self, sim: Simulator, medium: Medium, addr: int,
                 params: MacParams, on_result) -> None:
        self.sim = sim
        self.medium = medium
        self.addr = addr
        self.params = params
        self.rng = sim.node_stream(addr)
        self.on_result = on_result  # fn(frame, delivered: bool) after unicast resolution
        self.queue: deque[Frame] = deque()
        self.dead = False
        self._attempt_no = 0
        self._retries = 0
        # conservation counters
        self.accepted = 0
        self.queue_drops = 0
        self.unicast_ok = 0
        self.unicast_fail = 0
        self.broadcast_done = 0
        self.transmissions = 0

    def enqueue(self, frame: Frame) -> bool:
        """Admit a frame to the send queue; False means it was dropped full."""
        if self.dead:
            return False
        if len(self.queue) >= self.params.queue_capacity:
            self.queue_drops += 1
            return False
        self.queue.append(frame)
        self.accepted += 1
        if len(self.queue) == 1:
            self.sim.schedule_at(self.sim.now, self._attempt)
        return True

    def _backoff_ticks(self) -> int:
        exponent = min(self._attempt_no, self.params.max_backoff_exponent)
        window = self.params.backoff_unit * (1 << exponent)
        return to_ticks(draw_uniform(self.rng, 0.0, window))

    def _attempt(self) -> None:
        if self.dead:
            return
        if self.medium.busy_for(self.addr):
            delay = self._backoff_ticks()
            self._attempt_no += 1
            self.sim.schedule_at(self.sim.now + delay, self._attempt)
            return
        self.transmissions += 1
        self.medium.transmit(self.addr, self.queue[0], self._tx_done)

    def _tx_done(self, ok: bool) -> None:
        if self.dead:
            return
        # only a unicast can fail: the medium reports a broadcast ok
        if not ok and self._retries < self.params.max_retries:
            # a missing ack usually means a collision that carrier sense
            # cannot prevent: two senders hidden from each other released
            # onto the same receiver.  Their frames outlast one backoff
            # window, so only retransmission waits that keep doubling give
            # the pair a chance to interleave instead of re-colliding
            self._retries += 1
            self._attempt_no += 1
            window = (self.params.backoff_unit
                      * (1 << (self.params.max_backoff_exponent + self._retries)))
            self.sim.schedule_at(
                self.sim.now + to_ticks(draw_uniform(self.rng, 0.0, window)),
                self._attempt)
            return
        queue = self.queue
        frame = queue.popleft()
        self._attempt_no = 0
        self._retries = 0
        if queue:
            self.sim.schedule_at(self.sim.now, self._attempt)
        if frame.dst == BROADCAST:
            self.broadcast_done += 1
        elif ok:
            self.unicast_ok += 1
            self.on_result(frame, True)
        else:
            self.unicast_fail += 1
            self.on_result(frame, False)

    def conserved(self) -> bool:
        """Every admitted frame is resolved or still queued."""
        done = self.unicast_ok + self.unicast_fail + self.broadcast_done
        return self.accepted == done + len(self.queue)
