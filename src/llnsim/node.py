"""The engine base every backend shares: MAC glue, send paths and timing helpers."""
from __future__ import annotations

from collections import defaultdict

from .kernel import Simulator, draw_uniform, to_ticks
from .messages import BASE_SIZES, LABELS, MsgKind, RouteMsg, encoded_size
from .metrics import BUFFER_OVERFLOW, MAC_DROP, NO_ROUTE
from .radio import Frame, KIND_CONTROL, KIND_DATA, NodeMac

# a module global: reading an Enum member off its class is slow
_HELLO = MsgKind.HELLO


class NodeEngine:
    """Base class for one node's routing logic; subclasses implement a backend."""

    def __init__(self, net, addr: int) -> None:
        self.net = net
        self.sim: Simulator = net.sim
        self.addr = addr
        self.rng = self.sim.node_stream(addr)
        self.mac = NodeMac(self.sim, net.medium, addr, net.cfg.mac,
                           on_result=self._mac_result)
        self.counters: dict[str, int] = defaultdict(int)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Called once at t=0 before any traffic."""

    def held_packets(self) -> list:
        """Application packets this node holds: its queued data frames."""
        return [f.packet for f in self.mac.queue if f.kind == KIND_DATA]

    # -- radio glue --------------------------------------------------------

    def receive(self, frame: Frame, prev_hop: int) -> None:
        # the medium hands a node only frames addressed to it (or broadcast),
        # and nothing at all once the node is removed
        if frame.kind == KIND_CONTROL:
            self.handle_msg(frame.msg, prev_hop)
        elif frame.packet.dst == self.addr:
            self.net.app_delivered(frame.packet, self.addr)
        else:
            self.handle_data(frame, prev_hop)

    def _mac_result(self, frame: Frame, delivered: bool) -> None:
        if delivered:
            self.on_link_ok(frame)
            return
        if frame.kind == KIND_DATA:
            self.net.metrics.records.settle(frame.packet, MAC_DROP)
            self.on_broken_link(frame)
        else:
            self.counters[f"lost_{frame.label}"] += 1
            self.on_control_lost(frame)

    def on_link_ok(self, frame: Frame) -> None:
        """A unicast frame toward frame.dst was acknowledged."""

    def on_broken_link(self, frame: Frame) -> None:
        """A data frame exhausted its retries toward frame.dst."""

    def on_control_lost(self, frame: Frame) -> None:
        """A unicast control frame exhausted its retries toward frame.dst."""

    # -- send and timing helpers -------------------------------------------

    def send_control(self, msg: RouteMsg, dst: int) -> None:
        kind = msg.kind
        size = encoded_size(msg) if kind is _HELLO else BASE_SIZES[kind]
        self.mac.enqueue(Frame(self.addr, dst, size, KIND_CONTROL,
                               LABELS[kind], msg))

    def send_data(self, pkt, next_hop: int, header_bytes: int = 0,
                  source_route: tuple[int, ...] = ()) -> None:
        if pkt.hops >= self.net.hop_limit:
            # routing transients can form short-lived loops; cut them here
            self.counters["hop_limit_drop"] += 1
            self.net.metrics.records.settle(pkt, NO_ROUTE)
            return
        pkt.hops += 1
        frame = Frame(self.addr, next_hop, pkt.payload_bytes + header_bytes,
                      KIND_DATA, "data", None, pkt, source_route)
        if not self.mac.enqueue(frame):
            self.net.metrics.records.settle(pkt, MAC_DROP)

    def after_jitter(self, hi: float, fn, lo: float = 0.0) -> None:
        """Run fn after a delay drawn uniformly on [lo, hi] seconds."""
        self.sim.schedule_at(
            self.sim.now + to_ticks(draw_uniform(self.rng, lo, hi)), fn)

    def hold(self, buffer, capacity: int, pkt) -> None:
        """Queue pkt in buffer, or drop it as an overflow when buffer is full."""
        if len(buffer) >= capacity:
            self.counters["buffer_overflow"] += 1
            self.net.metrics.records.settle(pkt, BUFFER_OVERFLOW)
        else:
            buffer.append(pkt)

    # -- backend hooks -----------------------------------------------------

    def handle_app_send(self, pkt) -> None:
        raise NotImplementedError

    def handle_msg(self, msg: RouteMsg, prev_hop: int) -> None:
        raise NotImplementedError

    def handle_data(self, frame: Frame, prev_hop: int) -> None:
        """A data frame to forward: its packet is for another node."""
        raise NotImplementedError
