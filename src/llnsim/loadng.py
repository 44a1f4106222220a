"""Reactive hop-count routing: flooded route requests, unicast replies.

A source with no valid route buffers the packet and floods a RREQ; only the
destination answers, with a RREP that retraces the reverse path installed by
the flood and is acknowledged hop by hop.  Routes age out after a lifetime
unless refreshed by data, so slow periodic traffic pays a rediscovery per
packet burst.  Broken links invalidate routes and raise a RERR toward the
source of the packet that exposed them.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .kernel import to_ticks
from .messages import BROADCAST, MsgKind, RouteMsg, next_seq, seq_newer
from .metrics import DISCOVERY_TIMEOUT, NO_ROUTE
from .node import NodeEngine
from .radio import Frame

# link status as verified by the collection-tree handshake
HEARD = "heard"  # we received something from the neighbor
SYM = "sym"  # the neighbor confirmed it also hears us

# module globals: reading an Enum member off its class is slow
_RREQ, _RREP, _RERR = MsgKind.RREQ, MsgKind.RREP, MsgKind.RERR


@dataclass(slots=True)
class RoutingTuple:
    """The route to one destination, kept in ``LoadngNode.routes`` under it."""

    next_hop: int
    metric: int  # hop count toward the destination
    seq: int  # freshness of the information that installed the tuple
    valid_until: int | None  # tick of expiry; None never expires
    status: str = SYM


@dataclass(slots=True)
class Discovery:
    """One in-progress route discovery with its waiting data packets."""

    seq: int
    packets: deque = field(default_factory=deque)


class LoadngNode(NodeEngine):
    # subclasses may pin routes open; reactive routes age out by default
    permanent_routes = False
    # subclasses may let transit hops repair a missing route in place
    transit_discovery = False

    def __init__(self, net, addr: int) -> None:
        super().__init__(net, addr)
        self.params = net.cfg.loadng
        self.routes: dict[int, RoutingTuple] = {}  # destination -> route
        self.seq = 0
        self.pending: dict[int, Discovery] = {}
        self.flood_seen: dict[tuple[int, int], int] = {}  # (orig, seq) -> best metric
        self.reply_seq: dict[tuple[int, int], int] = {}
        self.lifetime_ticks = to_ticks(self.params.route_lifetime)
        self.ntt_ticks = to_ticks(self.params.net_traversal_time)
        # flood keys are forgotten a hold time after they are first recorded,
        # so an originator's sequence numbers can wrap around safely
        self.hold_ticks = 2 * self.ntt_ticks
        self._key_expiry: deque = deque()  # (expiry tick, key), oldest first

    # -- data plane ---------------------------------------------------------

    def handle_app_send(self, pkt) -> None:
        self._dispatch(pkt, at_source=True)

    def handle_data(self, frame: Frame, prev_hop: int) -> None:
        self._dispatch(frame.packet, at_source=False)

    def _dispatch(self, pkt, at_source: bool) -> None:
        # data rides only confirmed routes: a tuple learned from an overheard
        # flood proves the link one way, so it serves control replies but not
        # application traffic until a unicast exchange confirms it
        tup = self._route(pkt.dst)
        if tup is not None and tup.status == SYM:
            self._forward_data(pkt, tup)
        elif at_source or self.transit_discovery:
            self._buffer_and_discover(pkt)
        else:
            # the route vanished under a packet already in flight; telling
            # the source is what lets it invalidate and rediscover
            self.counters["no_route_drop"] += 1
            self.net.metrics.records.settle(pkt, NO_ROUTE)
            self._send_rerr(pkt.dst, pkt.src)

    def _route(self, dest: int) -> RoutingTuple | None:
        """The route to dest, or None; an expired route is deleted here."""
        tup = self.routes.get(dest)
        if (tup is not None and tup.valid_until is not None
                and tup.valid_until < self.sim.now):
            del self.routes[dest]
            return None
        return tup

    def _forward_data(self, pkt, tup: RoutingTuple) -> None:
        if tup.valid_until is not None:
            tup.valid_until = self.sim.now + self.lifetime_ticks
        self.send_data(pkt, tup.next_hop)

    def _buffer_and_discover(self, pkt) -> None:
        disc = self.pending.get(pkt.dst)
        if disc is None:
            disc = self.pending[pkt.dst] = Discovery(self._originate_rreq(pkt.dst))
        self.hold(disc.packets, self.params.buffer_capacity, pkt)

    def held_packets(self) -> list:
        held = super().held_packets()
        for disc in self.pending.values():
            held.extend(disc.packets)
        return held

    # -- discovery ----------------------------------------------------------

    def _originate_rreq(self, dest: int) -> int:
        self.seq = next_seq(self.seq)
        seq = self.seq
        msg = RouteMsg(MsgKind.RREQ, originator=self.addr, destination=dest,
                       seq=seq)
        self.after_jitter(self.params.rreq_jitter_max,
                          lambda: self.send_control(msg, BROADCAST))
        self.sim.schedule_at(self.sim.now + self.ntt_ticks,
                             lambda: self._discovery_timeout(dest, seq))
        self.counters["rreq_originated"] += 1
        return seq

    def _discovery_timeout(self, dest: int, seq: int) -> None:
        disc = self.pending.get(dest)
        if disc is None or disc.seq != seq:
            return  # already resolved, or a newer attempt owns the entry
        del self.pending[dest]
        self.counters["discovery_timeout"] += 1
        for pkt in disc.packets:
            self.net.metrics.records.settle(pkt, DISCOVERY_TIMEOUT)

    def _update_route(self, dest: int, next_hop: int, metric: int,
                      seq: int) -> bool:
        """Install a confirmed route when fresher, or same-age but shorter."""
        if dest == self.addr:
            return False
        cur = self._route(dest)
        if cur is not None and not (seq_newer(seq, cur.seq)
                                    or (seq == cur.seq and metric < cur.metric)):
            return False
        valid_until = (None if self.permanent_routes
                       else self.sim.now + self.lifetime_ticks)
        self.routes[dest] = RoutingTuple(next_hop, metric, seq, valid_until)
        self._route_available(dest)
        return True

    def _route_available(self, dest: int) -> None:
        disc = self.pending.pop(dest, None)
        if disc is None:
            return
        for pkt in disc.packets:
            self._dispatch(pkt, at_source=True)

    # -- control plane ------------------------------------------------------

    def receive(self, frame: Frame, prev_hop: int) -> None:
        """A RREQ copy goes straight to _process_rreq: flood copies are most
        of the frames a node hears."""
        m = frame.msg
        if m is not None and m.kind is _RREQ:
            self._process_rreq(m, prev_hop)
        else:
            super().receive(frame, prev_hop)

    def handle_msg(self, msg: RouteMsg, prev_hop: int) -> None:
        kind = msg.kind
        if kind is _RREQ:
            self._process_rreq(msg, prev_hop)
        elif kind is _RREP:
            self._process_rrep(msg, prev_hop)
        elif kind is _RERR:
            self._process_rerr(msg, prev_hop)
        else:  # the RREP_ACK that ends one hop of a reply
            self.counters["rrep_ack_in"] += 1

    def _process_rreq(self, m: RouteMsg, prev_hop: int) -> None:
        orig = m.originator
        if orig == self.addr:
            return  # own flood echoed back
        metric = m.hop_count + 1
        seq = m.seq
        # every copy may install a HEARD route to the originator: into an
        # empty slot, or over a HEARD route when fresher, or same-age but
        # shorter.  An overheard flood neither degrades a confirmed route nor
        # extends its life; otherwise steady floods from a chatty
        # destination would keep every route to it eternally fresh
        cur = self._route(orig)
        if cur is None or (cur.status != SYM
                           and (metric < cur.metric if seq == cur.seq
                                else seq_newer(seq, cur.seq))):
            valid_until = (None if self.permanent_routes
                           else self.sim.now + self.lifetime_ticks)
            self.routes[orig] = RoutingTuple(prev_hop, metric, seq,
                                             valid_until, HEARD)
        if not self._first_or_better((orig, seq), metric):
            return  # duplicate with no better path
        if m.destination == self.addr:
            self._generate_rrep(m)
            return
        fwd = m.forwarded()
        self.after_jitter(self.params.rreq_jitter_max,
                          lambda: self.send_control(fwd, BROADCAST))

    def _first_or_better(self, key: tuple[int, int], metric: int) -> bool:
        """Record and accept the first copy of a flood, or a strictly better one."""
        now = self.sim.now
        expiry = self._key_expiry
        while expiry and expiry[0][0] <= now:
            old = expiry.popleft()[1]
            del self.flood_seen[old]
            self.reply_seq.pop(old, None)
        best = self.flood_seen.get(key)
        if best is None:
            expiry.append((now + self.hold_ticks, key))
        elif metric >= best:
            return False
        self.flood_seen[key] = metric
        return True

    def _generate_rrep(self, req: RouteMsg) -> None:
        # improvements re-reply under the same seq so forwarders prefer the
        # shorter path via the same-seq-better-metric rule
        key = (req.originator, req.seq)
        rep_seq = self.reply_seq.get(key)
        if rep_seq is None:
            self.seq = next_seq(self.seq)
            rep_seq = self.seq
            self.reply_seq[key] = rep_seq
        msg = RouteMsg(MsgKind.RREP, originator=self.addr,
                       destination=req.originator, seq=rep_seq)
        self.counters["rrep_originated"] += 1
        self._unicast_toward(msg)

    def _unicast_toward(self, msg: RouteMsg) -> None:
        """Send a RREP or RERR one hop along the route to its destination."""
        tup = self._route(msg.destination)
        if tup is None:
            self.counters[f"{msg.kind.value}_no_route"] += 1
            return
        self.send_control(msg, tup.next_hop)

    def _process_rrep(self, m: RouteMsg, prev_hop: int) -> None:
        self._update_route(m.originator, prev_hop, m.hop_count + 1, m.seq)
        ack = RouteMsg(MsgKind.RREP_ACK, originator=self.addr,
                       destination=prev_hop)
        self.send_control(ack, prev_hop)
        if m.destination == self.addr:
            return  # the install above released any buffered packets
        self._unicast_toward(m.forwarded())

    def _process_rerr(self, m: RouteMsg, prev_hop: int) -> None:
        tup = self.routes.get(m.unreachable)
        if tup is not None and tup.next_hop == prev_hop:
            del self.routes[m.unreachable]
        if m.destination != self.addr:
            self._unicast_toward(m.forwarded())

    # -- failure handling ---------------------------------------------------

    def _send_rerr(self, unreachable: int, toward: int) -> None:
        if toward != self.addr:
            self._unicast_toward(RouteMsg(MsgKind.RERR, originator=self.addr,
                                          destination=toward,
                                          unreachable=unreachable))

    def on_broken_link(self, frame: Frame) -> None:
        pkt = frame.packet
        invalidated = [dest for dest, tup in self.routes.items()
                       if tup.next_hop == frame.dst]
        for dest in invalidated:
            del self.routes[dest]
        self.counters["link_breaks"] += 1
        if invalidated and pkt.src != self.addr:
            self._send_rerr(pkt.dst, pkt.src)
