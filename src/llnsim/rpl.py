"""Proactive tree routing: trickle-timed DIO beacons, hop-count ranks,
periodic DAO reports, and non-storing downward source routes.

Every joined router advertises its rank on a trickle timer that doubles
while the network is quiet and snaps back to the minimum on inconsistency
(parent change, rank change, or a heard solicitation).  Routers pick the
lowest-rank neighbor as preferred parent and forward all upward traffic to
it.  Reachability flows to the root in periodic DAOs naming each router's
parent; the root splices those into full source routes that ride on
downward data, costing two bytes per remaining hop.
"""
from __future__ import annotations

from collections import deque

from .kernel import to_ticks
from .messages import BROADCAST, MsgKind, RouteMsg
from .metrics import NO_ROUTE, UP
from .node import NodeEngine
from .radio import Frame
from .scenario import CONCENTRATOR

# module globals: reading an Enum member off its class is slow
_DIO, _DIS = MsgKind.DIO, MsgKind.DIS

ROOT_RANK = 1

# consecutive unicast failures toward the parent tolerated before eviction;
# a single exhausted frame is routinely a collision burst, not a dead link
PARENT_STRIKE_LIMIT = 2


class RplNode(NodeEngine):
    def __init__(self, net, addr: int) -> None:
        super().__init__(net, addr)
        self.rpl = net.cfg.rpl
        self.is_root = addr == CONCENTRATOR
        self.rank: int | None = ROOT_RANK if self.is_root else None
        self.preferred: int | None = None
        self.parent_set: dict[int, int] = {}  # neighbor -> advertised rank
        self.buffer: deque = deque()  # upward data held while detached
        self._strikes = 0
        self._dis_running = False
        self._dao_running = False
        # trickle state
        self.imin = to_ticks(self.rpl.dio_interval_min)
        self.imax = self.imin << self.rpl.dio_interval_doublings
        self.interval = self.imin
        self.heard = 0
        self._epoch = 0  # 0 until trickle starts; bumping it cancels stale events
        # root-only: last reported parent per router, spliced into source routes
        self.parent_links: dict[int, int] = {}

    def start(self) -> None:
        if self.is_root:
            self._trickle_begin()
        else:
            self._dis_running = True
            delay = int(self.rng.random() * to_ticks(self.rpl.dis_interval))
            self.sim.schedule_at(self.sim.now + delay, self._send_dis)

    def held_packets(self) -> list:
        return super().held_packets() + list(self.buffer)

    # -- trickle ------------------------------------------------------------

    def _trickle_begin(self) -> None:
        self._epoch += 1
        epoch = self._epoch
        self.heard = 0
        half = self.interval // 2
        offset = half + int(self.rng.random() * (self.interval - half))
        now = self.sim.now
        self.sim.schedule_at(now + offset, lambda: self._trickle_fire(epoch))
        self.sim.schedule_at(now + self.interval, lambda: self._trickle_end(epoch))

    def _trickle_fire(self, epoch: int) -> None:
        if epoch != self._epoch or self.rank is None:
            return
        if self.heard < self.rpl.dio_redundancy_constant:
            msg = RouteMsg(MsgKind.DIO, originator=CONCENTRATOR,
                           destination=BROADCAST, rank=self.rank)
            self.send_control(msg, BROADCAST)

    def _trickle_end(self, epoch: int) -> None:
        if epoch != self._epoch or self.mac.dead:
            return
        self.interval = min(self.interval * 2, self.imax)
        self._trickle_begin()

    def _inconsistency(self) -> None:
        if self._epoch and self.interval == self.imin:
            # already beaconing at the fastest cadence; restarting here
            # would let a steady stream of solicitations cancel every
            # pending fire and silence the beacon entirely
            return
        self.interval = self.imin
        self._trickle_begin()

    # -- control plane ------------------------------------------------------

    def handle_msg(self, msg: RouteMsg, prev_hop: int) -> None:
        kind = msg.kind
        if kind is _DIO:
            self._process_dio(msg, prev_hop)
        elif kind is _DIS:
            self._process_dis(msg, prev_hop)
        else:  # a DAO on its way to the root
            self._process_dao(msg, prev_hop)

    def _process_dio(self, m: RouteMsg, prev_hop: int) -> None:
        if self.is_root:
            self.heard += 1
            return
        self.parent_set[prev_hop] = m.rank
        old_rank, old_parent = self.rank, self.preferred
        self._reselect()
        if self.rank == old_rank and self.preferred == old_parent:
            self.heard += 1
            return
        if self.preferred != old_parent:
            self._strikes = 0  # a fresh parent starts with a clean record
        if old_rank is None:
            self._on_join()
        self._inconsistency()

    def _reselect(self) -> None:
        if not self.parent_set:
            self.rank = None
            self.preferred = None
            return
        # lowest advertised rank wins; ties broken by lowest address
        best = min(self.parent_set, key=lambda a: (self.parent_set[a], a))
        self.preferred = best
        self.rank = self.parent_set[best] + 1

    def _process_dis(self, m: RouteMsg, prev_hop: int) -> None:
        if self.rank is not None:
            # a solicitation begs for a beacon: clear this round's
            # suppression so the pending fire is not swallowed, and snap
            # a slow timer back to the fast cadence
            self.heard = 0
            self._inconsistency()

    def _send_dis(self) -> None:
        if self.mac.dead or self.rank is not None:
            self._dis_running = False
            return
        msg = RouteMsg(MsgKind.DIS, originator=self.addr,
                       destination=BROADCAST)
        self.send_control(msg, BROADCAST)
        self.sim.schedule_at(self.sim.now + to_ticks(self.rpl.dis_interval),
                             self._send_dis)

    def _solicit(self) -> None:
        if self._dis_running:
            return
        self._dis_running = True
        self.sim.schedule_at(self.sim.now, self._send_dis)

    def _on_join(self) -> None:
        while self.buffer:
            self._upward(self.buffer.popleft())
        if self._dao_running:
            return  # a rejoin must not stack a second reporting loop
        self._dao_running = True
        delay = int(self.rng.random() * to_ticks(self.rpl.dao_interval))
        self.sim.schedule_at(self.sim.now + delay, self._emit_dao)

    def _emit_dao(self) -> None:
        if self.mac.dead:
            return
        if self.rank is not None and self.preferred is not None:
            msg = RouteMsg(MsgKind.DAO, originator=self.addr,
                           destination=CONCENTRATOR,
                           dao_parent=self.preferred)
            self.send_control(msg, self.preferred)
        self.sim.schedule_at(self.sim.now + to_ticks(self.rpl.dao_interval),
                             self._emit_dao)

    def _process_dao(self, m: RouteMsg, prev_hop: int) -> None:
        if self.is_root:
            self.parent_links[m.originator] = m.dao_parent
            return
        if self.preferred is None:
            self.counters["dao_no_parent"] += 1
            return
        if m.hop_count >= self.net.hop_limit:
            # transient parent loops must not circulate reports forever
            self.counters["dao_hop_limit"] += 1
            return
        self.send_control(m.forwarded(), self.preferred)

    # -- data plane ---------------------------------------------------------

    def handle_app_send(self, pkt) -> None:
        if self.is_root:
            self._downward(pkt)
        else:
            self._upward(pkt)

    def _upward(self, pkt) -> None:
        if self.preferred is None:
            # not joined yet, or between parents; hold a few packets so a
            # short detach window does not shed the traffic crossing us
            self.hold(self.buffer, self.rpl.buffer_capacity, pkt)
        else:
            self.send_data(pkt, self.preferred)

    def _downward(self, pkt) -> None:
        path = self._source_route(pkt.dst)
        if path is None:
            self.counters["no_route_drop"] += 1
            self.net.metrics.records.settle(pkt, NO_ROUTE)
        else:
            self._send_source_routed(pkt, path)

    def _send_source_routed(self, pkt, route) -> None:
        """Send to route[0], carrying the rest; two header bytes per hop."""
        self.send_data(pkt, route[0], header_bytes=2 * len(route),
                       source_route=tuple(route[1:]))

    def _source_route(self, dst: int) -> list[int] | None:
        """Walk reported parents from dst back to here; None when incomplete."""
        hops = [dst]
        cur = dst
        for _ in range(len(self.parent_links)):
            parent = self.parent_links.get(cur)
            if parent is None:
                return None
            if parent == self.addr:
                hops.reverse()
                return hops
            hops.append(parent)
            cur = parent
        return None  # broken or looping report chain

    def handle_data(self, frame: Frame, prev_hop: int) -> None:
        pkt = frame.packet
        if frame.source_route:
            self._send_source_routed(pkt, frame.source_route)
        elif pkt.direction == UP:
            self._upward(pkt)
        else:
            # downward frame with an exhausted hop list that is not for us
            self.counters["no_route_drop"] += 1
            self.net.metrics.records.settle(pkt, NO_ROUTE)

    # -- failure handling ---------------------------------------------------

    def on_link_ok(self, frame: Frame) -> None:
        if frame.dst == self.preferred:
            self._strikes = 0

    def on_broken_link(self, frame: Frame) -> None:
        if frame.dst == self.preferred:
            self._parent_strike()
        elif frame.packet is not None and frame.packet.direction == UP:
            self.counters["upward_break"] += 1  # burst aimed at an ex-parent
        else:
            # stale downward source route; the next DAO round repairs it
            self.counters["downward_break"] += 1

    def on_control_lost(self, frame: Frame) -> None:
        if frame.dst == self.preferred:
            self._parent_strike()

    def _parent_strike(self) -> None:
        self._strikes += 1
        if self._strikes < PARENT_STRIKE_LIMIT:
            self.counters["parent_strike"] += 1
            return
        self._strikes = 0
        self.counters["parent_evictions"] += 1
        # candidates at or above our own rank may sit inside our own
        # subtree; re-attaching there forms a forwarding loop, so keep
        # only neighbors that are provably closer to the root
        old_rank = self.rank
        gone = self.preferred
        self.parent_set = {a: r for a, r in self.parent_set.items()
                           if a != gone and r < old_rank}
        self._reselect()
        if self.rank is None:
            # orphaned: solicit until someone beacons at us again
            self._solicit()
        else:
            self._inconsistency()
