"""Collection-tree extension of the reactive engine.

The root floods a trigger RREQ so every router learns which neighbors it can
hear, each router answers with exactly one jittered HELLO listing those
neighbors, and links confirmed in both directions become symmetric.  At
exactly twice the traversal time after the trigger the root floods a build
RREQ that only crosses symmetric links, installing permanent upward routes;
when the build requests it, every router also unicasts one RREP to the root
so downward routes get installed along the way.  Steady-state traffic then
rides the tree with no further discovery; a router that missed the build
falls back to plain reactive discovery.
"""
from __future__ import annotations

from .kernel import to_ticks
from .messages import BROADCAST, MsgKind, RouteMsg, next_seq
from .loadng import HEARD, SYM, LoadngNode
from .scenario import CONCENTRATOR

# module globals: reading an Enum member off its class is slow
_TRIGGER, _BUILD, _HELLO = MsgKind.TRIGGER, MsgKind.BUILD, MsgKind.HELLO


class CtpNode(LoadngNode):
    # tree routes do not age out; rebuilds, not timeouts, refresh them
    permanent_routes = True
    # a transit hop that loses its tree route repairs in place with a
    # reactive discovery instead of shedding every packet crossing it
    transit_discovery = True

    def __init__(self, net, addr: int) -> None:
        super().__init__(net, addr)
        self.ctp = net.cfg.ctp
        self.is_root = addr == CONCENTRATOR
        self.neighbor_status: dict[int, str] = {}
        self.trigger_received = self.is_root
        # tree floods may take the tree's own traversal time to settle
        self.hold_ticks = 2 * max(self.ntt_ticks,
                                  to_ticks(self.ctp.net_traversal_time))

    def start(self) -> None:
        if self.is_root:
            self.sim.schedule_at(self.sim.now, self._trigger_tree)

    # -- tree construction, root side ---------------------------------------

    def _trigger_tree(self) -> None:
        self.seq = next_seq(self.seq)
        msg = RouteMsg(MsgKind.TRIGGER, originator=self.addr,
                       destination=self.addr, seq=self.seq)
        self.send_control(msg, BROADCAST)
        self._schedule_hello()
        # the build flood is planned the moment the trigger goes out
        build_delay = 2 * to_ticks(self.ctp.net_traversal_time)
        self.sim.schedule_at(self.sim.now + build_delay, self._send_build)
        if self.ctp.rebuild_interval > 0:
            self.sim.schedule_at(self.sim.now + to_ticks(self.ctp.rebuild_interval),
                                 self._trigger_tree)

    def _send_build(self) -> None:
        self.seq = next_seq(self.seq)
        msg = RouteMsg(MsgKind.BUILD, originator=self.addr,
                       destination=self.addr, seq=self.seq,
                       rrep_required=self.ctp.rrep_required)
        self.send_control(msg, BROADCAST)

    # -- tree construction, router side --------------------------------------

    def handle_msg(self, msg: RouteMsg, prev_hop: int) -> None:
        kind = msg.kind
        if kind is _TRIGGER:
            self._process_trigger(msg, prev_hop)
        elif kind is _BUILD:
            self._process_build(msg, prev_hop)
        elif kind is _HELLO:
            self._process_hello(msg, prev_hop)
        else:
            super().handle_msg(msg, prev_hop)

    def _process_trigger(self, m: RouteMsg, prev_hop: int) -> None:
        # any trigger copy proves we hear that neighbor
        self.neighbor_status.setdefault(prev_hop, HEARD)
        if m.originator == self.addr:
            return
        if not self._first_or_better((m.originator, m.seq), 0):
            return  # the trigger is re-broadcast once, improvements or not
        self.trigger_received = True
        fwd = m.forwarded()
        self.after_jitter(self.ctp.rreq_max_jitter,
                          lambda: self.send_control(fwd, BROADCAST))
        self._schedule_hello()

    def _schedule_hello(self) -> None:
        self.after_jitter(self.ctp.hello_max_jitter, self._send_hello,
                          lo=self.ctp.hello_min_jitter)

    def _send_hello(self) -> None:
        # list everything heard by emission time; late re-broadcasts made it in
        # because hello_min_jitter exceeds twice the trigger jitter
        neighbors = tuple(sorted(self.neighbor_status))
        msg = RouteMsg(MsgKind.HELLO, originator=self.addr,
                       destination=BROADCAST, hello_neighbors=neighbors)
        self.send_control(msg, BROADCAST)

    def _process_hello(self, m: RouteMsg, prev_hop: int) -> None:
        if self.addr in m.hello_neighbors:
            self.neighbor_status[prev_hop] = SYM
        else:
            # the neighbor never heard us: leave (or record) one-way evidence
            self.neighbor_status.setdefault(prev_hop, HEARD)
        # HELLOs are strictly one-hop: never forwarded

    def _process_build(self, m: RouteMsg, prev_hop: int) -> None:
        self.neighbor_status.setdefault(prev_hop, HEARD)
        if m.originator == self.addr:
            return
        if not self.trigger_received:
            self.counters["build_without_trigger"] += 1
            return
        if self.neighbor_status.get(prev_hop) != SYM:
            self.counters["build_from_asym"] += 1
            return
        metric = m.hop_count + 1
        if not self._update_route(m.originator, prev_hop, metric, m.seq):
            return  # equal or worse than the tree we already have
        fwd = m.forwarded()
        self.after_jitter(self.ctp.rreq_max_jitter,
                          lambda: self.send_control(fwd, BROADCAST))
        if m.rrep_required and self._first_or_better((m.originator, m.seq), 0):
            self.after_jitter(self.ctp.rreq_max_jitter, self._send_tree_rrep)

    def _send_tree_rrep(self) -> None:
        """One RREP to the root per build, installing downward routes per hop."""
        if self.mac.dead:
            return
        self.seq = next_seq(self.seq)
        msg = RouteMsg(MsgKind.RREP, originator=self.addr,
                       destination=CONCENTRATOR, seq=self.seq)
        self.counters["tree_rrep"] += 1
        self._unicast_toward(msg)

    # -- fallback accounting --------------------------------------------------

    def _originate_rreq(self, dest: int) -> int:
        # reaching here means the tree gave us no route
        self.counters["fallback_discovery"] += 1
        return super()._originate_rreq(dest)
