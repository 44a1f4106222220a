"""Run assembly: builds one network from a configuration and executes it.

A run is a pure function of (configuration, seed): topology placement,
traffic timing, and every protocol decision draw from named substreams of
the one seeded generator, so identical inputs give identical outputs down
to the byte.
"""
from __future__ import annotations

from .ctp import CtpNode
from .kernel import SimulationError, Simulator, to_seconds, to_ticks
from .loadng import LoadngNode
from .metrics import (DELIVERED, DOWN, UP, BUFFER_OVERFLOW, DISCOVERY_TIMEOUT,
                      IN_FLIGHT, MAC_DROP, NO_ROUTE, MetricsCollector,
                      MetricsReport, overhead_rate)
from .radio import Medium
from .rpl import RplNode
from .scenario import (CONCENTRATOR, ScenarioConfig, build_traffic_schedule,
                       generate_topology)

ENGINES = {"loadng": LoadngNode, "loadng-ctp": CtpNode, "rpl": RplNode}


class Network:
    def __init__(self, cfg: ScenarioConfig,
                 positions: dict[int, object] | None = None) -> None:
        """Explicit positions override the generated layout; addresses must
        be 0..node_count-1 with 0 as the concentrator."""
        cfg.validate()
        self.cfg = cfg
        self.sim = Simulator(cfg.seed)
        self.metrics = MetricsCollector(to_ticks(cfg.warmup))
        self.end_ticks = to_ticks(cfg.duration)
        # generous bound; legitimate paths are far shorter than two laps
        self.hop_limit = 2 * cfg.node_count
        if positions is None:
            self.positions = generate_topology(cfg, self.sim.stream("topo"))
        else:
            if sorted(positions) != list(range(cfg.node_count)):
                raise SimulationError("positions must cover 0..node_count-1")
            self.positions = dict(positions)
        self.medium = Medium(self.sim, cfg.radio,
                             on_control_tx=self.metrics.control_log.append)
        self.nodes: dict[int, object] = {}
        for addr in sorted(self.positions):
            engine = ENGINES[cfg.backend](self, addr)
            self.nodes[addr] = engine
            self.medium.add_node(addr, self.positions[addr], engine.receive)
        self.medium.finalize()
        self.schedule = build_traffic_schedule(cfg, self.sim.stream("traffic"))
        self.report: MetricsReport | None = None  # set when the run ends
        self._ran = False

    # -- execution -----------------------------------------------------------

    def run(self) -> Network:
        """Run once, since the clock moves on; set self.report, return self."""
        if self._ran:
            raise SimulationError("network already ran")
        self._ran = True
        for addr in sorted(self.nodes):
            self.nodes[addr].start()
        self._start_traffic()
        for time_s, addr in self.cfg.removals:
            self.sim.schedule_at(to_ticks(time_s),
                                 lambda a=addr: self.remove_node(a))
        self.sim.run_until(self.end_ticks)
        self.metrics.close([pkt for engine in self.nodes.values()
                            for pkt in engine.held_packets()])
        self.metrics.assert_conserved()
        for addr, engine in self.nodes.items():
            if not engine.mac.conserved():
                raise SimulationError(f"MAC conservation violated at node {addr}")
        self.report = self._report()
        return self

    def _start_traffic(self) -> None:
        # one insertion number per stream, each stream with one pending send
        # under it: sends fire in tick order, and on one tick in stream, so
        # (src, dst), order; a stream pushes its next send only after its
        # last has popped, so no two pending keys are equal.  Reserved after
        # every start() and before the removals, the block sits where
        # numbering every send up front would have put it
        streams = self.schedule.streams
        first = self.sim.reserve(len(streams))
        for rank, stream in enumerate(streams):
            self._send_next(stream, stream.times(self.schedule.duration),
                            first + rank)

    def _send_next(self, stream, times, order: int) -> None:
        t = next(times, None)
        if t is not None:
            def fire() -> None:
                self._send_next(stream, times, order)
                self.app_send(stream.src, stream.dst, stream.payload_bytes,
                              stream.direction, stream.kind)
            self.sim.schedule_reserved(to_ticks(t), order, fire)

    # -- application layer -----------------------------------------------------

    def app_send(self, src: int, dst: int, payload_bytes: int, direction: str,
                 kind: str) -> None:
        pkt = self.metrics.records.open(src, dst, payload_bytes, direction,
                                        kind, self.sim.now)
        engine = self.nodes[src]
        if engine.mac.dead:
            self.metrics.records.settle(pkt, NO_ROUTE)
            return
        engine.handle_app_send(pkt)

    def app_delivered(self, pkt, at_addr: int) -> None:
        self.metrics.records.settle(pkt, DELIVERED, self.sim.now)
        if not self.cfg.traffic_enabled:
            return
        traffic = self.cfg.traffic
        if pkt.kind == "report" and at_addr == CONCENTRATOR:
            # acking only reports keeps the ack exchange from echoing forever
            size, direction = traffic.downward_ack_bytes, DOWN
        elif pkt.direction == DOWN and at_addr != CONCENTRATOR:
            size, direction = traffic.upward_ack_bytes, UP
        else:
            return
        ack = self.metrics.records.open(at_addr, pkt.src, size, direction,
                                        "ack", self.sim.now)
        self.nodes[at_addr].handle_app_send(ack)

    def remove_node(self, addr: int) -> None:
        self.nodes[addr].mac.dead = True
        self.medium.remove_node(addr)

    # -- reporting -------------------------------------------------------------

    def _report(self) -> MetricsReport:
        m = self.metrics
        w = m.warmup_ticks
        counts, fates = m.records.tally(w)
        up_created, up_delivered, up_delay = counts.get(UP, (0, 0, 0))
        down_created, down_delivered, down_delay = counts.get(DOWN, (0, 0, 0))
        cfg = self.cfg
        distance = (cfg.concentrator_distance
                    if cfg.topology == "distance-line" else None)
        return MetricsReport(
            cfg_id=cfg.cfg_id(),
            backend=cfg.backend,
            node_count=cfg.node_count,
            distance=distance,
            seed=cfg.seed,
            pdr_up=up_delivered / up_created if up_created else None,
            pdr_down=down_delivered / down_created if down_created else None,
            delay_up_s=(to_seconds(up_delay) / up_delivered
                        if up_delivered else None),
            delay_down_s=(to_seconds(down_delay) / down_delivered
                          if down_delivered else None),
            overhead_bps=overhead_rate(m.control_log, w, self.end_ticks),
            up_created=up_created,
            up_delivered=up_delivered,
            down_created=down_created,
            down_delivered=down_delivered,
            mac_drop=fates[MAC_DROP],
            no_route=fates[NO_ROUTE],
            discovery_timeout=fates[DISCOVERY_TIMEOUT],
            buffer_overflow=fates[BUFFER_OVERFLOW],
            in_flight=fates[IN_FLIGHT],
        )
