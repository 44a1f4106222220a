"""Span tracer that wraps the program's layers from outside, for the traced run.

Before a network is built, ``Tracer.install`` replaces the functions and
methods named in TARGETS with wrappers that record a span (name, start,
end, parent) around each call, and wraps ``Simulator.schedule_at`` so that
every scheduled callable runs inside an ``event.<module>`` span.  A span's
self time is its duration minus the time its child spans cover; a layer's
self time is the sum over its spans.  Per-name totals are kept for every
span; the first KEEP_SPANS spans are also kept whole and written out at the
end (an 8 h run makes several million spans, too many to hold).

Counts that no span gives are read from the program's public state after
the operation (NodeMac counters, engine counters, flood_seen, records,
control_log), plus four counting wrappers: frames and reception records
(``Medium.transmit``, one record per link of the sender), deferrals
(``_backoff_ticks`` runs once per busy-channel deferral), retries
(``_tx_done`` raising ``_retries``) and duplicate RREQs (``_process_rreq``
on a key already seen at an equal or better metric).
"""
from __future__ import annotations

import gc
import importlib
import itertools
import sys
import time
import types
from array import array
from collections import Counter

KEEP_SPANS = 100_000

# (module, attribute path, span name); a name shared by several targets
# pools their time
TARGETS = (
    ("kernel", "Simulator.run_until", "kernel.run_until"),
    ("radio", "Medium.transmit", "radio.transmit"),
    ("radio", "Medium._finish", "radio.finish"),
    ("radio", "Medium.finalize", "radio.finalize"),
    ("radio", "Medium.remove_node", "radio.remove_node"),
    ("radio", "NodeMac.enqueue", "radio.mac"),
    ("radio", "NodeMac._attempt", "radio.mac"),
    ("radio", "NodeMac._tx_done", "radio.mac"),
    ("node", "NodeEngine.receive", "node.receive"),
    ("node", "NodeEngine.send_control", "node.send"),
    ("node", "NodeEngine.send_data", "node.send"),
    ("messages", "RouteMsg.forwarded", "messages.forwarded"),
    ("loadng", "LoadngNode.handle_msg", "loadng.msg"),
    ("ctp", "CtpNode.handle_msg", "ctp.msg"),
    ("rpl", "RplNode.handle_msg", "rpl.msg"),
    ("rpl", "RplNode._downward", "rpl.downward"),
    ("metrics", "MetricsCollector.close", "metrics.conserve"),
    ("metrics", "MetricsCollector.assert_conserved", "metrics.conserve"),
    ("network", "Network._report", "metrics.report"),
    ("network", "Network.__init__", "network.build"),
    ("network", "Network.run", "network.run"),
    ("network", "Network.app_send", "network.app_send"),
    ("scenario", "generate_topology", "scenario.topology"),
    ("scenario", "build_traffic_schedule", "scenario.schedule"),
    ("scenario", "load_scenario", "cli.load_scenario"),
    ("experiment", "expand_sweep", "experiment.expand"),
    ("experiment", "run_sweep", "experiment.run_sweep"),
    ("experiment", "write_csv", "experiment.write_csv"),
    ("experiment", "summarize", "experiment.summarize"),
    ("experiment", "format_summary", "experiment.summarize"),
)


def _rebind(namespaces, old, new) -> None:
    """A module function is called through every name bound to it."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


def deep_size(root, skip=()) -> int:
    """Bytes of every object reachable from root, each counted once.

    Classes and modules are shared program text, not data the run holds, so
    the walk stops at them; a function contributes itself and its closure.
    The objects in skip, and the wrappers defined in this file, belong to
    the instrument, not to the run: the walk neither counts nor enters them,
    except that a wrapper leads on to the program's callable it wraps.
    """
    seen = {id(obj) for obj in skip}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            if obj.__code__.co_filename == __file__:
                stack.extend(cell.cell_contents for cell in obj.__closure__ or ()
                             if callable(cell.cell_contents))
                continue
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
        total += sys.getsizeof(obj)
    return total


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        # [span id, child ns, start ns] per open span
        self._stack: list[list[int]] = []
        self._next_span = itertools.count().__next__
        self.spans = array("q")  # flattened (name id, start, end, parent)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.networks: list = []
        self.sweeps: list = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_span()
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0, 0]
        stack.append(frame)
        frame[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            start = frame[2]
            dur = end - start
            self.calls[nid] += 1
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if span_id < KEEP_SPANS:
                self.spans.extend((nid, start, end, parent))

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        traced.__wrapped__ = fn
        # event spans are named after the module of the scheduled callable
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def stat(self, name: str, field: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else getattr(self, field)[nid]

    def self_s(self, *names: str) -> float:
        return sum(self.stat(n, "self_ns") for n in names) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.stat(n, "total_ns") for n in names) / 1e9

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the TARGETS; extra_modules are searched for module-function
        bindings besides the program's own modules."""
        mods = {name: importlib.import_module(f"llnsim.{name}") for name in (
            "kernel", "radio", "node", "messages", "loadng", "ctp", "rpl",
            "metrics", "network", "scenario", "experiment", "cli")}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "llnsim" or n.startswith("llnsim.")]
        namespaces += list(extra_modules)
        # counting wrappers go on first, so spans enclose them
        for mod_name, path, make in self._counters():
            self._patch(mods[mod_name], path, make, namespaces)
        for mod_name, path, span in TARGETS:
            self._patch(mods[mod_name], path,
                        lambda fn, span=span: self.wrap(span, fn), namespaces)
        self._patch(mods["kernel"], "Simulator.schedule_at", self._scheduler,
                    namespaces)

    def _patch(self, module, path: str, make, namespaces) -> None:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            fn = None if owner is None else owner.__dict__.get(attr)
        else:
            owner = None
            fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        new = make(fn)
        if owner is not None:
            setattr(owner, attr, new)
        else:
            _rebind(namespaces, fn, new)

    def _scheduler(self, orig):
        sched_nid = self.name_id("kernel.schedule")
        call = self.call
        counts = self.counts
        event_ids: dict[str, int] = {}

        def schedule_at(sim, fire_at, fn):
            module = getattr(fn, "__module__", None) or "?"
            nid = event_ids.get(module)
            if nid is None:
                nid = event_ids[module] = self.name_id(
                    "event." + module.rpartition(".")[2])
            if fire_at == sim.now:
                counts["zero_delay"] += 1
            call(sched_nid, orig, (sim, fire_at, lambda: call(nid, fn, (), {})), {})
            pending = sim.pending()
            if pending > counts["peak_pending"]:
                counts["peak_pending"] = pending
        return schedule_at

    def _counters(self):
        """(module, path, wrapper factory) for every counting wrapper."""
        counts = self.counts

        def transmit(fn):
            def counted(medium, sender, frame, on_done):
                counts["frames"] += 1
                # transmit creates one reception record per link of the sender
                counts["receptions"] += len(medium._links.get(sender, ()))
                return fn(medium, sender, frame, on_done)
            return counted

        def backoff(fn):
            def counted(mac):
                counts["deferrals"] += 1
                return fn(mac)
            return counted

        def tx_done(fn):
            def counted(mac, ok):
                before = mac._retries
                fn(mac, ok)
                if mac._retries > before:
                    counts["retries"] += 1
            return counted

        def process_rreq(fn):
            def counted(node, m, prev_hop):
                counts["rreq_in"] += 1
                if m.originator != node.addr and m.destination != node.addr:
                    best = node.flood_seen.get((m.originator, m.seq))
                    if best is not None and m.hop_count + 1 >= best:
                        counts["rreq_dup"] += 1
                return fn(node, m, prev_hop)
            return counted

        def network_init(fn):
            def recorded(net, *args, **kwargs):
                fn(net, *args, **kwargs)
                self.networks.append(net)
            return recorded

        def run_sweep(fn):
            def recorded(*args, **kwargs):
                results = fn(*args, **kwargs)
                self.sweeps.append(results)
                return results
            return recorded

        return (
            ("radio", "Medium.transmit", transmit),
            ("radio", "NodeMac._backoff_ticks", backoff),
            ("radio", "NodeMac._tx_done", tx_done),
            ("loadng", "LoadngNode._process_rreq", process_rreq),
            ("network", "Network.__init__", network_init),
            ("experiment", "run_sweep", run_sweep),
        )

    # -- results ---------------------------------------------------------------

    def harvest(self) -> dict[str, float]:
        """Counts from the public state of every network the operation ran."""
        h = Counter()
        mine = (self, *vars(self).values())
        for net in self.networks:
            engines = list(net.nodes.values())
            for e in engines:
                h["enqueued"] += e.mac.accepted
                h["attempts"] += e.mac.transmissions
                h["queue_drops"] += e.mac.queue_drops
                h["dup_state_keys"] += sum(len(getattr(e, attr, ())) for attr in
                                           ("flood_seen", "replied", "reply_seq"))
                h["fallback_discoveries"] += e.counters.get("fallback_discovery", 0)
            h["records"] += len(net.metrics.records)
            h["control_log_rows"] += len(net.metrics.control_log)
            h["retained_bytes"] += deep_size((net.metrics.records,
                                              net.metrics.control_log), mine)
            h["sends"] += len(net.schedule)
        h["sweep_bytes"] = sum(deep_size(results, mine) for results in self.sweeps)
        return h

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            s = self.spans
            for i in range(len(s) // 4):
                nid, start, end, parent = s[4 * i:4 * i + 4]
                fh.write(f"{i},{self.names[nid]},{start},{end},{parent}\n")
