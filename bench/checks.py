"""Output checks, recomputed by the benchmark apart from the program.

Each check is either an independent recomputation of a number the program
reports (PDR, delay, overhead, fate counts) or a property the method must
have (a packet cannot beat the airtime of its hops, a route cannot be
shorter than the hop distance on the unit-disk graph).  None compares with
a stored copy of earlier output.  Every function returns a list of problem
strings; an empty list means the output passed.
"""
from __future__ import annotations

import math
from collections import Counter, deque

TICKS_PER_S = 1_000_000
LINK_HEADER_BYTES = 16
DELIVERED = "delivered"
# every drop fate a record may carry, and the CSV column that counts it
DROP_COLUMN_OF = {"mac-drop": "mac_drop", "no-route": "no_route",
                  "discovery-timeout": "discovery_timeout",
                  "buffer-overflow": "buffer_overflow",
                  "in-flight-at-end": "in_flight"}
DROP_COLUMNS = tuple(DROP_COLUMN_OF.values())
# decimals the CSV keeps: pdr 6, delays in ms 3, overhead 3
PDR_TOL = 0.5e-6 + 1e-12
MS_TOL = 0.5e-3 + 1e-9
BPS_TOL = 0.5e-3 + 1e-9


def _ticks(seconds: float) -> int:
    return round(seconds * TICKS_PER_S)


def hop_distances(positions: dict, range_m: float) -> dict[int, dict[int, int]]:
    """All-pairs BFS hop counts on the unit-disk graph of the positions."""
    addrs = sorted(positions)
    adj = {a: [] for a in addrs}
    for i, a in enumerate(addrs):
        pa = positions[a]
        for b in addrs[i + 1:]:
            pb = positions[b]
            if math.hypot(pa.x - pb.x, pa.y - pb.y) <= range_m:
                adj[a].append(b)
                adj[b].append(a)
    out = {}
    for start in addrs:
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            cur = frontier.popleft()
            for nxt in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        out[start] = dist
    return out


def conservation(records, nodes) -> list[str]:
    problems = []
    known = {DELIVERED, *DROP_COLUMN_OF}
    per_dir = Counter()
    fates_per_dir = Counter()
    for p in records:
        per_dir[p.direction] += 1
        if p.fate not in known:
            problems.append(f"packet {p.pid} has fate {p.fate!r}")
            continue
        fates_per_dir[p.direction] += 1
        if (p.fate == DELIVERED) != (p.delivered_at is not None):
            problems.append(f"packet {p.pid} has fate {p.fate!r} "
                            f"and delivered_at {p.delivered_at!r}")
    for direction, created in per_dir.items():
        if fates_per_dir[direction] != created:
            problems.append(f"{direction}: {created} created, "
                            f"{fates_per_dir[direction]} with one known fate")
    for addr, engine in nodes.items():
        mac = engine.mac
        done = mac.unicast_ok + mac.unicast_fail + mac.broadcast_done
        if mac.accepted != done + len(mac.queue):
            problems.append(f"MAC at node {addr}: {mac.accepted} accepted, "
                            f"{done} resolved, {len(mac.queue)} queued")
    return problems


def recompute_report(cfg, records, control_log) -> dict:
    """PDR, mean delay, overhead and fate counts by the benchmark's own code."""
    warm = _ticks(cfg.warmup)
    end = _ticks(cfg.duration)
    out = {}
    for direction in ("up", "down"):
        created = delivered = delay_sum = 0
        for p in records:
            if p.direction != direction or p.created_at < warm:
                continue
            created += 1
            if p.fate == DELIVERED:
                delivered += 1
                delay_sum += p.delivered_at - p.created_at
        out[f"{direction}_created"] = created
        out[f"{direction}_delivered"] = delivered
        out[f"pdr_{direction}"] = delivered / created if created else None
        out[f"delay_{direction}_ms"] = (delay_sum / TICKS_PER_S / delivered * 1e3
                                        if delivered else None)
    fates = Counter(p.fate for p in records if p.created_at >= warm)
    for fate, column in DROP_COLUMN_OF.items():
        out[column] = fates.get(fate, 0)
    ctl_bytes = sum(row[3] for row in control_log if row[0] >= warm)
    out["overhead_bps"] = ctl_bytes / ((end - warm) / TICKS_PER_S)
    return out


def _differs(mine, theirs, tol: float) -> bool:
    if mine is None or theirs is None:
        return (mine is None) != (theirs is None)
    return abs(mine - theirs) > tol


def report_matches(cfg, records, control_log, report, csv_row: dict) -> list[str]:
    """The recomputed report equals the MetricsReport and the CSV row."""
    mine = recompute_report(cfg, records, control_log)
    rep = {
        "pdr_up": report.pdr_up, "pdr_down": report.pdr_down,
        "delay_up_ms": None if report.delay_up_s is None else report.delay_up_s * 1e3,
        "delay_down_ms": (None if report.delay_down_s is None
                          else report.delay_down_s * 1e3),
        "overhead_bps": report.overhead_bps,
    }
    problems = []
    tolerances = {"pdr_up": PDR_TOL, "pdr_down": PDR_TOL, "delay_up_ms": MS_TOL,
                  "delay_down_ms": MS_TOL, "overhead_bps": BPS_TOL}
    for name, tol in tolerances.items():
        cell = csv_row.get(name)
        from_csv = float(cell) if cell else None
        if _differs(mine[name], rep[name], tol):
            problems.append(f"report {name} {rep[name]!r} != recomputed {mine[name]!r}")
        if _differs(mine[name], from_csv, tol):
            problems.append(f"CSV {name} {cell!r} != recomputed {mine[name]!r}")
    for name in ("up_created", "up_delivered", "down_created",
                 "down_delivered") + DROP_COLUMNS:
        if getattr(report, name) != mine[name]:
            problems.append(f"report {name} {getattr(report, name)} != "
                            f"recomputed {mine[name]}")
        if csv_row.get(name) != str(mine[name]):
            problems.append(f"CSV {name} {csv_row.get(name)!r} != "
                            f"recomputed {mine[name]}")
    return problems


def physics(cfg, records, dist: dict[int, dict[int, int]]) -> list[str]:
    """A delivery crosses at least the BFS distance, each hop one airtime."""
    problems = []
    bitrate = cfg.radio.bitrate
    for p in records:
        if p.fate != DELIVERED:
            continue
        need = dist[p.src].get(p.dst)
        if need is None or p.hops < need:
            problems.append(f"packet {p.pid} {p.src}->{p.dst} took {p.hops} hops, "
                            f"BFS distance is {need}")
            continue
        bits = (p.payload_bytes + LINK_HEADER_BYTES) * 8
        # each hop's airtime is whole ticks, so the floor is exact per hop
        min_delay = p.hops * (bits * TICKS_PER_S // bitrate)
        if p.delivered_at - p.created_at < min_delay:
            problems.append(f"packet {p.pid} delivered in "
                            f"{p.delivered_at - p.created_at} ticks over "
                            f"{p.hops} hops; the airtime alone is {min_delay}")
    return problems


def traffic_law(cfg, records) -> list[str]:
    """Per client: periodic sends fill the run; every delivery draws one ack."""
    problems = []
    traffic = cfg.traffic
    reports = Counter()
    configs = Counter()
    down_acks = Counter()
    up_acks = Counter()
    reports_delivered = Counter()
    downs_delivered = Counter()
    for p in records:
        client = p.dst if p.src == 0 else p.src
        if p.kind == "report":
            reports[client] += 1
            if p.fate == DELIVERED:
                reports_delivered[client] += 1
        elif p.kind == "config":
            configs[client] += 1
        elif p.kind == "ack":
            (down_acks if p.direction == "down" else up_acks)[client] += 1
        if p.direction == "down" and p.fate == DELIVERED:
            downs_delivered[client] += 1
    for period, created, what in ((traffic.report_period, reports, "reports"),
                                  (traffic.config_period, configs, "configs")):
        ratio = cfg.duration / period
        allowed = {math.floor(ratio), math.ceil(ratio)}
        for client in range(1, cfg.node_count):
            if created[client] not in allowed:
                problems.append(f"client {client} created {created[client]} "
                                f"{what}, expected one of {sorted(allowed)}")
    for client in range(1, cfg.node_count):
        if down_acks[client] != reports_delivered[client]:
            problems.append(f"client {client}: {down_acks[client]} downward acks "
                            f"for {reports_delivered[client]} delivered reports")
        if up_acks[client] != downs_delivered[client]:
            problems.append(f"client {client}: {up_acks[client]} upward acks "
                            f"for {downs_delivered[client]} delivered downward packets")
    return problems


def routing(cfg, nodes, dist: dict[int, dict[int, int]]) -> list[str]:
    """Ranks and route metrics never undercut the unit-disk hop distance."""
    problems = []
    for addr, engine in nodes.items():
        if cfg.backend == "rpl":
            if engine.rank is not None and engine.rank < dist[0][addr] + 1:
                problems.append(f"node {addr} rank {engine.rank} below "
                                f"BFS distance {dist[0][addr]} + 1")
            continue
        for dest, tup in engine.routes.items():
            need = dist[addr].get(dest)
            if need is None or tup.metric < need:
                problems.append(f"node {addr} route to {dest} metric "
                                f"{tup.metric}, BFS distance {need}")
    return problems


def check_run(result, csv_row: dict) -> list[str]:
    """Every check on one finished run and its CSV row read back."""
    cfg = result.cfg
    records = result.metrics.records
    dist = hop_distances(result.positions, cfg.radio.range_m)
    return (conservation(records, result.nodes)
            + report_matches(cfg, records, result.metrics.control_log,
                             result.report, csv_row)
            + physics(cfg, records, dist)
            + traffic_law(cfg, records)
            + routing(cfg, result.nodes, dist))


def campaign_rows(rows: list[dict], cells: list[tuple]) -> list[list[str]]:
    """Problems per expected cell: one row each, in sweep order, self-consistent."""
    out = []
    for i, cell in enumerate(cells):
        if i >= len(rows):
            out.append([f"no CSV row for {cell}"])
            continue
        row = rows[i]
        problems = []
        got = (row["backend"], int(row["node_count"]), int(row["seed"]))
        if got != cell:
            problems.append(f"row {i} is {got}, expected {cell}")
        created = delivered = 0
        for direction in ("up", "down"):
            c = int(row[f"{direction}_created"])
            d = int(row[f"{direction}_delivered"])
            created += c
            delivered += d
            cell_pdr = row[f"pdr_{direction}"]
            if c == 0:
                if cell_pdr:
                    problems.append(f"row {i} pdr_{direction} {cell_pdr!r} with "
                                    "nothing created")
            elif not cell_pdr or abs(float(cell_pdr) - d / c) > PDR_TOL:
                problems.append(f"row {i} pdr_{direction} {cell_pdr!r} != {d}/{c}")
        drops = sum(int(row[col]) for col in DROP_COLUMNS)
        if created - delivered != drops:
            problems.append(f"row {i}: created {created} - delivered {delivered} "
                            f"!= drop fates {drops}")
        out.append(problems)
    if len(rows) > len(cells):
        out[-1].append(f"{len(rows)} CSV rows for {len(cells)} cells")
    return out
