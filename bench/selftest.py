"""Self-tests of the output checks: each must pass clean output and catch a planted fault.

    PYTHONPATH=src python3 bench/selftest.py OUT_DIR

Exits 0 when every check passes the clean runs and flags every planted
fault; the benchmark runs this before it measures anything.
"""
from __future__ import annotations

import csv
import sys
from dataclasses import replace
from pathlib import Path

from llnsim.experiment import write_csv
from llnsim.network import Network
from llnsim.scenario import ScenarioConfig

import checks
import workloads


def _small_run(backend: str, out: Path):
    cfg = ScenarioConfig(backend=backend, node_count=20, duration=600.0,
                         removals=((300.0, 7),))
    result = Network(cfg).run()
    path = out / f"selftest-{backend}.csv"
    write_csv(str(path), [result.report])
    with open(path) as fh:
        row = next(csv.DictReader(fh))
    path.unlink()
    return result, row


def _planted(records, index, **changes):
    out = list(records)
    out[index] = replace(records[index], **changes)
    return out


def cases(out: Path):
    """(name, passed) pairs: a clean case finds no problem, a planted one some."""
    loadng, loadng_row = _small_run("loadng", out)
    rpl, rpl_row = _small_run("rpl", out)
    ctp, ctp_row = _small_run("loadng-ctp", out)
    yield "clean loadng run", not checks.check_run(loadng, loadng_row)
    yield "clean rpl run", not checks.check_run(rpl, rpl_row)
    yield "clean loadng-ctp run", not checks.check_run(ctp, ctp_row)

    cfg = loadng.cfg
    records = loadng.metrics.records
    dist = checks.hop_distances(loadng.positions, cfg.radio.range_m)
    delivered = next(i for i, p in enumerate(records)
                     if p.fate == checks.DELIVERED and p.created_at >= 120_000_000)
    rec = records[delivered]

    yield "record with two fates", bool(checks.conservation(
        _planted(records, delivered, fate="mac-drop"), loadng.nodes))
    yield "delivery faster than one airtime", bool(checks.physics(
        cfg, _planted(records, delivered, delivered_at=rec.created_at + 1), dist))
    yield "delivery over fewer hops than BFS", bool(checks.physics(
        cfg, _planted(records, delivered, hops=0), dist))
    log = loadng.metrics.control_log
    off_by_one = (loadng.report.up_delivered + 1) / loadng.report.up_created
    yield "report PDR off by one packet", bool(checks.report_matches(
        cfg, records, log, replace(loadng.report, pdr_up=off_by_one), loadng_row))
    yield "CSV PDR off by one packet", bool(checks.report_matches(
        cfg, records, log, loadng.report,
        dict(loadng_row, pdr_up=f"{off_by_one:.6f}")))
    ack = next(i for i, p in enumerate(records) if p.kind == "ack")
    yield "missing ack", bool(checks.traffic_law(
        cfg, records[:ack] + records[ack + 1:]))

    mac = loadng.nodes[3].mac
    mac.accepted += 1
    yield "MAC frame lost", bool(checks.conservation(records, loadng.nodes))
    mac.accepted -= 1

    rdist = checks.hop_distances(rpl.positions, rpl.cfg.radio.range_m)
    far = max((a for a, e in rpl.nodes.items() if e.rank is not None),
              key=lambda a: rdist[0][a])
    node = rpl.nodes[far]
    saved, node.rank = node.rank, rdist[0][far]
    yield "rank below BFS + 1", bool(checks.routing(rpl.cfg, rpl.nodes, rdist))
    node.rank = saved

    engine = next(e for e in loadng.nodes.values()
                  if any(dist[e.addr][d] > 1 for d, _ in e.routes.items()))
    tup = next(t for d, t in engine.routes.items() if dist[engine.addr][d] > 1)
    saved_metric, tup.metric = tup.metric, 1
    yield "route metric below BFS", bool(checks.routing(cfg, loadng.nodes, dist))
    tup.metric = saved_metric

    cells = workloads.campaign_cells()[:2]
    rows = [dict(loadng_row, backend=b, node_count=str(n), seed=str(s))
            for b, n, s in cells]
    yield "clean campaign rows", not any(checks.campaign_rows(rows, cells))
    bad = [dict(rows[0], mac_drop=str(int(rows[0]["mac_drop"]) + 1)), rows[1]]
    yield "CSV row whose fates do not sum", bool(checks.campaign_rows(bad, cells)[0])
    yield "CSV rows out of sweep order", bool(any(checks.campaign_rows(rows[::-1], cells)))
    yield "CSV row missing", bool(checks.campaign_rows(rows[:1], cells)[1])


def main(argv: list[str]) -> int:
    failed = 0
    for name, ok in cases(Path(argv[0])):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
