"""One child process of the benchmark; prints one JSON object as its last line.

    python3 bench/worker.py op|trace|setup|probes WORKLOAD SEED OUT_DIR

``op`` runs one repetition of the workload untraced and times it, ``trace``
runs it under the span tracer, ``setup`` times only the set-up, ``probes``
runs the layer probes.  After ``op`` and ``trace`` the output checks run,
outside the timed region and after peak RSS has been read.  Each repetition
gets a fresh process so that its peak RSS is its own.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# bound before the tracer installs, so the benchmark's own calls stay untraced
from llnsim import cli
from llnsim.experiment import expand_sweep, write_csv
from llnsim.network import Network
from llnsim.scenario import load_scenario

import checks
import workloads

# set-up samples per call; run.py calls twice.  Set-up is 0.01-0.1 s and
# noisy, so every run takes the median of many
SETUP_REPS = {"reactive-dense": 50, "proactive-8h": 12, "churn-campaign": 20}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _read_csv(path: Path) -> tuple[str, list[dict]]:
    data = path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return hashlib.sha256(data).hexdigest(), rows


def _stats(row: dict) -> dict:
    """The simulated statistics of one CSV row, for reference only."""
    keep = ("pdr_up", "pdr_down", "delay_up_ms", "delay_down_ms", "overhead_bps",
            "up_created", "up_delivered", "down_created", "down_delivered",
            *checks.DROP_COLUMNS)
    return {k: row[k] for k in keep}


def run_single(workload: str, seed: int, out: Path) -> dict:
    cfg = workloads.single_config(workload, seed)
    gc.collect()
    start = time.perf_counter()
    result = Network(cfg, workloads.layout(cfg)).run()
    wall = time.perf_counter() - start
    rss = _peak_rss_mib()
    path = out / f"{workload}-{seed}-{os.getpid()}.csv"
    write_csv(str(path), [result.report])
    digest, rows = _read_csv(path)
    path.unlink()
    if len(rows) == 1:
        problems = checks.check_run(result, rows[0])
        stats = _stats(rows[0])
    else:
        problems = [f"CSV has {len(rows)} rows, expected 1"]
        stats = {}
    return {"wall_s": wall, "peak_rss_mb": rss,
            "digest": digest, "attempted": 1,
            "failed": 1 if problems else 0, "problems": problems[:20],
            "stats": stats}


def run_campaign(seed: int, out: Path, cell_checks=None) -> dict:
    """cell_checks(rows), when given, returns more problems per cell."""
    tag = f"campaign-{seed}-{os.getpid()}"
    ini = out / f"{tag}.ini"
    path = out / f"{tag}.csv"
    ini.write_text(workloads.campaign_ini(seed))
    argv = ["--scenario", str(ini), "--out", str(path), "--quiet"]
    summary = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(summary):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    rss = _peak_rss_mib()
    cells = workloads.campaign_cells()
    if code != 0 or not path.exists():
        per_cell = [[f"llnsim exited {code}"]] * len(cells)
        digest, rows = "", []
    else:
        digest, rows = _read_csv(path)
        per_cell = checks.campaign_rows(rows, cells)
        if cell_checks is not None:
            per_cell = [a + b for a, b in zip(per_cell, cell_checks(rows))]
        path.unlink()
    ini.unlink()
    problems = [p for cell in per_cell for p in cell]
    return {"wall_s": wall, "peak_rss_mb": rss, "digest": digest,
            "attempted": len(cells),
            "failed": sum(1 for cell in per_cell if cell),
            "problems": problems[:20],
            "stats": {f"{r['backend']}/{r['node_count']}/{r['seed']}": _stats(r)
                      for r in rows}}


def run_op(workload: str, seed: int, out: Path, cell_checks=None) -> dict:
    campaign = workload == workloads.CAMPAIGN
    try:
        if campaign:
            return run_campaign(seed, out, cell_checks)
        return run_single(workload, seed, out)
    except Exception:
        # an operation that raises has failed; the benchmark carries on
        attempted = len(workloads.campaign_cells()) if campaign else 1
        return {"wall_s": None, "peak_rss_mb": None, "digest": "",
                "attempted": attempted, "failed": attempted,
                "problems": [traceback.format_exc(limit=5)], "stats": {}}


def time_setup(workload: str, seed: int, out: Path) -> dict:
    """Median host time from configuration in hand to a network ready to run."""
    if workload == workloads.CAMPAIGN:
        ini = out / f"setup-{seed}-{os.getpid()}.ini"
        ini.write_text(workloads.campaign_ini(seed))

        def build():
            cfg, sweep = load_scenario(str(ini))
            for cell in expand_sweep(cfg, sweep):
                Network(cell)
    else:
        cfg = workloads.single_config(workload, seed)

        def build():
            Network(cfg, workloads.layout(cfg))
    samples = []
    for i in range(SETUP_REPS[workload] + 1):
        gc.collect()
        start = time.perf_counter()
        build()
        if i:  # the first build warms caches the timed runs also find warm
            samples.append(time.perf_counter() - start)
    if workload == workloads.CAMPAIGN:
        ini.unlink()
    return {"samples": samples}


def run_traced(workload: str, seed: int, out: Path) -> dict:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(extra_modules=(workloads,))

    def cell_checks(rows):
        # the CLI drops its results, but the tracer has kept the sweep's, so
        # here every campaign cell also gets the checks of a single run
        results = tracer.sweeps[-1] if tracer.sweeps else []
        per_cell = [checks.check_run(r, row) for r, row in zip(results, rows)]
        return per_cell + [[]] * (len(rows) - len(per_cell))
    res = run_op(workload, seed, out, cell_checks)
    h = tracer.harvest()
    tracer.write_spans(out / f"spans-{workload}-{seed}.csv")
    t = tracer
    c = t.counts
    receptions = c["receptions"]
    rreq_in = c["rreq_in"]
    layers = {
        "kernel.events": sum(t.stat(n, "calls") for n in t.names
                             if n.startswith("event.")),
        "kernel.zero_delay_events": c["zero_delay"],
        "kernel.peak_pending": c["peak_pending"],
        "kernel.self_s": t.self_s("kernel.run_until", "kernel.schedule"),
        "radio.frames": c["frames"],
        "radio.receptions": receptions,
        "radio.useful_ratio": (t.stat("node.receive", "calls") / receptions
                               if receptions else 0.0),
        "radio.transmit_s": t.self_s("radio.transmit"),
        "radio.finish_s": t.self_s("radio.finish"),
        "radio.mac.enqueued": h["enqueued"],
        "radio.mac.attempts": h["attempts"],
        "radio.mac.deferrals": c["deferrals"],
        "radio.mac.retries": c["retries"],
        "radio.mac.queue_drops": h["queue_drops"],
        "radio.mac.s": t.self_s("radio.mac"),
        "radio.finalize_s": t.total_s("radio.finalize"),
        "radio.remove_node_s": t.total_s("radio.remove_node"),
        "node.receive_calls": t.stat("node.receive", "calls"),
        "node.receive_s": t.self_s("node.receive"),
        "node.send_s": t.self_s("node.send"),
        "messages.forwarded_calls": t.stat("messages.forwarded", "calls"),
        "messages.forwarded_s": t.total_s("messages.forwarded"),
        "loadng.msg_calls": t.stat("loadng.msg", "calls"),
        "loadng.msg_s": t.self_s("loadng.msg"),
        "loadng.rreq_dup_ratio": c["rreq_dup"] / rreq_in if rreq_in else 0.0,
        "loadng.dup_state_keys": h["dup_state_keys"],
        "ctp.msg_calls": t.stat("ctp.msg", "calls"),
        "ctp.msg_s": t.self_s("ctp.msg"),
        "ctp.fallback_discoveries": h["fallback_discoveries"],
        "rpl.msg_calls": t.stat("rpl.msg", "calls"),
        "rpl.msg_s": t.self_s("rpl.msg"),
        "rpl.downward_s": t.self_s("rpl.downward"),
        "metrics.records": h["records"],
        "metrics.control_log_rows": h["control_log_rows"],
        "metrics.retained_mb": h["retained_bytes"] / 2**20,
        "metrics.report_s": t.total_s("metrics.report"),
        "metrics.conserve_s": t.total_s("metrics.conserve"),
        "scenario.topology_s": t.total_s("scenario.topology"),
        "scenario.schedule_s": t.total_s("scenario.schedule"),
        "scenario.sends": h["sends"],
        "network.build_s": t.total_s("network.build"),
        "network.run_s": t.total_s("network.run"),
        "network.app_send_calls": t.stat("network.app_send", "calls"),
        "cli.load_scenario_s": t.total_s("cli.load_scenario"),
        "experiment.expand_s": t.total_s("experiment.expand"),
        "experiment.run_sweep_s": t.total_s("experiment.run_sweep"),
        "experiment.write_csv_s": t.total_s("experiment.write_csv"),
        "experiment.summarize_s": t.total_s("experiment.summarize"),
        "experiment.retained_mb": h["sweep_bytes"] / 2**20,
    }
    self_by_span = {n: t.stat(n, "self_ns") / 1e9 for n in t.names}
    res.update(layers=layers, self_by_span=self_by_span,
               not_instrumented=tracer.missing)
    return res


def main(argv: list[str]) -> int:
    mode, workload, seed, out = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "op":
        res = run_op(workload, seed, out)
    elif mode == "trace":
        res = run_traced(workload, seed, out)
    elif mode == "setup":
        res = time_setup(workload, seed, out)
    elif mode == "probes":
        from probes import run_probes
        res = run_probes()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
