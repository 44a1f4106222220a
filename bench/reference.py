"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py

Runs bench/run.py for run_seconds of BENCHMARK.json once per (set,
workload, seed), SETS sets with seeds 1..SEEDS, then one traced run per
workload at seed 1, and prints markdown: per set the median and quartiles
of every end-to-end metric and their spread (q3 - q1) / median, the
per-layer metrics, the simulated statistics and the CSV SHA-256 of each
workload.  The raw results go to bench/out/reference.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import OUT, load_spec  # noqa: E402

SEEDS = 10
SETS = 2


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["digest"] = record["reps"][0]["digest"]
    result["stats"] = record["reps"][0]["stats"]
    return result


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


STAT_COLUMNS = ("pdr_up", "pdr_down", "delay_up_ms", "delay_down_ms",
                "overhead_bps", "up_created", "up_delivered", "down_created",
                "down_delivered", "mac_drop", "no_route", "discovery_timeout",
                "buffer_overflow", "in_flight")


def render(raw: dict, seconds: int) -> str:
    """Markdown for the README from the raw results."""
    out = []
    for s, runs in enumerate(raw["sets"], 1):
        seeds = len(next(iter(runs.values())))
        out.append(f"\n### Set {s}: seeds 1-{seeds}, --seconds {seconds}\n")
        out.append("| workload | metric | q1 | median | q3 | spread | failed |")
        out.append("|---|---|---|---|---|---|---|")
        for workload, results in runs.items():
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3, spread = spread_row(values)
                out.append(f"| {workload} | {name} | {q1:.4f} | {q2:.4f} | "
                           f"{q3:.4f} | {spread:.3f} | {failed}/{attempted} |")
    traced = raw["traced"]
    out.append("\n### Per-layer metrics, traced run at seed 1\n")
    out.append("| metric | unit | " + " | ".join(traced) + " |")
    out.append("|---|---|" + "---|" * len(traced))
    first = next(iter(traced.values()))["metrics"]
    for name in first:
        cells = []
        for res in traced.values():
            value = res["metrics"][name]["value"]
            cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        out.append(f"| {name} | {first[name]['unit']} | " + " | ".join(cells) + " |")
    out.append("\n### CSV SHA-256 at seed 1\n")
    for workload, results in raw["sets"][0].items():
        out.append(f"- `{workload}`: `{results[0]['digest']}`")
    out.append("\n### Simulated statistics at seed 1 (reference only)\n")
    out.append("| run | " + " | ".join(STAT_COLUMNS) + " |")
    out.append("|---|" + "---|" * len(STAT_COLUMNS))
    for workload, results in raw["sets"][0].items():
        stats = results[0]["stats"]
        rows = stats.items() if workload == "churn-campaign" else [(workload, stats)]
        for name, row in rows:
            out.append(f"| {name} | " + " | ".join(row[c] for c in STAT_COLUMNS) + " |")
    return "\n".join(out)


def main() -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    raw = {"sets": [], "traced": {}}
    for s in range(SETS):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in range(1, SEEDS + 1):
                res = run_one(workload, seed, seconds, 0)
                runs[workload].append(res)
                m = res["metrics"]
                print(f"set {s + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4f}" for k, v in m.items())
                    + f", {res['failed']}/{res['attempted']} failed",
                    file=sys.stderr, flush=True)
        raw["sets"].append(runs)
    for workload in workloads:
        raw["traced"][workload] = run_one(workload, 1, seconds, 1)
    (OUT / "reference.json").write_text(json.dumps(raw, indent=1))
    print(render(raw, seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
