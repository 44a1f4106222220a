"""Host-time benchmark of llnsim: wall time, set-up time and peak RSS per workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the simulator is imported from ./src.
The workloads, the default run length and every metric's unit come from
BENCHMARK.json (see bench/README.md).  With --trace 0 the run times
set-up, repeats the workload's operation, one fresh process per
repetition, while the timed regions of one more repetition still fit in
--seconds, times set-up again, and reports medians.  With --trace 1 it
runs the operation once untraced and once under the span tracer, runs
the layer probes, and reports the per-layer metrics.  Either way the output
checks run on every repetition, and the last line of standard output is
one JSON object: correct (the checks passed their self-tests), attempted,
failed (operations that raised or failed a check), metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# every run must end within 180 s; children get what is left of this
RUN_DEADLINE_S = 175.0


class RunFailed(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, the run length, each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def child(self, script: str, *args: str) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("out of time before starting a child")
        try:
            return subprocess.run(
                [sys.executable, str(BENCH / script), *args], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{script} {' '.join(args)} ran out of time") from None

    def worker(self, mode: str, workload: str, seed: int) -> dict:
        proc = self.child("worker.py", mode, workload, str(seed), str(OUT))
        if proc.returncode != 0:
            raise RunFailed(f"worker {mode} exited {proc.returncode}:\n"
                              f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def _median_quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n {len(values)})"


def timed(runner: Runner, workload: str, seed: int, seconds: int) -> dict:
    # set-up is timed before and after the repetitions, so that its samples
    # span the run rather than one moment of the machine's load
    setup_samples = runner.worker("setup", workload, seed)["samples"]
    reps = []
    measured = 0.0
    while True:
        start = time.monotonic()
        reps.append(runner.worker("op", workload, seed))
        # a repetition that raised has no timed region; count its whole child
        measured += reps[-1]["wall_s"] or time.monotonic() - start
        if measured + measured / len(reps) > seconds:
            break
    setup_samples += runner.worker("setup", workload, seed)["samples"]
    digests = [r["digest"] for r in reps if r["digest"]]
    failed = 0
    for rep in reps:
        # repetitions of one workload and seed must agree to the byte
        same = rep["digest"] == (digests[0] if digests else "")
        failed += rep["failed"] if same else rep["attempted"]
    walls = [r["wall_s"] for r in reps if r["wall_s"] is not None]
    rss = [r["peak_rss_mb"] for r in reps if r["peak_rss_mb"] is not None]
    if not walls:
        raise RunFailed("every repetition raised")
    print(f"set-up  {_median_quartiles(setup_samples)} s")
    print(f"wall    {' '.join(f'{w:.3f}' for w in walls)} s")
    print(f"rss     {' '.join(f'{m:.1f}' for m in rss)} MiB")
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup_samples),
               "peak_rss_mb": statistics.median(rss)}
    return {"reps": reps, "setup_samples": setup_samples, "metrics": metrics,
            "attempted": sum(r["attempted"] for r in reps), "failed": failed}


def traced(runner: Runner, workload: str, seed: int) -> dict:
    plain = runner.worker("op", workload, seed)
    traced_rep = runner.worker("trace", workload, seed)
    probes = runner.worker("probes", workload, seed)
    failed = plain["failed"]
    if traced_rep["digest"] != plain["digest"]:
        print("traced CSV differs from the untraced one")
        failed += traced_rep["attempted"]
    else:
        failed += traced_rep["failed"]
    if traced_rep["not_instrumented"]:
        print(f"not instrumented: {', '.join(traced_rep['not_instrumented'])}")
    metrics = dict(traced_rep["layers"])
    metrics.update(probes)
    if plain["wall_s"] is None or traced_rep["wall_s"] is None:
        raise RunFailed("the operation raised")
    metrics["trace.overhead_ratio"] = traced_rep["wall_s"] / plain["wall_s"]
    print(f"wall    untraced {plain['wall_s']:.3f} s, traced {traced_rep['wall_s']:.3f} s")
    top = sorted(traced_rep["self_by_span"].items(), key=lambda kv: -kv[1])[:12]
    print("self    " + ", ".join(f"{n} {s:.3f}" for n, s in top) + " s")
    return {"reps": [plain, traced_rep], "metrics": metrics, "probes": probes,
            "attempted": plain["attempted"] + traced_rep["attempted"],
            "failed": failed}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "llnsim" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(deadline)
    try:
        # the checks are trusted only while they catch their planted faults
        selftest = runner.child("selftest.py", str(OUT))
        if selftest.returncode != 0:
            print(selftest.stdout + selftest.stderr[-2000:])
            print("the output checks failed their self-tests")
        print(f"== {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            res = traced(runner, args.workload, args.seed)
        else:
            res = timed(runner, args.workload, args.seed, args.seconds)
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for rep in res["reps"]:
        for problem in rep["problems"]:
            print(f"check failed: {problem}")
    print(f"csv sha256 {res['reps'][0]['digest']}")
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": selftest.returncode == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
