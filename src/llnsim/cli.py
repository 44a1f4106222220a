"""Command line front end: run a scenario file, write a CSV, print a summary."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiment import expand_sweep, format_summary, run_sweep, summarize, write_csv
from .kernel import SimulationError
from .scenario import ConfigError, ScenarioConfig, load_scenario

EXIT_OK = 0
EXIT_RUN_FAILED = 1
EXIT_BAD_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llnsim",
        description="Deterministic multi-hop metering simulator: reactive, "
                    "collection-tree, and proactive tree routing over a "
                    "lossy CSMA radio.")
    parser.add_argument("--scenario", metavar="FILE",
                        help="INI scenario file; defaults apply when omitted")
    parser.add_argument("--out", metavar="CSV",
                        help="write one row per run to this file")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="run seeds 1..N (overrides the sweep section)")
    parser.add_argument("--backend", metavar="NAME",
                        help="run only this backend (overrides file settings)")
    parser.add_argument("--duration", type=float, metavar="SECONDS",
                        help="simulated time per run")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")
    return parser


def check_writable(path: str) -> None:
    """Refuse a CSV path that write_csv could not open; touches no file."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.access(os.path.dirname(path) or ".", os.W_OK):
        raise ConfigError(f"cannot write {path}: "
                          "its directory is missing or read-only")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ConfigError(f"cannot write {path}: the file is read-only")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def progress(done, total, net):
        if args.quiet:
            return
        r = net.report
        pdr_up = "-" if r.pdr_up is None else f"{r.pdr_up:.4f}"
        print(f"[{done}/{total}] backend={r.backend} nodes={r.node_count} "
              f"seed={r.seed} pdr_up={pdr_up} overhead={r.overhead_bps:.1f} B/s",
              file=sys.stderr)

    try:
        if args.out:
            # a campaign can run for hours: find a bad path before it starts
            check_writable(args.out)
        if args.scenario:
            cfg, sweep = load_scenario(args.scenario)
        else:
            cfg, sweep = ScenarioConfig(), {}
        if args.backend:
            cfg = replace(cfg, backend=args.backend)
            sweep.pop("backend", None)
        if args.duration is not None:
            cfg = replace(cfg, duration=args.duration)
        if args.seeds is not None:
            sweep["seeds"] = str(args.seeds)
        # a run can still reject its configuration, e.g. an unplaceable layout
        nets = run_sweep(expand_sweep(cfg, sweep), progress)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SimulationError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED

    reports = [net.report for net in nets]
    if args.out:
        write_csv(args.out, reports)
    print(format_summary(summarize(reports)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
