"""Count the bytecodes one simulated run executes.

    PYTHONPATH=src python3 tools/opcount.py WORKLOAD

Prints the bytecodes executed by building ``Network(cfg, layout)`` and
running it, the layout drawn beforehand.  The count is a pure function of
the code, the configuration and the seed, so two versions of the program
compare by it where host time cannot resolve a change of a few percent; it
omits work inside C (the heap, zlib, array appends) and waiting.  WORKLOAD
is one of the benchmark's single-run workloads (``bench/workloads.py``:
seed 1 and seed 1's layout), cut to 300 s of simulated time for
``reactive-dense`` and 900 s for ``proactive-8h``.  Tracing every bytecode
makes a run about 15 times slower.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

SECONDS = {"reactive-dense": 300.0, "proactive-8h": 900.0}


def count_run(cfg, layout) -> int:
    """The bytecodes executed by Network(cfg, layout) and its run(), in
    every Python frame they enter.

    The first count in a process also takes the few hundred bytecodes of
    abc's subclass checks, whose answers the process then caches; the
    command line makes one count per process.
    """
    from llnsim.network import Network
    n = 0

    def on_opcode(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    # this frame stays untraced: settrace reaches only frames entered later
    sys.settrace(on_call)
    try:
        Network(cfg, layout).run()
    finally:
        sys.settrace(None)
    return n


def count_workload(workload: str) -> int:
    """count_run of a benchmark workload at seed 1, cut to SECONDS[workload]."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    cfg = replace(workloads.single_config(workload, 1), duration=SECONDS[workload])
    return count_run(cfg, workloads.layout(cfg))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Count the bytecodes one benchmark run executes.")
    parser.add_argument("workload", choices=SECONDS)
    args = parser.parse_args(argv)
    print(count_workload(args.workload))


if __name__ == "__main__":
    main()
