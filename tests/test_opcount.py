"""The executed-bytecode counter in tools/: a deterministic work measure."""
from __future__ import annotations

import sys
from pathlib import Path

from conftest import chain_positions, quiet_cfg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import opcount  # noqa: E402


def test_two_counts_of_one_run_are_equal():
    cfg = quiet_cfg(backend="rpl", node_count=4, duration=60.0, warmup=0.0)
    opcount.count_run(cfg, chain_positions(4))  # fills the process's caches
    first = opcount.count_run(cfg, chain_positions(4))
    assert first == opcount.count_run(cfg, chain_positions(4)) > 10_000
    longer = quiet_cfg(backend="rpl", node_count=4, duration=120.0, warmup=0.0)
    assert opcount.count_run(longer, chain_positions(4)) > first
