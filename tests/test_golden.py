"""Golden pin: the CSV of a small fixed matrix must not change by one byte.

A run is a pure function of (configuration, seed).  This digest holds that
promise across refactors: any change that moves it changes behaviour and
must say why.
"""
from __future__ import annotations

import hashlib

from llnsim.experiment import expand_sweep, run_sweep, write_csv
from llnsim.scenario import ScenarioConfig

GOLDEN_SHA256 = "0b85e5fb1eccf7b8161bf5153f844e84474fda5d3db82becc2c75f68ecbf5cdd"


def golden_configs() -> list[ScenarioConfig]:
    configs = expand_sweep(ScenarioConfig(duration=600.0),
                           {"backend": "loadng,loadng-ctp,rpl",
                            "node_count": "20,40", "seeds": "2"})
    configs.append(ScenarioConfig(backend="loadng", node_count=30,
                                  duration=600.0,
                                  removals=((200.0, 5), (300.0, 11))))
    configs.append(ScenarioConfig(backend="rpl", node_count=6,
                                  topology="distance-line",
                                  concentrator_distance=500.0, duration=600.0))
    return configs


def test_golden_matrix_csv_digest(tmp_path):
    out = tmp_path / "golden.csv"
    write_csv(str(out), [r.report for r in run_sweep(golden_configs())])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256
