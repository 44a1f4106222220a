"""Golden pins: the CSV of a small fixed matrix, and the seed-1 CSV of each
benchmark workload, must not change by one byte.

A run is a pure function of (configuration, seed).  These digests hold that
promise across refactors: any change that moves one changes behaviour and
must say why.  The benchmark's workloads are built from its own module, as
its worker builds them, so a change to what the benchmark runs shows here.
"""
from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from llnsim import cli
from llnsim.experiment import expand_sweep, run_sweep, write_csv
from llnsim.network import Network
from llnsim.scenario import ScenarioConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    workloads = importlib.import_module("workloads")
finally:
    sys.path.remove(str(BENCH))

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


BENCHMARK_SHA256 = {
    "reactive-dense":
        "208e5cfce559f150d52e830f86a29921b0d8e2e2bc032861aa96675ef41d1f33",
    "proactive-8h":
        "cd3f37c17c72de8b6e7fb68488c236cfd6b75efe145b24a2a11c13b511f75617",
    workloads.CAMPAIGN:
        "54f86a85cc48aa2530e4985bd62597d02daf8c8b7889793d4a53c89a922cf71f",
}


@pytest.mark.parametrize("workload", BENCHMARK_SHA256)
def test_benchmark_workload_csv_digest_at_seed_one(workload, tmp_path):
    out = tmp_path / f"{workload}.csv"
    if workload == workloads.CAMPAIGN:
        ini = tmp_path / "campaign.ini"
        ini.write_text(workloads.campaign_ini(1))
        assert cli.main(["--scenario", str(ini), "--out", str(out),
                         "--quiet"]) == 0
    else:
        cfg = workloads.single_config(workload, 1)
        result = Network(cfg, workloads.layout(cfg)).run()
        write_csv(str(out), [result.report])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BENCHMARK_SHA256[workload]
