"""Sweep expansion, CSV output, and the command line front end."""
from __future__ import annotations

from dataclasses import replace

import pytest

from llnsim import cli
from llnsim.experiment import (expand_sweep, format_summary, run_sweep,
                               summarize, write_csv)
from llnsim.metrics import CSV_COLUMNS, aggregate
from llnsim.scenario import ConfigError, ScenarioConfig

from conftest import CAMPAIGNS
from test_metrics import _report


def test_sweep_expansion_order_and_cardinality():
    base = ScenarioConfig(duration=30.0, warmup=0.0)
    sweep = {"backend": "loadng,rpl", "node_count": "3,4", "seeds": "2"}
    configs = expand_sweep(base, sweep)
    assert [(c.backend, c.node_count, c.seed) for c in configs] == [
        ("loadng", 3, 1), ("loadng", 3, 2), ("loadng", 4, 1), ("loadng", 4, 2),
        ("rpl", 3, 1), ("rpl", 3, 2), ("rpl", 4, 1), ("rpl", 4, 2),
    ]
    assert all(c.duration == 30.0 for c in configs)


def test_sweep_defaults_and_rejections():
    base = ScenarioConfig(seed=7)
    assert [c.seed for c in expand_sweep(base, {})] == [7]
    with pytest.raises(ConfigError):
        expand_sweep(base, {"nodes": "3"})
    with pytest.raises(ConfigError):
        expand_sweep(base, {"node_count": "three"})
    with pytest.raises(ConfigError):
        expand_sweep(base, {"seeds": "0"})
    with pytest.raises(ConfigError):
        expand_sweep(base, {"node_count": "1"})  # per-config validation


def test_summarize_groups_by_configuration_and_matches_aggregate():
    group_a = [_report(seed=s, pdr_up=v)
               for s, v in enumerate([0.9, 1.0, 0.95])]
    group_b = [_report(cfg_id="fff000fff000", backend="rpl", seed=9,
                       pdr_up=0.8)]
    rows = summarize(group_a + group_b)
    assert [r["cfg_id"] for r in rows] == ["abc123def456", "fff000fff000"]
    assert rows[0]["runs"] == 3
    assert rows[0]["pdr_up_mean"] == pytest.approx(aggregate(group_a)["pdr_up"][0])
    assert rows[0]["pdr_up_sd"] == pytest.approx(aggregate(group_a)["pdr_up"][1])
    assert rows[1]["backend"] == "rpl"
    text = format_summary(rows)
    assert text.splitlines()[0].split() == [
        "backend", "nodes", "dist", "runs", "pdr_up", "pdr_down",
        "delay_up_ms", "delay_down_ms", "overhead_bps"]
    assert len(text.splitlines()) == 3


def test_write_csv_shape(tmp_path):
    out = tmp_path / "runs.csv"
    write_csv(str(out), [_report(), _report(seed=2)])
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "1"
    assert lines[2].split(",")[4] == "2"


LINE_INI = (
    "[scenario]\n"
    "topology = distance-line\n"
    "concentrator_distance = 150.0\n"
    "duration = 30.0\n"
    "warmup = 0.0\n"
    "[sweep]\n"
    "backend = loadng, loadng-ctp, rpl\n"
    "node_count = 2, 3, 4, 5, 6\n"
    "seeds = 10\n")


def test_cli_runs_a_full_sweep_grid(tmp_path, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(LINE_INI)
    out = tmp_path / "grid.csv"
    rc = cli.main(["--scenario", str(ini), "--out", str(out), "--quiet"])
    assert rc == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 5 * 10
    backends = {line.split(",")[1] for line in lines[1:]}
    assert backends == {"loadng", "loadng-ctp", "rpl"}
    summary = capsys.readouterr().out.splitlines()
    assert len(summary) == 1 + 15  # header plus one row per configuration


def test_cli_rerun_writes_identical_bytes(tmp_path, capsys):
    ini = tmp_path / "small.ini"
    ini.write_text(
        "[scenario]\n"
        "topology = distance-line\n"
        "concentrator_distance = 150.0\n"
        "node_count = 3\n"
        "duration = 60.0\n"
        "warmup = 0.0\n"
        "[sweep]\n"
        "backend = loadng, rpl\n"
        "seeds = 2\n")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["--scenario", str(ini), "--out", str(first), "--quiet"]) == 0
    assert cli.main(["--scenario", str(ini), "--out", str(second), "--quiet"]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_cli_runs_the_published_distance_campaign(tmp_path, capsys):
    out = tmp_path / "distance.csv"
    # the duration must outlast the 120 s warmup or the run is rejected
    rc = cli.main(["--scenario", str(CAMPAIGNS / "distance.ini"), "--seeds", "1",
                   "--duration", "300", "--out", str(out), "--quiet"])
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[2], r[3], r[4]) for r in rows] == [
        (backend, "6", distance, "1")
        for backend in ("loadng", "loadng-ctp", "rpl")
        for distance in ("50.0", "250.0", "500.0")]


@pytest.mark.parametrize("text", [
    "[ctp]\nrreq_max_jitter = 1.0\nhello_min_jitter = 1.5\n",
    # valid on its face, but no layout within the resample budget is connected
    "[scenario]\nnode_count = 20\nduration = 300\n[radio]\nrange_m = 20\n",
    # beyond IEEE 802.15.4's macMaxBE and macMaxFrameRetries; the backoff
    # window 1 << (exponent + retries) would overflow or outlast any run
    "[scenario]\nnode_count = 5\nduration = 300\n[mac]\nmax_backoff_exponent = 2000\n",
    "[scenario]\nnode_count = 5\nduration = 300\n[mac]\nmax_retries = 2000\n",
    # warmup below duration, but both round to the same microsecond tick
    "[scenario]\nnode_count = 2\nduration = 60.0000004\nwarmup = 60\n",
    # past the IPv6 payload length and RPL's 8-bit doublings field; unbounded,
    # the first would overflow a packet log column and the second would build
    # a trickle Imax of Imin * 2**(10**11)
    "[scenario]\nnode_count = 5\nduration = 300\n"
    "[traffic]\nreport_bytes = 2147483648\n",
    "[scenario]\nnode_count = 5\nduration = 300\nbackend = rpl\n"
    "[rpl]\ndio_interval_doublings = 100000000000\n",
    # a time in seconds past MAX_DURATION; unbounded, to_ticks would
    # overflow converting it, or a timer built from it, to ticks
    "[scenario]\nnode_count = 5\nduration = 300\n"
    "[loadng]\nroute_lifetime = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\nbackend = rpl\n"
    "[rpl]\ndio_interval_min = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\n[mac]\nbackoff_unit = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\nbackend = loadng-ctp\n"
    "[ctp]\nrebuild_interval = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\nbackend = loadng-ctp\n"
    "[ctp]\nhello_min_jitter = 1e303\nhello_max_jitter = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\nwarmup = 1e303\n",
    "[scenario]\nnode_count = 5\nduration = 300\nremovals = 1e303:3\n",
    # a value is taken as written: % is no interpolation syntax to trip on
    "[scenario]\nbackend = rpl%\n",
    "[radio]\np_edge = 50%\n",
    "[sweep]\nbackend = rpl%(x)s\n",
    # [DEFAULT] is an unknown section, not defaults merged into every other
    "[DEFAULT]\nduration = 60\n",
    "[DEFAULT]\nnode_count = 3\n[scenario]\nduration = 300\n",
    b"\xff\xfe\x00[scenario]\n",
], ids=["jitter-rule", "unplaceable", "backoff-exponent", "retries",
        "sub-tick-window", "payload-bytes", "dio-doublings", "route-lifetime",
        "dio-interval-min", "backoff-unit", "rebuild-interval", "hello-jitter",
        "warmup", "removal-time", "percent-scenario", "percent-radio",
        "percent-sweep", "default-alone", "default-merged", "not-utf-8"])
def test_cli_reports_bad_configuration_on_exit_code_two(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    if isinstance(text, bytes):
        ini.write_bytes(text)
    else:
        ini.write_text(text)
    rc = cli.main(["--scenario", str(ini)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_BAD_CONFIG
    assert "configuration error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where", ["no-such-directory", "a-directory",
                                   "a-read-only-file"])
def test_cli_rejects_an_unwritable_out_path_before_any_run(
        tmp_path, capsys, monkeypatch, where):
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep started before --out was checked")
    monkeypatch.setattr(cli, "run_sweep", no_run)
    out = tmp_path / "missing" / "x.csv" if where == "no-such-directory" else tmp_path
    left = []
    if where == "a-read-only-file":
        out = tmp_path / "old.csv"
        out.write_text("old rows\n")
        left = [out]
        # mode bits do not stop root, so the file's write permission is denied
        # where the check asks for it
        access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda path, mode:
                            path != str(out) and access(path, mode))
    rc = cli.main(["--seeds", "2", "--duration", "300", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_BAD_CONFIG
    assert f"configuration error: cannot write {out}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == left  # the check created nothing
    for kept in left:
        assert kept.read_text() == "old rows\n"
    # nor does it truncate a file it accepts: write_csv alone writes
    kept = tmp_path / "kept.csv"
    kept.write_text("old rows\n")
    cli.check_writable(str(kept))
    assert kept.read_text() == "old rows\n"


def test_cli_overrides_trim_the_sweep(tmp_path, capsys):
    ini = tmp_path / "over.ini"
    ini.write_text(
        "[scenario]\n"
        "topology = distance-line\n"
        "concentrator_distance = 100.0\n"
        "node_count = 2\n"
        "duration = 120.0\n"
        "warmup = 0.0\n"
        "[sweep]\n"
        "backend = loadng, loadng-ctp, rpl\n"
        "seeds = 5\n")
    out = tmp_path / "over.csv"
    rc = cli.main(["--scenario", str(ini), "--out", str(out), "--quiet",
                   "--backend", "rpl", "--seeds", "2", "--duration", "15.0"])
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[4]) for r in rows] == [("rpl", "1"), ("rpl", "2")]


def test_cli_progress_lines_reach_stderr(tmp_path, capsys):
    ini = tmp_path / "p.ini"
    ini.write_text(
        "[scenario]\n"
        "topology = distance-line\n"
        "concentrator_distance = 100.0\n"
        "node_count = 2\n"
        "duration = 15.0\n"
        "warmup = 0.0\n")
    assert cli.main(["--scenario", str(ini)]) == 0
    captured = capsys.readouterr()
    assert "[1/1]" in captured.err
    assert "pdr_up=" in captured.err


def test_run_sweep_reports_progress_in_order():
    cfgs = [replace(ScenarioConfig(node_count=2, topology="distance-line",
                                   concentrator_distance=100.0, duration=15.0,
                                   warmup=0.0, traffic_enabled=False), seed=s)
            for s in (1, 2)]
    seen = []
    results = run_sweep(cfgs, lambda done, total, res: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]
    assert [r.cfg.seed for r in results] == [1, 2]
