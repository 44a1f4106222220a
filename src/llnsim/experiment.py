"""Sweep expansion, sequential execution, CSV output, and aggregation."""
from __future__ import annotations

import csv
import itertools
from dataclasses import replace

from .metrics import AGGREGATE_METRICS, CSV_COLUMNS, MetricsReport, aggregate, report_row
from .network import Network
from .scenario import ConfigError, ScenarioConfig

# the only axes a [sweep] section may vary; everything else is fixed per file
SWEEP_KEYS = ("backend", "node_count", "concentrator_distance", "seeds")


def _split(text: str | None) -> list[str]:
    if text is None:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def expand_sweep(base: ScenarioConfig, sweep: dict) -> list[ScenarioConfig]:
    """Cartesian product of the sweep axes over the base configuration.

    Order is deterministic: backend, then node count, then distance, with
    seeds 1..N innermost.  Without a "seeds" entry only the base seed runs.
    """
    unknown = sorted(set(sweep) - set(SWEEP_KEYS))
    if unknown:
        raise ConfigError(f"unknown sweep keys {unknown}; "
                          f"expected a subset of {list(SWEEP_KEYS)}")
    names = SWEEP_KEYS[:3]  # "seeds" is a run count, not a field value
    try:
        # each value takes the type of the field it varies
        axes = [[type(getattr(base, key))(x) for x in _split(sweep.get(key))]
                or [getattr(base, key)] for key in names]
        seeds = (range(1, int(sweep["seeds"]) + 1)
                 if "seeds" in sweep else [base.seed])
    except ValueError as exc:
        raise ConfigError(f"bad sweep value: {exc}") from None
    if not seeds:
        raise ConfigError("seeds must be >= 1")
    configs = []
    for values in itertools.product(*axes, seeds):
        cfg = replace(base, **dict(zip((*names, "seed"), values)))
        cfg.validate()
        configs.append(cfg)
    return configs


def run_sweep(configs: list[ScenarioConfig], progress=None) -> list[Network]:
    """Execute every configuration in order; progress(i, total, net) per run."""
    nets = []
    total = len(configs)
    for i, cfg in enumerate(configs):
        net = Network(cfg).run()
        nets.append(net)
        if progress is not None:
            progress(i + 1, total, net)
    return nets


def write_csv(path: str, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report_row(report))


def summarize(reports: list[MetricsReport]) -> list[dict]:
    """Per-configuration means and sample stddevs, in first-seen order."""
    groups: dict[str, list[MetricsReport]] = {}
    for report in reports:
        groups.setdefault(report.cfg_id, []).append(report)
    rows = []
    for cfg_id, group in groups.items():
        stats = aggregate(group)
        row = {
            "cfg_id": cfg_id,
            "backend": group[0].backend,
            "node_count": group[0].node_count,
            "distance": group[0].distance,
            "runs": len(group),
        }
        for name in AGGREGATE_METRICS:
            mean, sd = stats.get(name, (None, None))
            row[f"{name}_mean"] = mean
            row[f"{name}_sd"] = sd
        rows.append(row)
    return rows


def format_summary(rows: list[dict]) -> str:
    """Fixed-width table of the summary rows, one line per configuration."""
    header = (f"{'backend':<12} {'nodes':>5} {'dist':>6} {'runs':>4} "
              f"{'pdr_up':>8} {'pdr_down':>8} {'delay_up_ms':>11} "
              f"{'delay_down_ms':>13} {'overhead_bps':>12}")
    lines = [header]

    def fmt(value, scale=1.0, digits=4):
        if value is None:
            return "-"
        return f"{value * scale:.{digits}f}"

    for row in rows:
        dist = "-" if row["distance"] is None else f"{row['distance']:.0f}"
        lines.append(
            f"{row['backend']:<12} {row['node_count']:>5} {dist:>6} "
            f"{row['runs']:>4} {fmt(row['pdr_up_mean']):>8} "
            f"{fmt(row['pdr_down_mean']):>8} "
            f"{fmt(row['delay_up_s_mean'], 1e3, 2):>11} "
            f"{fmt(row['delay_down_s_mean'], 1e3, 2):>13} "
            f"{fmt(row['overhead_bps_mean'], 1.0, 2):>12}")
    return "\n".join(lines)
