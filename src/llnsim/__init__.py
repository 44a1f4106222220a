"""Deterministic discrete-event simulator for multi-hop metering networks.

Three interchangeable routing backends (reactive flooding, collection tree,
proactive tree with source routes) run over the same lossy-disc radio and
CSMA link layer, under the same bidirectional metering workload, producing
directly comparable delivery, delay, and overhead figures.
"""

from .kernel import SimulationError, Simulator, TICKS_PER_SECOND, to_seconds, to_ticks
from .metrics import MetricsReport, aggregate
from .network import Network
from .scenario import ConfigError, ScenarioConfig, load_scenario
from .experiment import expand_sweep, run_sweep, summarize, write_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "MetricsReport",
    "Network",
    "ScenarioConfig",
    "SimulationError",
    "Simulator",
    "TICKS_PER_SECOND",
    "aggregate",
    "expand_sweep",
    "load_scenario",
    "run_sweep",
    "summarize",
    "to_seconds",
    "to_ticks",
    "write_csv",
    "__version__",
]
