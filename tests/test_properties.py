"""Whole-run metamorphic relations: two configurations that must report alike."""
from __future__ import annotations

from dataclasses import replace

import pytest

from llnsim.network import Network
from llnsim.radio import Position
from llnsim.scenario import ScenarioConfig


@pytest.mark.parametrize("backend", ["loadng", "loadng-ctp", "rpl"])
def test_a_removal_after_the_last_tick_changes_no_report_field(backend):
    # a removal at exactly the duration still fires, so this one is later
    cfg = ScenarioConfig(backend=backend, node_count=12, duration=400.0)
    late = replace(cfg, removals=((401.0, 5),))
    plain, removed = Network(cfg).run(), Network(late).run()
    assert plain.report.cfg_id != removed.report.cfg_id
    assert replace(removed.report, cfg_id=plain.report.cfg_id) == plain.report
    assert plain.report.up_created > 0
    assert not any(engine.mac.dead for engine in removed.nodes.values())


@pytest.mark.parametrize("backend", ["loadng", "loadng-ctp", "rpl"])
def test_a_mirrored_layout_changes_no_report_field(backend):
    # the radio sees only distances, and x -> -x keeps every one exactly
    cfg = ScenarioConfig(backend=backend, node_count=12, duration=400.0)
    plain = Network(cfg).run()
    mirrored = {addr: Position(-pos.x, pos.y)
                for addr, pos in plain.positions.items()}
    assert Network(cfg, mirrored).run().report == plain.report
    assert plain.report.up_created > 0
