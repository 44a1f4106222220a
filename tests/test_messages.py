"""Wire sizes, overhead labels, and circular sequence-number arithmetic."""
from __future__ import annotations

from dataclasses import astuple, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llnsim.messages import (BROADCAST, MsgKind, RouteMsg, SEQ_HALF, SEQ_MOD,
                             encoded_size, next_seq, seq_newer)
from llnsim.network import Network
from llnsim.node import NodeEngine
from llnsim.scenario import BACKENDS, ScenarioConfig


def _msg(kind, **kw):
    return RouteMsg(kind, originator=1, destination=2, **kw)


def test_fixed_message_sizes():
    assert encoded_size(_msg(MsgKind.RREQ)) == 24
    assert encoded_size(_msg(MsgKind.TRIGGER)) == 24
    assert encoded_size(_msg(MsgKind.BUILD)) == 24
    assert encoded_size(_msg(MsgKind.RREP)) == 24
    assert encoded_size(_msg(MsgKind.RREP_ACK)) == 12
    assert encoded_size(_msg(MsgKind.RERR)) == 20
    assert encoded_size(_msg(MsgKind.DIO)) == 36
    assert encoded_size(_msg(MsgKind.DIS)) == 8
    assert encoded_size(_msg(MsgKind.DAO)) == 28


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_control_frame_is_labelled_by_its_message_kind(backend):
    cfg = ScenarioConfig(backend=backend, node_count=12, duration=600.0,
                         warmup=60.0, removals=((300.0, 5),))
    labels = {row[1] for row in Network(cfg).run().metrics.control_log}
    assert labels and labels <= {kind.value for kind in MsgKind}
    if backend == "loadng-ctp":
        assert {"rreq_trigger", "rreq_build"} <= labels


def test_hello_grows_two_bytes_per_listed_neighbor():
    assert encoded_size(_msg(MsgKind.HELLO)) == 12
    five = _msg(MsgKind.HELLO, hello_neighbors=(1, 2, 3, 4, 5))
    assert encoded_size(five) == 22


def test_seq_newer_plain_and_equal():
    assert seq_newer(5, 3)
    assert not seq_newer(3, 5)
    assert not seq_newer(3, 3)


def test_seq_newer_across_wraparound():
    # circular distance oracle: how far b must count up to reach a
    assert (2 - 65534) % SEQ_MOD == 4
    assert 4 < SEQ_HALF
    assert seq_newer(2, 65534)
    assert not seq_newer(65534, 2)


def test_next_seq_wraps_to_zero():
    assert next_seq(0) == 1
    assert next_seq(SEQ_MOD - 1) == 0


@given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
def test_seq_newer_never_symmetric_and_never_reflexive(a, b):
    assert not (seq_newer(a, b) and seq_newer(b, a))
    assert not seq_newer(a, a)


@given(st.integers(0, SEQ_MOD - 1),
       st.data())
def test_seq_newer_orders_any_window_under_half_range(base, data):
    # inside one half-range window the circular comparison agrees with the
    # plain order of the offsets, which makes it a strict total order there
    offs = data.draw(st.lists(st.integers(0, SEQ_HALF - 1), min_size=2,
                              max_size=6, unique=True))
    vals = [(base + o) % SEQ_MOD for o in offs]
    for x, ox in zip(vals, offs):
        for y, oy in zip(vals, offs):
            assert seq_newer(x, y) == (ox > oy)


def test_forwarding_bumps_hop_count_only():
    msg = RouteMsg(MsgKind.RREQ, originator=7, destination=BROADCAST,
                   seq=12, hop_count=3)
    fwd = msg.forwarded()
    assert fwd.hop_count == 4
    assert (fwd.kind, fwd.originator, fwd.destination, fwd.seq) == \
           (msg.kind, msg.originator, msg.destination, msg.seq)


def test_forwarding_copies_every_other_field():
    msg = RouteMsg(MsgKind.DAO, originator=3, destination=9, seq=40_000,
                   hop_count=2, rrep_required=True, hello_neighbors=(1, 5),
                   rank=512, dao_parent=4, unreachable=8)
    assert msg.forwarded() == replace(msg, hop_count=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_handler_changes_a_message_after_it_is_sent(monkeypatch, backend):
    # a broadcast hands one message object to every receiver, and a RouteMsg
    # is not frozen, so every handler must leave it as it was sent
    sent = []
    send = NodeEngine.send_control

    def snapshot(engine, msg, dst):
        sent.append((msg, astuple(msg)))
        send(engine, msg, dst)
    monkeypatch.setattr(NodeEngine, "send_control", snapshot)
    Network(ScenarioConfig(backend=backend, node_count=20, duration=600.0,
                           removals=((300.0, 7),))).run()
    kinds = {msg.kind for msg, _ in sent}
    assert len(kinds) >= 3
    assert [msg for msg, before in sent if astuple(msg) != before] == []
