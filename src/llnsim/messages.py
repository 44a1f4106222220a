"""Routing control messages, their wire sizes, and sequence-number arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from enum import StrEnum

# 16-bit link-local addresses; the top value is reserved for broadcast
BROADCAST = 0xFFFF

SEQ_MOD = 1 << 16
SEQ_HALF = 1 << 15


class MsgKind(StrEnum):
    # a StrEnum hashes and compares as its string value, in C
    RREQ = "rreq"
    TRIGGER = "rreq_trigger"  # collection tree: learn which neighbors hear us
    BUILD = "rreq_build"  # collection tree: install routes over symmetric links
    RREP = "rrep"
    RREP_ACK = "rrep_ack"
    RERR = "rerr"
    HELLO = "hello"
    DIO = "dio"
    DIS = "dis"
    DAO = "dao"


# encoded byte size per message kind; HELLO grows with its neighbor list
BASE_SIZES = {
    MsgKind.RREQ: 24,
    MsgKind.TRIGGER: 24,
    MsgKind.BUILD: 24,
    MsgKind.RREP: 24,
    MsgKind.RREP_ACK: 12,
    MsgKind.RERR: 20,
    MsgKind.HELLO: 12,
    MsgKind.DIO: 36,
    MsgKind.DIS: 8,
    MsgKind.DAO: 28,
}
HELLO_NEIGHBOR_BYTES = 2
# the overhead-log label per message kind, a plain string
LABELS = {kind: kind.value for kind in MsgKind}


@dataclass(slots=True)
class RouteMsg:
    """Control message, never changed once built; forwarding builds a fresh copy.

    Not frozen: a frozen dataclass costs several times as much to build, and
    one broadcast copy reaches every receiver, so the handlers must only
    read it (tests/test_messages.py guards this over whole runs).
    """

    kind: MsgKind
    originator: int
    destination: int
    seq: int = 0
    hop_count: int = 0
    rrep_required: bool = False
    hello_neighbors: tuple[int, ...] = ()
    rank: int = 0
    dao_parent: int | None = None
    unreachable: int | None = None  # RERR: destination whose route broke

    def forwarded(self) -> "RouteMsg":
        # a direct call: dataclasses.replace costs several times as much
        return RouteMsg(self.kind, self.originator, self.destination, self.seq,
                        self.hop_count + 1, self.rrep_required,
                        self.hello_neighbors, self.rank, self.dao_parent,
                        self.unreachable)


def encoded_size(msg: RouteMsg) -> int:
    size = BASE_SIZES[msg.kind]
    if msg.kind is MsgKind.HELLO:
        size += HELLO_NEIGHBOR_BYTES * len(msg.hello_neighbors)
    return size


def seq_newer(a: int, b: int) -> bool:
    """True when a is fresher than b under circular 16-bit comparison."""
    return 0 < (a - b) % SEQ_MOD < SEQ_HALF


def next_seq(current: int) -> int:
    return (current + 1) % SEQ_MOD
