"""Event ordering, clock discipline, and seeded randomness."""
from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llnsim.kernel import (SimulationError, Simulator, TICKS_PER_SECOND,
                           draw_uniform, to_seconds, to_ticks)


def test_tick_resolution():
    assert TICKS_PER_SECOND == 1_000_000
    assert to_ticks(1.0) == 1_000_000
    assert to_ticks(0.00032) == 320
    assert to_seconds(16896) == 0.016896


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator(seed=1)
    order = []
    for tag in "abc":
        sim.schedule_at(10, lambda t=tag: order.append(t))
    sim.run_until(10)
    assert order == ["a", "b", "c"]


def test_event_scheduled_at_now_runs_after_already_due_events():
    sim = Simulator(seed=1)
    order = []

    def first():
        order.append("first")
        sim.schedule_at(sim.now, lambda: order.append("late"))

    sim.schedule_at(10, first)
    sim.schedule_at(10, lambda: order.append("second"))
    sim.run_until(10)
    assert order == ["first", "second", "late"]


def test_scheduling_in_the_past_aborts():
    sim = Simulator(seed=1)
    sim.schedule_at(5, lambda: None)
    sim.run_until(5)
    with pytest.raises(SimulationError):
        sim.schedule_at(4, lambda: None)


def _noop():
    pass


def test_a_reserved_event_in_the_past_aborts():
    sim = Simulator(seed=1)
    order = sim.reserve(1)
    sim.run_until(10)
    with pytest.raises(SimulationError, match="in the past"):
        sim.schedule_reserved(5, order, _noop)


def test_a_reserved_number_fires_between_earlier_and_later_events():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule_at(10, lambda: fired.append("before"))
    first = sim.reserve(2)
    sim.schedule_at(10, lambda: fired.append("after"))
    sim.schedule_reserved(10, first + 1, lambda: fired.append("second"))
    sim.schedule_reserved(10, first, lambda: fired.append("first"))
    sim.run_until(10)
    assert fired == ["before", "first", "second", "after"]


def test_zero_delay_events_keep_their_place_around_a_reserved_send():
    sim = Simulator(seed=1)
    fired = []

    def at_ten():
        sim.schedule_at(sim.now, lambda: fired.append("before"))
        order = sim.reserve(1)
        sim.schedule_at(sim.now, lambda: fired.append("after"))
        sim.schedule_reserved(10, order, lambda: fired.append("reserved"))
    sim.schedule_at(10, at_ten)
    sim.run_until(10)
    assert fired == ["before", "reserved", "after"]


def test_pending_counts_events_due_now_and_later():
    sim = Simulator(seed=1)
    for _ in range(3):
        sim.schedule_at(0, _noop)
    sim.schedule_at(5, _noop)
    sim.schedule_reserved(0, sim.reserve(1), _noop)
    assert sim.pending() == 5
    sim.run_until(0)
    assert sim.pending() == 1
    sim.run_until(5)
    assert sim.pending() == 0


def test_run_until_a_past_tick_leaves_events_due_now_waiting():
    sim = Simulator(seed=1)
    sim.run_until(10)
    fired = []
    sim.schedule_at(10, lambda: fired.append(sim.now))
    sim.run_until(5)
    assert (fired, sim.now, sim.pending()) == ([], 10, 1)
    sim.run_until(10)
    assert fired == [10]


def _chain(sim, order, items):
    """Schedule (tick, fn) items under one reserved number, one at a time:
    each pushes its successor as it fires, as a traffic stream does."""
    items = iter(items)

    def push():
        item = next(items, None)
        if item is not None:
            fire_at, fn = item

            def fire():
                push()
                fn()
            sim.schedule_reserved(fire_at, order, fire)
    push()


def test_a_chain_out_of_order_aborts_at_the_past_gate():
    sim = Simulator(seed=1)
    _chain(sim, sim.reserve(1), [(10, _noop), (5, _noop)])
    with pytest.raises(SimulationError, match="in the past"):
        sim.run_until(20)


@st.composite
def _timelines(draw):
    """Streams of sorted ticks and one-off events on few ticks, each with
    follow-ups that its handler schedules, most of them at the same tick."""
    ticks = st.integers(min_value=0, max_value=6)
    follow_ups = st.lists(st.sampled_from([0, 0, 0, 1, 3]), max_size=3)
    streams = [sorted(draw(st.lists(ticks, max_size=10)))
               for _ in range(draw(st.integers(0, 4)))]
    return ([[(t, draw(follow_ups)) for t in ts] for ts in streams],
            draw(st.lists(st.tuples(ticks, follow_ups), max_size=6)),
            draw(st.lists(st.tuples(ticks, follow_ups), max_size=6)))


class HeapSimulator(Simulator):
    """The reference kernel: every event in the one heap, the FIFO unused."""

    def schedule_at(self, fire_at, fn):
        if fire_at < self.now:
            raise SimulationError(
                f"event scheduled in the past: {fire_at} < now {self.now}")
        heapq.heappush(self._queue, (fire_at, self._counter, fn))
        self._counter += 1

    def run_until(self, t_end):
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            fire_at, _, fn = heapq.heappop(queue)
            self.now = fire_at
            fn()
        if t_end > self.now:
            self.now = t_end


def _fire_order(timeline, lazy: bool, kernel=Simulator) -> list:
    streams, before, after = timeline
    sim = kernel(seed=1)
    log = []

    def event(tag, follow_ups=()):
        # each follow-up schedules the ones after it in turn, so zero-delay
        # children nest several deep
        def fire():
            log.append((sim.now, tag))
            for j, delay in enumerate(follow_ups):
                sim.schedule_at(sim.now + delay,
                                event((tag, j), follow_ups[j + 1:]))
        return fire

    for j, (t, follow) in enumerate(before):
        sim.schedule_at(t, event(("before", j), follow))
    items = [[(t, event(("stream", rank, i), follow))
              for i, (t, follow) in enumerate(stream)]
             for rank, stream in enumerate(streams)]
    if lazy:
        first = sim.reserve(len(items))
        for rank, stream in enumerate(items):
            _chain(sim, first + rank, stream)
    else:
        merged = sorted(((t, rank, fn) for rank, stream in enumerate(items)
                         for t, fn in stream), key=lambda x: x[:2])
        for t, _, fn in merged:
            sim.schedule_at(t, fn)
    for j, (t, follow) in enumerate(after):
        sim.schedule_at(t, event(("after", j), follow))
    sim.run_until(100)
    return log


@given(_timelines())
@settings(max_examples=150)
def test_chained_streams_fire_as_if_every_item_were_scheduled_up_front(timeline):
    reference = _fire_order(timeline, lazy=False, kernel=HeapSimulator)
    assert _fire_order(timeline, lazy=True, kernel=HeapSimulator) == reference
    assert _fire_order(timeline, lazy=True) == reference
    assert _fire_order(timeline, lazy=False) == reference


def test_run_until_on_empty_queue_advances_clock():
    sim = Simulator(seed=1)
    sim.run_until(1234)
    assert sim.now == 1234
    assert sim.pending() == 0


def test_clock_never_runs_backwards():
    sim = Simulator(seed=7)
    seen = []
    for at in (30, 10, 10, 20, 30, 5):
        sim.schedule_at(at, lambda: seen.append(sim.now))
    sim.run_until(100)
    assert seen == sorted(seen)
    assert sim.now == 100


def test_named_streams_reproduce_and_do_not_share_state():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.stream("x").random() for _ in range(8)] == \
           [b.stream("x").random() for _ in range(8)]
    # interleaving draws from another stream must not perturb the first
    c = Simulator(seed=42)
    got = []
    for _ in range(8):
        got.append(c.stream("x").random())
        c.stream("y").random()
    d = Simulator(seed=42)
    assert got == [d.stream("x").random() for _ in range(8)]
    assert Simulator(seed=1).stream("x").random() != \
           Simulator(seed=2).stream("x").random()


def test_node_stream_is_the_named_substream():
    sim = Simulator(seed=3)
    assert sim.node_stream(17) is sim.stream("node/17")


def test_uniform_degenerate_bounds_return_lo_exactly():
    sim = Simulator(seed=1)
    assert draw_uniform(sim.stream("z"), 4.0, 4.0) == 4.0
    assert draw_uniform(sim.stream("z"), 0.0, 0.0) == 0.0


def test_uniform_reversed_bounds_abort():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        draw_uniform(sim.stream("z"), 5.0, 3.0)


def test_uniform_empirical_mean():
    rng = Simulator(seed=9).stream("mean-check")
    n = 100_000
    total = sum(draw_uniform(rng, 3.0, 5.0) for _ in range(n))
    assert abs(total / n - 4.0) < 0.02


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
@settings(max_examples=60)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=11)
    fired = []
    for delay in delays:
        sim.schedule_at(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run_until(10_000)
    assert [now for now, _ in fired] == sorted(now for now, _ in fired)
    assert [d for _, d in fired] == sorted(delays)


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=100)
def test_tick_second_roundtrip(ticks):
    assert to_ticks(to_seconds(ticks)) == ticks
