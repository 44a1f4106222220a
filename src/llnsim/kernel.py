"""Deterministic discrete-event engine with an integer-microsecond clock,
plus the range rule every configuration parameter set shares."""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import field, fields
from typing import Callable

TICKS_PER_SECOND = 1_000_000

# the longest run or timer, in whole seconds: below 2**62 ticks, the range
# the sealed logs' difference coding relies on, so to_ticks cannot overflow
MAX_DURATION = (2**62 - 1) // TICKS_PER_SECOND


def to_ticks(seconds: float) -> int:
    """Convert wall seconds to integer clock ticks (1 tick = 1 microsecond)."""
    return round(seconds * TICKS_PER_SECOND)


def to_seconds(ticks: int) -> float:
    return ticks / TICKS_PER_SECOND


class SimulationError(RuntimeError):
    """Fatal logic error inside a run; the run must abort, never limp on."""


class ConfigError(ValueError):
    """Rejected configuration; the CLI maps this to exit code 2."""


def bounded(default, lo, *, strict=False, hi=math.inf):
    """A parameter field whose value must be finite, >= lo (> lo if strict) and <= hi."""
    return field(default=default, metadata={"bounds": (lo, strict, hi)})


def seconds(default, *, strict=False):
    """A bounded field of seconds: >= 0 (> 0 if strict) and <= MAX_DURATION."""
    return bounded(default, 0, strict=strict, hi=MAX_DURATION)


class Checked:
    """Base of the frozen parameter sets: one range rule for every field.

    validate() rejects a bounded field that is not finite or lies outside
    its bounds, and recurses into nested parameter sets.  Subclasses add
    their cross-field rules after calling it.
    """

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Checked):
                value.validate()
            elif "bounds" in f.metadata:
                lo, strict, hi = f.metadata["bounds"]
                if not (math.isfinite(value) and value <= hi
                        and (value > lo if strict else value >= lo)):
                    upper = f" and <= {hi}" if hi < math.inf else ""
                    raise ConfigError(
                        f"{f.name} must be finite, {'>' if strict else '>='} "
                        f"{lo}{upper}; got {value!r}")


def draw_uniform(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw on [lo, hi]; degenerate bounds return lo exactly."""
    if lo > hi:
        raise SimulationError(f"uniform bounds reversed: {lo} > {hi}")
    if lo == hi:
        return lo
    # the expression Random.uniform evaluates, without its call
    return lo + (hi - lo) * rng.random()


class Simulator:
    """Virtual clock plus an ordered event queue and named RNG substreams.

    Events fire in (fire_at, insertion order), so simultaneous events run in
    the order they were scheduled and a run is a pure function of the
    configuration and seed.  Substreams are seeded from (seed, name) so one
    node's draws never perturb another's.  Events due at the current tick
    wait in a FIFO rather than the heap: they are numbered in the order
    they arrive, so only a heap entry due now with a smaller number (one
    reserved earlier) can run before them.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.now = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._due: deque[tuple[int, Callable[[], None]]] = deque()  # at now
        self._counter = 0
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Named substream; the same (seed, name) always yields the same sequence."""
        rng = self._streams.get(name)
        if rng is None:
            # string seeding hashes with sha512, immune to PYTHONHASHSEED
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng

    def node_stream(self, addr: int) -> random.Random:
        return self.stream(f"node/{addr}")

    def schedule_at(self, fire_at: int, fn: Callable[[], None]) -> None:
        if fire_at == self.now:
            self._due.append((self._counter, fn))
        elif fire_at > self.now:
            heapq.heappush(self._queue, (fire_at, self._counter, fn))
        else:
            raise SimulationError(
                f"event scheduled in the past: {fire_at} < now {self.now}")
        self._counter += 1

    def reserve(self, n: int) -> int:
        """Reserve n insertion numbers; returns the first, for schedule_reserved."""
        first = self._counter
        self._counter += n
        return first

    def schedule_reserved(self, fire_at: int, order: int,
                          fn: Callable[[], None]) -> None:
        """Schedule fn under an insertion number taken earlier from reserve()."""
        if fire_at < self.now:
            raise SimulationError(
                f"event scheduled in the past: {fire_at} < now {self.now}")
        heapq.heappush(self._queue, (fire_at, order, fn))

    def pending(self) -> int:
        return len(self._queue) + len(self._due)

    def run_until(self, t_end: int) -> None:
        """Process every event with fire_at <= t_end, then advance the clock to t_end."""
        now = self.now
        if t_end < now:
            return
        queue = self._queue
        due = self._due
        pop = heapq.heappop
        popleft = due.popleft
        while True:
            if due:
                # the FIFO holds tick now only; a reserved number due now
                # may still precede its head
                if queue and queue[0][0] == now and queue[0][1] < due[0][0]:
                    pop(queue)[2]()
                else:
                    popleft()[1]()
            elif queue and queue[0][0] <= t_end:
                now, _, fn = pop(queue)
                self.now = now
                fn()
            else:
                break
        if t_end > now:
            self.now = t_end
