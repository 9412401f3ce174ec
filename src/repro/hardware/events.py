"""A minimal discrete-event engine.

The testbed has a genuinely asynchronous structure — every tag beacons on
its own jittered schedule and the middleware snapshots at query time — so
we simulate it with a classic priority-queue event loop rather than fixed
time steps. The engine is deliberately tiny: time-ordered callbacks with
a deterministic tie-break, nothing more.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from ..exceptions import SimulationError

__all__ = ["SimClock", "EventQueue"]


@dataclass
class SimClock:
    """Current simulation time in seconds. Shared by all components."""

    now: float = 0.0

    def advance_to(self, t: float) -> None:
        if t < self.now:
            raise SimulationError(
                f"time cannot move backwards: {t} < {self.now}"
            )
        self.now = t


class EventQueue:
    """Time-ordered event queue with deterministic FIFO tie-breaking.

    Events scheduled for the same instant fire in scheduling order, which
    keeps simulations bit-for-bit reproducible across runs.
    """

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock or SimClock()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_s: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute time ``time_s``."""
        if time_s < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time_s} < {self.clock.now}"
            )
        heapq.heappush(self._heap, (float(time_s), next(self._counter), callback))

    def schedule_in(self, delay_s: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative delay."""
        if delay_s < 0:
            raise SimulationError(f"delay must be non-negative, got {delay_s}")
        self.schedule(self.clock.now + delay_s, callback)

    def run_until(self, t_end: float, *, max_events: int | None = None) -> int:
        """Dispatch events up to and including time ``t_end``.

        Returns the number of events dispatched. ``max_events`` guards
        against runaway self-rescheduling loops in tests.
        """
        dispatched = 0
        while self._heap and self._heap[0][0] <= t_end:
            if max_events is not None and dispatched >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} before reaching t={t_end}"
                )
            time_s, _, callback = heapq.heappop(self._heap)
            self.clock.advance_to(time_s)
            callback()
            dispatched += 1
        self.clock.advance_to(t_end)
        return dispatched
