"""Stream adapter: testbed beacon records as a consumable stream.

The paper's middleware (§3.2) receives a continuous stream of
``(tag ID, reader ID, RSSI)`` tuples from the readers. Inside the
event-driven simulator those records are pushed synchronously into the
built-in :class:`~repro.hardware.middleware.MiddlewareServer`; the
streaming service instead wants to *pull* them through its own bounded
ingestion queue so that overflow, backpressure and drops are real.

:class:`SimulatorRecordStream` interposes on the simulator's record sink
(:meth:`TestbedSimulator.set_record_sink`) and exposes the beacon traffic
as time-chunked batches via :meth:`advance` / :meth:`iter_chunks`.
Simulation time only advances while the consumer pulls, so the whole
stack stays deterministic for a given seed.
"""

from __future__ import annotations

from typing import Iterator

from ..exceptions import ConfigurationError, SimulationError
from .readers import ReadingRecord
from .simulator import TestbedSimulator

__all__ = ["SimulatorRecordStream"]


class SimulatorRecordStream:
    """Pull-based stream of :class:`ReadingRecord` from a running testbed.

    Use as a context manager — the stream owns the simulator's record
    sink while open, and restores direct middleware delivery on close::

        with SimulatorRecordStream(simulator, step_s=0.5) as stream:
            for now_s, records in stream.iter_chunks(duration_s=10.0):
                ...

    Parameters
    ----------
    simulator:
        The testbed to tap. Must not already have a record sink.
    step_s:
        Simulation-time granularity of one chunk. Smaller steps give the
        consumer finer interleaving (more snapshot opportunities) at
        slightly more per-chunk overhead.
    """

    def __init__(self, simulator: TestbedSimulator, *, step_s: float = 0.5):
        if step_s <= 0:
            raise ConfigurationError(f"step_s must be positive, got {step_s}")
        self.simulator = simulator
        self.step_s = float(step_s)
        self._buffer: list[ReadingRecord] = []
        self._open = False
        self._records_streamed = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SimulatorRecordStream":
        if self._open:
            raise SimulationError("stream is already open")
        if self.simulator.record_sink is not None:
            raise SimulationError(
                "simulator already has a record sink; only one stream may "
                "tap a testbed at a time"
            )
        self.simulator.set_record_sink(self._buffer.append)
        self._open = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the simulator's record sink."""
        if self._open:
            self.simulator.set_record_sink(None)
            self._open = False

    @property
    def records_streamed(self) -> int:
        """Total records handed to consumers so far."""
        return self._records_streamed

    # -- synchronous consumption --------------------------------------------

    def advance(self, dt_s: float) -> list[ReadingRecord]:
        """Advance simulation time by ``dt_s``; return the records emitted."""
        if not self._open:
            raise SimulationError("stream is closed; use it as a context manager")
        self.simulator.run_for(dt_s)
        out, self._buffer[:] = list(self._buffer), []
        self._records_streamed += len(out)
        return out

    def iter_chunks(
        self, duration_s: float
    ) -> Iterator[tuple[float, list[ReadingRecord]]]:
        """Yield ``(now_s, records)`` chunks covering ``duration_s``.

        The final chunk is truncated so the stream ends exactly at
        ``start + duration_s``.
        """
        if duration_s < 0:
            raise ConfigurationError(
                f"duration_s must be >= 0, got {duration_s}"
            )
        end = self.simulator.now + duration_s
        while self.simulator.now < end:
            dt = min(self.step_s, end - self.simulator.now)
            records = self.advance(dt)
            yield self.simulator.now, records

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return (
            f"SimulatorRecordStream({state}, step={self.step_s:g}s, "
            f"streamed={self._records_streamed})"
        )
