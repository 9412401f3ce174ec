"""The fault injector: applies a compiled plan on the record path.

:class:`FaultInjector` sits between ``Reader.receive`` and record
delivery (middleware or record sink) via
:meth:`~repro.hardware.simulator.TestbedSimulator.set_fault_injector`.
Records flow through the plan's faults in order; survivors come out
immediately, delayed records are buffered in a deterministic
``(release_time, sequence)``-ordered heap and released as simulation
time passes.

Accounting: the injector counts records seen / dropped / modified /
delayed (a session registers registry reads over these) and keeps a full
:class:`FaultEvent` trail of every state transition, which doubles as
the determinism witness in tests (same seed ⇒ identical event list).

Fast path guarantee: with an *empty* plan the injector forwards every
record untouched and draws no randomness — downstream output is
bit-identical to running without an injector at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Mapping

from ..exceptions import ConfigurationError
from ..hardware.readers import ReadingRecord
from ..utils.logging import get_structured_logger, log_event
from .models import is_zone_fault
from .plan import FaultPlan

__all__ = ["FaultEvent", "FaultInjector"]

_LOGGER_NAME = "repro.faults"


@dataclass(frozen=True)
class FaultEvent:
    """One fault-state transition (outage start, tag death, ...)."""

    time_s: float
    kind: str
    fields: Mapping[str, Any]

    def as_tuple(self) -> tuple:
        """Hashable summary used by the determinism tests."""
        return (round(self.time_s, 9), self.kind, tuple(sorted(self.fields.items())))


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to reading records.

    Parameters
    ----------
    plan:
        The fault plan; compiled once at construction.
    """

    def __init__(self, plan: FaultPlan):
        for fault in plan:
            if is_zone_fault(fault):
                raise ConfigurationError(
                    f"{type(fault).__name__} is a zone-scoped control-plane "
                    f"fault; it is consumed by the zone gateway "
                    f"(repro.zones.failover), not the record-path injector"
                )
        self.plan = plan
        self._faults = plan.compile()
        self._logger = get_structured_logger(_LOGGER_NAME)
        self._delayed: list[tuple[float, int, ReadingRecord]] = []
        self._seq = 0
        self._now = 0.0
        self.records_seen = 0
        self.records_dropped = 0
        self.records_modified = 0
        self.records_delayed = 0
        self.events: list[FaultEvent] = []

    # -- event trail ---------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        self.events.append(FaultEvent(time_s=self._now, kind=kind, fields=fields))
        log_event(self._logger, kind, t=self._now, **fields)

    # -- the record path -----------------------------------------------------

    def process(self, record: ReadingRecord, now_s: float) -> list[ReadingRecord]:
        """Run one record through the plan; returns records due *now*.

        The returned list contains any previously delayed records whose
        release time has arrived (oldest first), followed by this record
        if it survived without delay. Dropped records return nothing;
        delayed records surface from a later call or :meth:`release_due`.
        """
        self._now = float(now_s)
        self.records_seen += 1
        out = self.release_due(now_s)
        if not self._faults:  # empty plan: pristine fast path
            out.append(record)
            return out

        pending: list[tuple[float, ReadingRecord]] = [(now_s, record)]
        for fault in self._faults:
            next_pending: list[tuple[float, ReadingRecord]] = []
            for release_s, rec in pending:
                results = fault.apply(rec, release_s, self._emit)
                if not results:
                    self.records_dropped += 1
                for out_release, out_rec in results:
                    if out_rec.rssi_dbm != rec.rssi_dbm:
                        self.records_modified += 1
                    next_pending.append((max(out_release, release_s), out_rec))
            pending = next_pending
            if not pending:
                break

        for release_s, rec in pending:
            if release_s <= now_s:
                out.append(rec)
            else:
                self.records_delayed += 1
                heapq.heappush(self._delayed, (release_s, self._seq, rec))
                self._seq += 1
        return out

    def release_due(self, now_s: float) -> list[ReadingRecord]:
        """Delayed records whose release time has arrived, oldest first."""
        out: list[ReadingRecord] = []
        while self._delayed and self._delayed[0][0] <= now_s:
            out.append(heapq.heappop(self._delayed)[2])
        return out

    def flush(self) -> list[ReadingRecord]:
        """Release *everything* still buffered (end of run)."""
        out = [rec for _, _, rec in sorted(self._delayed)]
        self._delayed.clear()
        return out

    @property
    def pending_delayed(self) -> int:
        """Records currently held back by delay faults."""
        return len(self._delayed)

    def counters(self) -> dict[str, int]:
        """Snapshot of the injector's accounting."""
        return {
            "seen": self.records_seen,
            "dropped": self.records_dropped,
            "modified": self.records_modified,
            "delayed": self.records_delayed,
            "pending_delayed": self.pending_delayed,
            "transitions": len(self.events),
        }

    def __repr__(self) -> str:
        return (
            f"FaultInjector(faults={len(self.plan)}, seed={self.plan.seed}, "
            f"seen={self.records_seen}, dropped={self.records_dropped})"
        )
