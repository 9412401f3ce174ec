"""The fault injector: applies a compiled plan on the record path.

:class:`FaultInjector` sits between reader detection and record
delivery (middleware or record sink) via
:meth:`~repro.hardware.simulator.TestbedSimulator.set_fault_injector`.
The simulator hands it one beacon's records per :meth:`process` call.
Each record flows through the plan's faults in order, record after
record, but only through the faults that can touch its
``(reader_id, tag_id)`` pair (a table built on first sight). Survivors
come out immediately; delayed records are buffered in a deterministic
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
from typing import Any, Callable, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..hardware.readers import ReadingRecord
from .models import is_zone_fault
from .plan import FaultPlan

__all__ = ["FaultEvent", "FaultInjector"]

@dataclass(frozen=True)
class FaultEvent:
    """One fault-state transition (outage start, tag death, ...)."""

    time_s: float
    kind: str
    fields: Mapping[str, Any]


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
        #: ``(reader_id, tag_id)`` -> ``apply`` of each fault that can touch it.
        self._routes: dict[tuple[str, str], tuple[Callable, ...]] = {}
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

    # -- the record path -----------------------------------------------------

    def process(
        self, records: Sequence[ReadingRecord], now_s: float
    ) -> list[ReadingRecord]:
        """Run one beacon's records through the plan; returns records due *now*.

        The returned list holds any previously delayed records whose
        release time has arrived (oldest first), followed by this
        beacon's records that survived without delay, in input order.
        Dropped records return nothing; delayed records surface from a
        later call or :meth:`release_due`.

        Records are processed one after another (record-major), each
        through the plan's faults in order, so the :class:`FaultEvent`
        trail and every RNG draw come in the same order as feeding the
        records in one at a time. Each record meets only the faults its
        ``(reader_id, tag_id)`` pair can touch (:meth:`_route`).
        """
        self._now = float(now_s)
        self.records_seen += len(records)
        out = self.release_due(now_s)
        if not self._faults:  # empty plan: pristine fast path
            out.extend(records)
            return out

        routes = self._routes
        emit = self._emit
        dropped = modified = 0
        for record in records:
            key = (record.reader_id, record.tag_id)
            route = routes.get(key)
            if route is None:
                route = routes[key] = self._route(*key)
            release_s = now_s
            for apply in route:
                result = apply(record, release_s, emit)
                if result is None:
                    dropped += 1
                    break
                out_release, out_rec = result
                if out_rec.rssi_dbm != record.rssi_dbm:
                    modified += 1
                if out_release > release_s:
                    release_s = out_release
                record = out_rec
            else:
                if release_s <= now_s:
                    out.append(record)
                else:
                    self.records_delayed += 1
                    heapq.heappush(self._delayed, (release_s, self._seq, record))
                    self._seq += 1
        self.records_dropped += dropped
        self.records_modified += modified
        return out

    def _route(self, reader_id: str, tag_id: str) -> tuple[Callable, ...]:
        """``apply`` of the faults, in plan order, that can touch the pair.

        A model with ``touches`` promises that a record it does not
        touch passes its ``apply`` unchanged, with no draw and no event,
        so skipping it changes nothing. A model without ``touches``
        cannot be classified and meets every record.
        """
        return tuple(
            fault.apply
            for fault in self._faults
            if getattr(fault.model, "touches", None) is None
            or fault.model.touches(reader_id, tag_id)
        )

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
