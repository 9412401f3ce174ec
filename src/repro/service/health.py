"""Per-reader health tracking with a circuit breaker (service layer).

The streaming pipeline needs to know which readers to *trust* before it
asks the middleware for a snapshot: a reader mid-outage still has stale
series in the middleware, and repeatedly attempting full-VIRE on stale
data wastes the tick deadline. Standard circuit-breaker mechanics:

* ``CLOSED`` — reader healthy; consecutive freshness failures count up.
* ``OPEN`` — after ``failure_threshold`` consecutive failures the
  breaker opens; the pipeline excludes the reader outright (no probe)
  until ``recovery_timeout_s`` of simulated time has passed.
* ``HALF_OPEN`` — after the timeout the next evaluation *probes* the
  reader: one success re-closes the breaker, one failure re-opens it
  (and restarts the timeout).

Time is the simulation clock passed in by the caller, never wall-clock,
so breaker transitions are exactly as deterministic as the fault plan
that causes them. Transitions are counted on each breaker
(:meth:`ReaderHealthTracker.transitions_total`); the readers an open
breaker excludes show on each batch's trace span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..exceptions import ConfigurationError
from ..utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ReaderHealthTracker",
]

class BreakerState:
    """String constants for the breaker's three states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs shared by all per-reader breakers.

    Parameters
    ----------
    failure_threshold:
        Consecutive freshness failures before the breaker opens.
    recovery_timeout_s:
        Simulated seconds an open breaker waits before allowing a
        half-open probe.
    """

    failure_threshold: int = 3
    recovery_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        ensure_positive_int(self.failure_threshold, "failure_threshold")
        # A non-finite timeout would keep an open breaker from ever
        # probing its reader again.
        ensure_positive(self.recovery_timeout_s, "recovery_timeout_s")


class CircuitBreaker:
    """One reader's breaker; driven by :class:`ReaderHealthTracker`."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        self.transitions = 0

    def allows(self, now_s: float) -> bool:
        """Whether the reader may participate in the next estimate.

        An open breaker transitions to half-open (allowing one probe)
        once the recovery timeout has elapsed.
        """
        if self.state == BreakerState.OPEN:
            assert self.opened_at_s is not None
            if now_s - self.opened_at_s >= self.policy.recovery_timeout_s:
                self.state = BreakerState.HALF_OPEN
                self.transitions += 1
                return True
            return False
        return True

    def record_success(self) -> bool:
        """Register a fresh observation; returns True on a close transition.

        An open breaker ignores it until its half-open probe (:meth:`allows`).
        """
        if self.state == BreakerState.OPEN:
            return False
        closed = self.state == BreakerState.HALF_OPEN
        if closed:
            self.transitions += 1
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = None
        return closed

    def record_failure(self, now_s: float) -> bool:
        """Register a stale observation; returns True on an open transition."""
        if self.state == BreakerState.HALF_OPEN:
            # Failed probe: straight back to open, restart the timeout.
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
            self.transitions += 1
            return True
        self.consecutive_failures += 1
        if (
            self.state == BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
            self.transitions += 1
            return True
        return False


class ReaderHealthTracker:
    """Tracks per-reader freshness and drives one breaker per reader.

    Parameters
    ----------
    reader_ids:
        The readers to track (middleware order).
    policy:
        Shared :class:`BreakerPolicy`.
    freshness_floor:
        Minimum fresh fraction (see
        :meth:`~repro.hardware.middleware.MiddlewareServer.reader_freshness`)
        counted as a healthy observation.
    """

    def __init__(
        self,
        reader_ids: list[str],
        *,
        policy: BreakerPolicy | None = None,
        freshness_floor: float = 0.5,
    ):
        if not reader_ids:
            raise ConfigurationError("reader_ids must be non-empty")
        if not (0.0 < freshness_floor <= 1.0):
            raise ConfigurationError(
                f"freshness_floor must be in (0, 1], got {freshness_floor}"
            )
        self.policy = policy or BreakerPolicy()
        self.freshness_floor = float(freshness_floor)
        self.breakers: dict[str, CircuitBreaker] = {
            rid: CircuitBreaker(self.policy) for rid in reader_ids
        }

    # -- observation ---------------------------------------------------------

    def observe(self, freshness: Mapping[str, float], now_s: float) -> None:
        """Feed one freshness snapshot (reader_id -> fresh fraction).

        Readers missing from the mapping are treated as fully stale
        (freshness 0.0) — a reader that has vanished is the canonical
        failure.
        """
        for rid, breaker in self.breakers.items():
            if float(freshness.get(rid, 0.0)) >= self.freshness_floor:
                breaker.record_success()
            else:
                breaker.record_failure(now_s)

    # -- queries -------------------------------------------------------------

    def allowed_readers(self, now_s: float) -> list[str]:
        """Readers whose breaker currently admits traffic (incl. probes).

        Calling this may flip open breakers to half-open (timeout
        elapsed), which counts as a transition.
        """
        return [
            rid for rid, breaker in self.breakers.items()
            if breaker.allows(now_s)
        ]

    def state(self) -> dict[str, str]:
        """Current breaker state per reader."""
        return {rid: b.state for rid, b in self.breakers.items()}

    def open_readers(self) -> list[str]:
        """Readers currently excluded (breaker open)."""
        return [
            rid
            for rid, b in self.breakers.items()
            if b.state == BreakerState.OPEN
        ]

    def transitions_total(self) -> int:
        """Total breaker transitions across all readers."""
        return sum(b.transitions for b in self.breakers.values())

    def __repr__(self) -> str:
        states = ", ".join(f"{rid}={b.state}" for rid, b in self.breakers.items())
        return f"ReaderHealthTracker({states})"
