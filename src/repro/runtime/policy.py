"""RuntimePolicy: failure handling of the supervised process pool.

One frozen dataclass threads through
:class:`~repro.engine.config.EngineConfig` to every process fan-out
(:func:`~repro.engine.sharding.map_shards`), which always runs under
:class:`~repro.runtime.supervisor.SupervisedPool`. On a clean run the
policy is never consulted.

:class:`RetryPolicy` is the deadline/retry/backoff vocabulary of the
process pool (via :attr:`RuntimePolicy.retry`). The zone gateway does
not use it: a simulated zone has no wall clock to back off against, so
its channel only counts a fixed number of retries
(:data:`~repro.zones.failover.ZONE_CALL_RETRIES`).

Determinism contract: supervision changes *scheduling*, never *answers*.
A retried shard re-executes the same pure function over the same inputs,
and the serial last-resort fallback runs that function in-process — so a
crashed or hung worker degrades throughput, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..exceptions import ConfigurationError

__all__ = ["RetryPolicy", "RuntimePolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline + bounded exponential backoff for one supervised call.

    Parameters
    ----------
    deadline_s:
        Per-call deadline in wall-clock seconds once the supervisor
        starts waiting on it. ``None`` disables deadlines (death of the
        callee is still supervised).
    max_retries:
        How many times one call may be re-attempted after a timeout or
        callee death before the caller's last resort (serial fallback
        or :class:`~repro.exceptions.SupervisionError`) takes over.
    backoff_base_s / backoff_multiplier:
        Exponential backoff between attempts: attempt ``k`` (1-based)
        waits ``backoff_base_s * backoff_multiplier**(k-1)`` before the
        retry. Callers inject the sleep, so tests pay no wall-clock.
    """

    deadline_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, "
                f"got {self.backoff_multiplier}"
            )

    def with_(self, **changes) -> "RetryPolicy":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class RuntimePolicy:
    """Failure handling of the process-pool fan-out.

    Parameters
    ----------
    retry:
        Per-task deadline, retry budget and backoff
        (:class:`RetryPolicy`). A task whose worker dies or blows the
        deadline is re-dispatched up to ``retry.max_retries`` times.
    serial_fallback:
        After retries are exhausted, re-execute the task serially
        in-process (the deterministic last resort). ``False`` raises
        :class:`~repro.exceptions.SupervisionError` instead.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )

    def with_(self, **changes) -> "RuntimePolicy":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)
