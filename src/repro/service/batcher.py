"""Micro-batching of pending tag-localization requests.

One VIRE estimate amortizes poorly at batch size 1: every request pays
snapshot assembly plus the fixed numpy dispatch overhead of the
interpolation/elimination pipeline, and requests in one batch that share
a middleware snapshot share *all* their reference-lattice
interpolations (the batch engine dedups lattices by content). The
batcher therefore holds requests briefly and flushes them together,
with the classic two-trigger policy:

* **size** — the batch reached ``max_batch_size``;
* **deadline** — the *oldest* pending request has waited
  ``max_latency_s`` (per-request latency is bounded regardless of
  traffic level);
* **drain** — the session is shutting down and flushes what remains.

The batcher is clock-agnostic: callers pass ``now`` explicitly (the
session facade feeds it the seeded service clock), which keeps every
flush decision deterministic and unit-testable without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..exceptions import ConfigurationError
from .metrics import MetricsRegistry, get_service_logger, log_event

__all__ = ["LocalizationRequest", "Batch", "MicroBatcher"]


@dataclass(frozen=True)
class LocalizationRequest:
    """One pending "where is this tag?" query.

    Attributes
    ----------
    tag_id:
        Tracking tag to localize.
    enqueued_at_s:
        Service-clock time the request entered the batcher.
    deadline_s:
        Absolute service-clock time after which the result is late; the
        pipeline degrades (rather than drops) requests past it.
    """

    tag_id: str
    enqueued_at_s: float
    deadline_s: float | None = None


@dataclass(frozen=True)
class Batch:
    """A flushed group of requests plus why/when it was flushed."""

    requests: tuple[LocalizationRequest, ...]
    reason: str  # "size" | "deadline" | "drain"
    formed_at_s: float

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[LocalizationRequest]:
        return iter(self.requests)


class MicroBatcher:
    """Accumulates localization requests; flushes on size or deadline.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many requests are pending.
    max_latency_s:
        Flush as soon as the oldest pending request is this old, even if
        the batch is not full.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_latency_s: float = 0.25,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_latency_s <= 0:
            raise ConfigurationError(
                f"max_latency_s must be positive, got {max_latency_s}"
            )
        self.max_batch_size = int(max_batch_size)
        self.max_latency_s = float(max_latency_s)
        self._pending: list[LocalizationRequest] = []
        self._submitted = 0
        self._flushed_by_reason = {"size": 0, "deadline": 0, "drain": 0}
        self._logger = get_service_logger()
        self._metrics = metrics
        if metrics is not None:
            self._c_submitted = metrics.counter(
                "batcher_requests_total", "Localization requests submitted"
            )
            self._c_flushes = {
                reason: metrics.counter(
                    f"batcher_flushes_{reason}_total",
                    f"Batches flushed by the {reason} trigger",
                )
                for reason in ("size", "deadline", "drain")
            }
            self._g_pending = metrics.gauge(
                "batcher_pending_requests", "Requests currently pending"
            )
            self._h_batch = metrics.histogram(
                "batcher_batch_size_requests",
                "Flushed batch sizes",
                buckets=tuple(float(b) for b in (1, 2, 4, 8, 16, 32, 64, 128)),
            )

    # -- submission ----------------------------------------------------------

    def submit(self, request: LocalizationRequest) -> None:
        """Add one request to the pending set."""
        self._pending.append(request)
        self._submitted += 1
        if self._metrics is not None:
            self._c_submitted.inc()
            self._g_pending.set(len(self._pending))

    # -- flush triggers ------------------------------------------------------

    def next_deadline(self) -> float | None:
        """Service-clock time at which a deadline flush becomes due."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at_s + self.max_latency_s

    def _cut(self, count: int, reason: str, now_s: float) -> Batch:
        requests, self._pending[:count] = tuple(self._pending[:count]), []
        batch = Batch(requests=requests, reason=reason, formed_at_s=now_s)
        self._flushed_by_reason[reason] += 1
        if self._metrics is not None:
            self._c_flushes[reason].inc()
            self._g_pending.set(len(self._pending))
            self._h_batch.observe(len(batch))
        log_event(
            self._logger, "batch_flush",
            reason=reason, size=len(batch), pending=len(self._pending),
            t=now_s,
        )
        return batch

    def poll(
        self, now_s: float, *, max_batches: int | None = None
    ) -> list[Batch]:
        """Return every batch due at ``now_s`` (possibly none).

        Size flushes cut full batches first; a deadline flush then takes
        whatever remains if the oldest leftover request has aged out.

        ``max_batches`` caps how many batches one poll may cut — the
        mechanism behind
        :attr:`~repro.service.pipeline.ServiceConfig.max_batches_per_tick`,
        the load harness's executor-capacity setting. An uncapped poll
        always clears its backlog, which silently models an infinitely
        fast estimator; with a cap, excess requests stay pending and
        their queue wait (sim-clock) grows until the deadline ladder
        takes over — overload becomes measurable instead of absorbed.
        A capped poll also never cuts an oversized deadline batch: the
        deadline flush only fires once the backlog has shrunk below one
        full batch. ``None`` (the default) is bit-identical to the
        historical unbounded behaviour.
        """
        batches: list[Batch] = []

        def within_limit() -> bool:
            return max_batches is None or len(batches) < max_batches

        while len(self._pending) >= self.max_batch_size and within_limit():
            batches.append(self._cut(self.max_batch_size, "size", now_s))
        if within_limit() and len(self._pending) < self.max_batch_size:
            deadline = self.next_deadline()
            if deadline is not None and now_s >= deadline:
                batches.append(
                    self._cut(len(self._pending), "deadline", now_s)
                )
        return batches

    def drain(self, now_s: float) -> list[Batch]:
        """Force-flush everything (session shutdown)."""
        batches = []
        while len(self._pending) >= self.max_batch_size:
            batches.append(self._cut(self.max_batch_size, "size", now_s))
        if self._pending:
            batches.append(self._cut(len(self._pending), "drain", now_s))
        return batches

    # -- accounting ----------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def batches_flushed(self) -> int:
        return sum(self._flushed_by_reason.values())

    @property
    def flushes_by_reason(self) -> dict[str, int]:
        return dict(self._flushed_by_reason)

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(pending={len(self._pending)}, "
            f"max_size={self.max_batch_size}, "
            f"max_latency={self.max_latency_s:g}s, "
            f"flushed={self.batches_flushed})"
        )
