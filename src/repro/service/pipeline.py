"""The service orchestrator: snapshots → batches → estimates, degraded
gracefully, measured always.

:class:`ServicePipeline` wires the streaming stack together:

.. code-block:: text

    readers ──> BoundedRecordQueue ──> MiddlewareServer
                   (ingest.py)              │ snapshot(tag, now)
                                            v
    queries ──> MicroBatcher ──> estimator workers ──> ServiceResult
                 (batcher.py)    VIRE ──degrade──> LANDMARC

Graceful degradation is a four-level ladder (never an exception on the
serving path); each level is attempted only when the one above fails:

1. **full VIRE** — a complete snapshot, the primary path.
2. **VIRE on the surviving subset** — with ``allow_partial`` (the
   default) the middleware assembles a *masked* snapshot under degraded
   input (readers absent, reference columns NaN); readers whose circuit
   breaker is open are excluded up front; the estimator's
   :class:`~repro.core.quorum.QuorumPolicy` trims low-coverage readers
   and still answers with VIRE (``degraded=True``,
   ``reason="partial_readers"``).
3. **LANDMARC** — when VIRE refuses (empty intersection on a healthy
   reading: ``reason="empty_intersection"``; quorum unmet on a masked
   one: ``reason="quorum_unmet"``; or the request is past its deadline:
   ``reason="deadline"``), the NaN-aware LANDMARC fallback answers.
4. **last known** — when even a snapshot cannot be assembled (or
   LANDMARC itself has nothing to rank), the pipeline answers with the
   tag's last known estimate if one exists (``reason="no_reading"``);
   only a tag that has *never* been localized yields no result, counted
   in ``service_requests_failed_total``.

Serving instants: every batch the :class:`MicroBatcher` cuts at one
service-clock time ``now_s`` is executed together — one record
delivery, one health observation, one calibration tick, one snapshot
per tag, one VIRE pass and one LANDMARC pass — because every request
served at ``now_s`` sees the same middleware state. The ladder is
decided in one place, :meth:`ServicePipeline._execute_instant`, as the
two passes return; :meth:`ServicePipeline._record_answers` then builds
every answer of the instant and only then records them, with one
``service.serve`` span each. A fault (any error but a refusal, in a
pass or while recording) leaves no answer of the instant recorded.

Reader health: a :class:`~repro.service.health.ReaderHealthTracker`
observes per-reader middleware freshness every serving instant and
drives one circuit breaker per reader (open after consecutive staleness,
half-open probe after the recovery timeout). Open readers are dropped
from partial snapshots before estimation, so a flapping reader cannot
poison the subset path. Breaker transitions are counted, and each
batch's span names the readers its open breakers exclude.

The pipeline owns its :class:`MetricsRegistry`: it pushes what only it
counts and reads the counters its components keep. Nothing in this
module sleeps or reads wall-clock time except through the injectable
``perf_clock`` (so tests can fake latency deterministically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Mapping

from ..baselines.landmarc import LandmarcEstimator
from ..core.config import VIREConfig
from ..core.estimator import VIREEstimator
from ..engine.batch import BatchLandmarc, Outcome
from ..exceptions import (
    CheckpointError,
    ConfigurationError,
    EstimationError,
    ReadingError,
    ReproError,
)
from ..calibration import CalibrationPolicy, DriftCorrector
from ..geometry.grid import ReferenceGrid
from ..hardware.middleware import MiddlewareServer
from ..obs import current_tracer
from ..runtime.supervisor import run_shard_with_salvage
from ..types import TrackingReading
from ..utils.validation import ensure_positive, ensure_positive_int
from .batcher import Batch, LocalizationRequest, MicroBatcher
from .health import BreakerPolicy, ReaderHealthTracker
from .ingest import BoundedRecordQueue, IngestionLoop
from .metrics import MetricsRegistry, metric_safe

__all__ = ["ServiceConfig", "ServiceResult", "ServicePipeline"]


#: What ServicePipeline.checkpoint_cut reads off a counter and a breaker.
_VALUE = attrgetter("value")
_BREAKER_FIELDS = attrgetter(
    "state", "consecutive_failures", "opened_at_s", "transitions"
)


@dataclass(frozen=True)
class ServiceConfig:
    """All knobs of the streaming localization service.

    Parameters
    ----------
    queue_capacity:
        Bound of the ingestion queue.
    queue_overflow:
        Overflow policy of the ingestion queue: ``"drop_oldest"``
        (default — stalest record shed, perishable-stream stance) or
        ``"shed_newest"`` (incoming record refused, admission-control
        stance). See :data:`~repro.service.ingest.OVERFLOW_POLICIES`.
    max_batch_size / max_latency_s:
        Micro-batcher flush triggers (see :class:`MicroBatcher`).
    max_batches_per_tick:
        Executor capacity: how many batches one :meth:`process_due`
        call may execute (``None`` = unbounded, the historical
        behaviour). The load-test harness sets this to model a finite
        estimator budget per tick, so sustained overload surfaces as
        growing sim-clock queue wait and deadline ladder descent
        instead of being absorbed by an implicitly infinite executor.
    request_deadline_s:
        Per-request deadline, in service-clock seconds from submission;
        requests older than this at execution time degrade to LANDMARC.
        ``None`` disables deadline degradation.
    query_interval_s:
        How often the session submits a localization query per tracking
        tag.
    vire:
        Algorithm configuration of the primary estimator. Its
        ``empty_fallback`` is forced to ``"error"`` internally — the
        *pipeline* owns degradation, so an empty intersection is always
        recorded as a degraded result rather than silently relaxed.
    allow_partial:
        Serve from *partial* middleware snapshots when complete ones are
        unavailable (degraded deployments). When every series is fresh a
        partial snapshot equals the strict one, so healthy runs are
        unaffected. ``False`` restores the strict-only pre-faults
        behaviour (any gap ⇒ last-known).
    breaker_recovery_timeout_s:
        How long a per-reader circuit breaker stays open before its
        half-open probe (see :class:`~repro.service.health.BreakerPolicy`).
    calibration:
        Optional :class:`~repro.calibration.CalibrationPolicy` enabling
        the self-healing calibration loop: per-reader drift corrections
        estimated online from reference-tag residuals and applied to
        every snapshot before estimation, plus a reference-tag
        quarantine state machine excising anomalous tags from the
        interpolation lattice (docs/CALIBRATION.md). ``None`` (the
        default) disables the loop entirely — the pipeline is then
        bit-identical to a build without it.

    The quorum (:class:`~repro.core.quorum.QuorumPolicy`), the breaker
    failure threshold (:class:`~repro.service.health.BreakerPolicy`) and
    the health freshness floor
    (:class:`~repro.service.health.ReaderHealthTracker`) run at their
    components' defaults.
    """

    queue_capacity: int = 4096
    queue_overflow: str = "drop_oldest"
    max_batch_size: int = 8
    max_latency_s: float = 1.0
    max_batches_per_tick: int | None = None
    request_deadline_s: float | None = 5.0
    query_interval_s: float = 2.0
    vire: VIREConfig = field(
        default_factory=lambda: VIREConfig(target_total_tags=900)
    )
    allow_partial: bool = True
    breaker_recovery_timeout_s: float = 10.0
    calibration: CalibrationPolicy | None = None

    def __post_init__(self) -> None:
        # Validate only; the fields keep the values the caller passed.
        for name in (
            "query_interval_s", "max_latency_s", "breaker_recovery_timeout_s",
        ):
            ensure_positive(getattr(self, name), name)
        if self.request_deadline_s is not None:
            ensure_positive(self.request_deadline_s, "request_deadline_s")
        for name in ("queue_capacity", "max_batch_size"):
            ensure_positive_int(getattr(self, name), name)
        if self.max_batches_per_tick is not None:
            ensure_positive_int(
                self.max_batches_per_tick, "max_batches_per_tick"
            )
        if not isinstance(self.allow_partial, bool):
            raise ConfigurationError(
                f"allow_partial must be a bool, got {self.allow_partial!r}"
            )
        if not isinstance(self.vire, VIREConfig):
            raise ConfigurationError(
                f"vire must be a VIREConfig, got {type(self.vire).__name__}"
            )
        if self.calibration is not None and not isinstance(
            self.calibration, CalibrationPolicy
        ):
            raise ConfigurationError(
                f"calibration must be a CalibrationPolicy or None, "
                f"got {type(self.calibration).__name__}"
            )
        # Remaining fields are validated by the components they configure
        # (the queue's overflow policy, VIREConfig's own fields).

    def with_(self, **changes) -> "ServiceConfig":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceResult:
    """One served localization answer.

    ``degraded`` results are still answers — the position comes from the
    LANDMARC fallback (or the last known estimate); ``reason`` says why
    the primary path was not used.
    """

    tag_id: str
    position: tuple[float, float]
    estimator: str
    degraded: bool
    reason: str | None
    requested_at_s: float
    completed_at_s: float
    processing_latency_s: float
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def queue_wait_s(self) -> float:
        """Service-clock time spent waiting between submit and execute."""
        return self.completed_at_s - self.requested_at_s


def _register_calibration_reads(
    registry: MetricsRegistry, cal: DriftCorrector
) -> None:
    """The drift corrector's counters and gauges, as registry reads."""
    n_refs = len(cal.reference_ids) or 1
    bias = cal.raw_bias_estimates
    reads = [
        ("calibration_corrected_readings_total",
         "Readings modified by the drift corrector before estimation",
         lambda: cal.corrected_readings),
        ("calibration_quarantine_transitions_total",
         "Reference-tag trust state transitions", lambda: len(cal.events)),
        ("calibration_quarantine_ratio",
         "Fraction of reference tags currently excised",
         lambda: len(cal.excised_tags()) / n_refs),
        ("calibration_max_abs_bias_db",
         "Largest per-reader bias estimate magnitude",
         lambda: max(map(abs, bias().values()), default=0.0)),
        *((f"calibration_bias_{metric_safe(rid)}_db",
           f"Estimated calibration bias of reader {rid}",
           lambda rid=rid: bias()[rid])
          for rid in cal.reader_ids),
    ]
    for name, help_text, read in reads:
        registry.read(name, help_text, read)


class ServicePipeline:
    """Orchestrates ingest → batch → estimate with graceful degradation.

    Parameters
    ----------
    grid:
        The real reference grid of the deployment being served.
    middleware:
        The middleware the ingestion loop fills and snapshots come from.
    config:
        Service knobs.
    metrics:
        Optional shared registry; created on demand.
    perf_clock:
        Monotonic wall-clock used for processing-latency measurement
        (injectable for deterministic tests).
    """

    #: Kept for readers of ``pipeline.cache`` from before the
    #: interpolation cache was removed (the perfbench layer counters
    #: read it on every pipeline); always ``None``.
    cache = None

    def __init__(
        self,
        grid: ReferenceGrid,
        middleware: MiddlewareServer,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        perf_clock: Callable[[], float] = time.perf_counter,
    ):
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.middleware = middleware
        self._perf_clock = perf_clock

        self.vire = VIREEstimator(
            grid, self.config.vire.with_(empty_fallback="error")
        )
        self.fallback = LandmarcEstimator()
        self._batch_fallback = BatchLandmarc(self.fallback)
        self.health = ReaderHealthTracker(
            list(middleware.reader_ids),
            policy=BreakerPolicy(
                recovery_timeout_s=self.config.breaker_recovery_timeout_s
            ),
        )
        self.calibration: DriftCorrector | None = None
        if self.config.calibration is not None:
            self.calibration = DriftCorrector(
                middleware.reader_ids,
                middleware.reference_ids,
                self.config.calibration,
            )
        self.queue = BoundedRecordQueue(
            self.config.queue_capacity, overflow=self.config.queue_overflow
        )
        self.ingest = IngestionLoop(self.queue, middleware)
        self.batcher = MicroBatcher(
            self.config.max_batch_size, self.config.max_latency_s
        )

        m = self.metrics
        self._register_reads()
        self._h_batch = m.histogram(
            "batcher_batch_size_requests",
            "Flushed batch sizes",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        requests = m.read(
            "service_requests_total", "Localization requests accepted",
            lambda: self.batcher.submitted,
        )
        self._c_results = m.counter(
            "service_results_total", "Localization results served"
        )
        self._c_degraded = m.counter(
            "service_degraded_total", "Results served by a degraded path"
        )
        self._c_degraded_reason = {
            reason: m.counter(
                f"service_degraded_{reason}_total",
                f"Results degraded because of {reason}",
            )
            for reason in (
                "empty_intersection", "deadline", "no_reading",
                "partial_readers", "quorum_unmet",
            )
        }
        self._c_failed = m.counter(
            "service_requests_failed_total",
            "Requests with no answer at all (no reading, no last estimate)",
        )
        self._h_latency = m.histogram(
            "service_localization_latency_seconds",
            "Wall-clock estimator processing latency per request",
        )
        self._last_estimate: dict[str, tuple[float, float]] = {}
        self._results: list[ServiceResult] = []
        self._replaying = False
        # What checkpoint_cut reads, in document order.
        reasons = self._c_degraded_reason
        self._checkpoint_counter_keys = (
            "requests", "results", "degraded", "failed",
            *(f"degraded_{reason}" for reason in reasons),
        )
        self._checkpoint_counters = (
            requests, self._c_results, self._c_degraded,
            self._c_failed, *reasons.values(),
        )
        self._checkpoint_breaker_ids = tuple(sorted(self.health.breakers))
        self._checkpoint_breakers = tuple(
            self.health.breakers[rid] for rid in self._checkpoint_breaker_ids
        )

    def _register_reads(self) -> None:
        """Registry reads over the counters the components already keep.

        Frames are counted on the reader objects (paper §3.2 readers),
        so a frame read is current whenever it is taken.
        """
        queue, batcher = self.queue, self.batcher
        frames = self.middleware.frame_stats
        reads = [
            ("service_breaker_transitions_total",
             "Reader circuit-breaker state transitions",
             self.health.transitions_total),
            ("ingest_records_offered_total",
             "Records offered to the ingest queue", lambda: queue.offered),
            ("ingest_records_dropped_total",
             "Buffered records discarded by the drop-oldest overflow policy",
             lambda: queue.dropped),
            ("ingest_records_shed_total",
             "Incoming records refused by the shed-newest overflow policy",
             lambda: queue.shed),
            ("ingest_records_delivered_total",
             "Records delivered to middleware", lambda: queue.delivered),
            ("ingest_queue_depth", "Current ingest queue depth", queue.__len__),
            ("batcher_requests_total", "Localization requests submitted",
             lambda: batcher.submitted),
            *((f"batcher_flushes_{reason}_total",
               f"Batches flushed by the {reason} trigger",
               lambda reason=reason: batcher.flushes_by_reason[reason])
              for reason in ("size", "deadline", "drain")),
            ("batcher_pending_requests", "Requests currently pending",
             lambda: batcher.pending),
            ("service_frames_received_total",
             "Reader frames received across all readers",
             lambda: sum(st["received"] for st in frames().values())),
            ("service_frames_dropped_total",
             "Reader frames dropped at the detection floor",
             lambda: sum(st["dropped"] for st in frames().values())),
            *((f"service_frames_{kind}_{metric_safe(rid)}_total",
               f"Frames {kind} by reader {rid}",
               lambda rid=rid, kind=kind: frames()[rid][kind])
              for rid in self.middleware.reader_ids
              for kind in ("received", "dropped")),
        ]
        for name, help_text, read in reads:
            self.metrics.read(name, help_text, read)
        if self.calibration is not None:
            _register_calibration_reads(self.metrics, self.calibration)

    # -- request intake ------------------------------------------------------

    def submit_request(self, tag_id: str, now_s: float) -> LocalizationRequest:
        """Accept one localization query at service-clock time ``now_s``."""
        deadline = None
        if self.config.request_deadline_s is not None:
            deadline = now_s + self.config.request_deadline_s
        request = LocalizationRequest(
            tag_id=str(tag_id), enqueued_at_s=float(now_s), deadline_s=deadline
        )
        self.batcher.submit(request)
        return request

    # -- calibration loop ----------------------------------------------------

    def arm_calibration(self, now_s: float) -> None:
        """Capture the corrector's clean baseline (end of warm-up).

        Sessions call this after warm-up completes and *before* the
        fault injector attaches, so the baseline is trustworthy by
        construction. A no-op when the loop is disabled. Runs on resumed
        sessions too — warm-up is replayed identically, so the baseline
        (and everything the corrector derives from it) reconstructs
        bit-exactly.
        """
        if self.calibration is None:
            return
        with current_tracer().span("calibration.arm") as sp:
            self.calibration.arm(
                self.middleware.reference_matrix(now_s), now_s
            )
            sp.set("t", float(now_s))
            sp.set("references", len(self.calibration.reference_ids))

    def _observe_calibration(self, now_s: float) -> None:
        """One residual-window tick; runs in live *and* replay instants."""
        if self.calibration is None or not self.calibration.armed:
            return
        with current_tracer().span("calibration.observe") as sp:
            self.calibration.observe(
                self.middleware.reference_matrix(now_s), now_s
            )
            excised = self.calibration.excised_tags()
            sp.set("quarantined", len(excised))
            if excised:
                sp.set("excised_tags", list(excised))

    # -- serving instants ----------------------------------------------------

    def process_due(self, now_s: float) -> list[ServiceResult]:
        """Execute every batch due at ``now_s``; returns their results.

        The config's ``max_batches_per_tick`` caps the executor's work
        for this tick (default unbounded). See :meth:`MicroBatcher.poll`.
        """
        return self._execute_instant(
            self.batcher.poll(
                now_s, max_batches=self.config.max_batches_per_tick
            ),
            now_s,
        )

    def drain(self, now_s: float) -> list[ServiceResult]:
        """Flush and execute everything still pending (shutdown)."""
        return self._execute_instant(self.batcher.drain(now_s), now_s)

    def _execute_instant(
        self, batches: list[Batch], now_s: float
    ) -> list[ServiceResult]:
        """Run every batch cut at one serving instant as one pass.

        The batcher decides *which* requests are served now (size and
        deadline triggers, the per-tick cap); the instant is the unit of
        execution. VIRE localizes from the middleware's smoothed
        readings at one instant (paper §3.2), so every request served at
        ``now_s`` sees the same middleware state: one delivery, one
        health observation, one calibration tick and one snapshot per
        tag serve all of them, and the engine solves a tag's shared
        reading once. Answers come back in batch order, then request
        order.
        """
        if not batches:
            return []
        self._h_batch.observe(*map(len, batches))
        requests = [request for batch in batches for request in batch.requests]
        tracer = current_tracer()
        with tracer.span(
            "service.batch",
            batch_size=len(requests),
            replay=bool(self._replaying),
        ) as bsp:
            # Records buffered in the ingest queue become visible to every
            # request of the instant at once. With the middleware state
            # frozen for the instant, snapshot(tag, now_s) is a pure
            # function of the tag, so duplicate-tag requests (bursty load,
            # several clients asking about one popular tag) share a single
            # snapshot assembly — and a single reading object.
            with tracer.span("service.ingest") as isp:
                delivered = self.ingest.deliver_pending()
                isp.set("delivered", int(delivered or 0))

            # Health first: one freshness observation per instant drives
            # the breakers (a stale reader counts one failure per instant,
            # however many batches the load cut), and open readers are
            # excluded from every snapshot of the instant.
            self.health.observe(self.middleware.reader_freshness(now_s), now_s)
            allowed = set(self.health.allowed_readers(now_s))
            # The corrector's residual window likewise takes one entry per
            # instant. Replay drives it too: its window, bias estimates
            # and quarantine machines are pure functions of the stream.
            self._observe_calibration(now_s)
            if self._replaying:
                # Checkpoint replay: drive exactly the *stateful inputs* a
                # live instant would have driven — record delivery (queue
                # drops, middleware series), the health tracker (breaker
                # transitions) and the corrector — but skip estimation and
                # serving; the served results up to the cut were restored
                # from the checkpoint. Every input here is a pure function
                # of the seeded stream, so the reconstructed state is
                # bit-identical to the state of the crashed run at the cut.
                return []
            blocked = frozenset(self.middleware.reader_ids) - allowed
            if blocked:
                bsp.set("blocked_readers", sorted(str(r) for r in blocked))

            allow_partial = self.config.allow_partial
            corrected_tags: set[str] = set()

            def fetch(tag_id: str):
                try:
                    reading = self.middleware.snapshot(
                        tag_id, now_s, allow_partial=allow_partial
                    )
                    if allow_partial and blocked:
                        reading = self._exclude_readers(reading, blocked)
                    if reading is not None and self.calibration is not None:
                        corrected = self.calibration.correct_reading(reading)
                        if corrected is not reading:
                            corrected_tags.add(tag_id)
                        reading = corrected
                    return reading
                except ReadingError:
                    return None

            tags = [request.tag_id for request in requests]
            with tracer.span("service.snapshot") as ssp:
                # One snapshot per tag, in first-request order.
                snapshots = {tag: fetch(tag) for tag in dict.fromkeys(tags)}
                readings = [snapshots[tag] for tag in tags]
                ssp.set("unique_tags", len(snapshots))
                ssp.set(
                    "missing", sum(1 for r in readings if r is None)
                )

            # The whole instant is localized in two vectorized passes
            # through the batch engine: one VIRE pass, then one LANDMARC
            # pass over past-deadline requests and VIRE refusals, in that
            # order. Answers are bitwise identical to serving requests one
            # at a time. The ladder is decided here, once per request, as
            # the passes return: (level, reason, estimate). A request no
            # pass answers stays at level 4 (last known).
            ladder: list[tuple] = [(4, "no_reading", None)] * len(requests)
            shares = [0.0] * len(requests)
            primary: list[int] = []
            fallback: dict[int, str] = {}  # LANDMARC's requests -> reason
            for i, (request, reading) in enumerate(zip(requests, readings)):
                if reading is None:
                    continue
                deadline = request.deadline_s
                if deadline is not None and now_s > deadline:
                    fallback[i] = "deadline"  # too late for the costly path
                else:
                    primary.append(i)
            for i, est in self._pass(
                "service.vire_pass", self.vire.estimate_outcomes,
                readings, primary, shares,
            ):
                # Levels 1 and 2: full VIRE, or VIRE on the quorum-surviving
                # reader subset of a masked snapshot. A refusal falls to
                # LANDMARC: "quorum_unmet" when the masked subset was too
                # thin, "empty_intersection" on a healthy reading.
                masked = readings[i].masked
                if est is None:
                    fallback[i] = (
                        "quorum_unmet" if masked else "empty_intersection"
                    )
                elif masked:
                    ladder[i] = (2, "partial_readers", est)
                else:
                    ladder[i] = (1, None, est)
            for i, est in self._pass(
                "service.landmarc_pass",
                self._batch_fallback.estimate_outcomes,
                readings, list(fallback), shares,
            ):
                if est is not None:
                    ladder[i] = (3, fallback[i], est)

            answers = self._record_answers(requests, ladder, shares, now_s)
            if corrected_tags:
                # Ladder annotation: which answers of this instant were
                # served from calibration-corrected (or quarantine-
                # excised) snapshots. The ladder levels themselves are
                # untouched — correction happens *before* the ladder.
                bsp.set("calibration_corrected_tags", sorted(corrected_tags))
            return answers

    def _pass(
        self,
        span_name: str,
        fn: Callable[[list], list[Outcome]],
        readings: list,
        indices: list[int],
        shares: list[float],
    ) -> list[tuple[int, Any]]:
        """One engine pass over ``readings[i]`` for each ``i`` in ``indices``.

        Returns ``(i, estimate or None)`` in ``indices`` order. ``None`` is
        a refusal (an :class:`EstimationError`); any other
        :class:`ReproError` is a real fault and raises here, before any
        answer of the instant is recorded. Each request's even share of
        the pass's wall-clock is added to ``shares[i]``. A pass that
        raises as a whole is salvaged item by item; an item that still
        fails becomes a refusal, so one bad input degrades one answer.
        """
        if not indices:
            return []
        with current_tracer().span(span_name, n_requests=len(indices)):
            t0 = self._perf_clock()
            outcomes = run_shard_with_salvage(
                fn,
                [readings[i] for i in indices],
                error_factory=lambda item, exc: EstimationError(
                    f"engine pass failed: {type(exc).__name__}: {exc}"
                ),
                metrics=self.metrics,
            )
            share = (self._perf_clock() - t0) / len(indices)
        answered = []
        for i, outcome in zip(indices, outcomes):
            if isinstance(outcome, ReproError):
                if not isinstance(outcome, EstimationError):
                    raise outcome
                outcome = None
            shares[i] += share
            answered.append((i, outcome))
        return answered

    @staticmethod
    def _exclude_readers(
        reading: TrackingReading, blocked: frozenset
    ) -> TrackingReading | None:
        """Drop open-breaker readers from a (partial) snapshot.

        Returns ``None`` when no trusted reader remains — the caller
        then falls to the last-known level of the ladder. The trimmed
        reading is forced ``masked=True`` so the estimator routes it
        through the quorum, even when the surviving rows are finite.
        """
        if reading.reader_ids is None:
            return reading
        keep = [
            i for i, rid in enumerate(reading.reader_ids) if rid not in blocked
        ]
        if len(keep) == len(reading.reader_ids):
            return reading
        if not keep:
            return None
        return replace(reading.subset_readers(keep), masked=True)

    def _record_answers(
        self,
        requests: list[LocalizationRequest],
        ladder: list[tuple],
        shares: list[float],
        now_s: float,
    ) -> list[ServiceResult]:
        """Build the instant's answers at their decided ladder levels, then
        record them together.

        ``ladder[i]`` is request ``i``'s ``(level, reason, estimate)``: the
        pass's estimate at levels 1–3, ``None`` at level 4 (the tag's last
        known position, which an earlier answer of the same instant may
        have set — or, for a tag never localized, a counted failure).
        ``shares[i]`` is the request's share of the passes' wall-clock,
        folded into its latency.

        Every answer is built before anything is recorded. The latency
        histogram then takes the instant's latencies in one call, which
        records none of them if one is non-finite; only after it do the
        counters, the results and the last-known memory move, once per
        instant. A fault while recording thus leaves no answer of the
        instant behind, as a fault in an engine pass does.

        Each request then gets its one ``service.serve`` span, in request
        order, with the ladder outcome as attributes (``level``/
        ``reason``/``estimator``/``degraded`` — or ``failed`` when even
        level 4 has nothing). ``repro trace summary`` aggregates exactly
        these.
        """
        tracer = current_tracer()
        traced = tracer.enabled
        clock = self._perf_clock
        names = (None, self.vire.name, self.vire.name, self.fallback.name)
        known = self._last_estimate
        served: dict[str, tuple[float, float]] = {}
        answers: list[ServiceResult] = []
        latencies: list[float] = []
        degraded: dict[str, int] = {}
        n_failed = 0
        spans: list[dict[str, Any]] = []
        for request, (level, reason, est), share in zip(
            requests, ladder, shares
        ):
            t0 = clock()
            tag = request.tag_id
            if est is not None:
                position, diagnostics = est.position, est.diagnostics
                estimator = names[level]
            else:
                position = served.get(tag, known.get(tag))
                if position is None:
                    n_failed += 1
                    if traced:
                        spans.append(
                            {"tag": tag, "failed": True, "reason": reason}
                        )
                    continue
                estimator, diagnostics = "last-known", {}
            if level > 1:
                degraded[reason] = degraded.get(reason, 0) + 1
            latency = clock() - t0 + share
            latencies.append(latency)
            served[tag] = position
            answers.append(ServiceResult(
                tag_id=tag,
                position=position,
                estimator=estimator,
                degraded=level > 1,
                reason=reason,
                requested_at_s=request.enqueued_at_s,
                completed_at_s=now_s,
                processing_latency_s=latency,
                diagnostics=diagnostics,
            ))
            if traced:
                attrs = {"tag": tag, "level": level, "estimator": estimator,
                         "degraded": level > 1}
                if reason is not None:
                    attrs["reason"] = reason
                spans.append(attrs)

        self._h_latency.observe(*latencies)
        self._c_results.inc(len(answers))
        self._c_degraded.inc(sum(degraded.values()))
        for reason, n in degraded.items():
            self._c_degraded_reason[reason].inc(n)
        self._c_failed.inc(n_failed)
        self._results.extend(answers)
        known.update(served)
        for attrs in spans:
            tracer.event("service.serve", **attrs)
        return answers

    # -- checkpoint / replay -------------------------------------------------

    @property
    def replaying(self) -> bool:
        """Whether the pipeline is in checkpoint-replay mode."""
        return self._replaying

    def begin_replay(self) -> None:
        """Enter replay mode: ingest + health run, estimation is skipped.

        Used by session resume — ticks up to the checkpoint cut are
        replayed so the queue, middleware, breakers, batcher and fault
        counters converge to the crashed run's state, while the served
        results (already restored from the write-ahead log) are not
        recomputed.
        """
        self._replaying = True

    def end_replay(self) -> None:
        """Leave replay mode; subsequent instants estimate and serve."""
        self._replaying = False

    def checkpoint_cut(self) -> tuple:
        """The serving state :meth:`checkpoint_state` documents, captured
        as immutable primitives.

        Cheap enough to take at every tick boundary; the document is
        built from it only when a snapshot is written.
        """
        return (
            tuple(self._last_estimate.items()),
            tuple(map(_VALUE, self._checkpoint_counters)),
            tuple(map(_BREAKER_FIELDS, self._checkpoint_breakers)),
            None if self.calibration is None
            else self.calibration.checkpoint_cut(),
        )

    def checkpoint_state(self, cut: tuple | None = None) -> dict[str, Any]:
        """The pipeline state that must survive a crash.

        Only state *mutated by serving* is captured: the last-known
        estimates (level-4 ladder memory) and the serving counters.
        Everything else — queue contents, middleware series, breaker
        states, batcher counters — is a deterministic
        function of the seeded stream and is reconstructed by replay;
        the breaker states (and, when enabled, the calibration
        corrector's state) are still recorded so resume can *verify*
        the reconstruction (:meth:`verify_replay`).

        ``cut`` is an earlier :meth:`checkpoint_cut` (default: the state
        now). The document holds only plain JSON types.
        """
        last, counters, breakers, calibration = (
            self.checkpoint_cut() if cut is None else cut
        )
        state: dict[str, Any] = {
            "last_estimate": {
                tag: [float(p[0]), float(p[1])] for tag, p in sorted(last)
            },
            "counters": dict(zip(self._checkpoint_counter_keys, counters)),
            "breakers": {
                rid: {
                    "state": b_state,
                    "consecutive_failures": failures,
                    "opened_at_s": opened_at_s,
                    "transitions": transitions,
                }
                for rid, (b_state, failures, opened_at_s, transitions)
                in zip(self._checkpoint_breaker_ids, breakers)
            },
        }
        if calibration is not None:
            # Replay-verified like the breakers; absent when the loop is
            # disabled so those checkpoints stay byte-identical to
            # pre-calibration builds.
            state["calibration"] = self.calibration.checkpoint_state(
                calibration
            )
        return state

    def restore_checkpoint_state(
        self,
        state: Mapping[str, Any],
        results: list[ServiceResult],
    ) -> None:
        """Restore the serving-side state from a checkpoint.

        ``results`` is the committed result log (decoded from the WAL);
        the counters restored here are exactly the ones
        ``_record_answers`` increments. Counters owned by replayed
        components (requests, frames, batcher, queue, faults) are **not**
        touched — replay reconstructs them.
        """
        self._results = list(results)
        self._last_estimate = {
            str(tag): (float(pos[0]), float(pos[1]))
            for tag, pos in state.get("last_estimate", {}).items()
        }
        counters = state.get("counters", {})
        self._c_results.inc(float(counters.get("results", 0)))
        self._c_degraded.inc(float(counters.get("degraded", 0)))
        self._c_failed.inc(float(counters.get("failed", 0)))
        for reason, counter in self._c_degraded_reason.items():
            counter.inc(float(counters.get(f"degraded_{reason}", 0)))

    def verify_replay(self, state: Mapping[str, Any]) -> None:
        """Check the replay-reconstructed state against the snapshot.

        Raises :class:`~repro.exceptions.CheckpointError` when the
        breakers, the request count or the calibration state of one
        :meth:`checkpoint_state` disagree with what the crashed run
        checkpointed — the determinism contract of resume would be void.
        """
        got = self.checkpoint_state()
        for rid, snap in state.get("breakers", {}).items():
            if rid not in got["breakers"]:
                raise CheckpointError(
                    f"checkpointed breaker for unknown reader {rid!r}"
                )
            if got["breakers"][rid] != dict(snap):
                raise CheckpointError(
                    f"replay diverged for reader {rid!r}: reconstructed "
                    f"{got['breakers'][rid]}, checkpoint {dict(snap)}"
                )
        want = state.get("counters", {}).get("requests")
        got_requests = got["counters"]["requests"]
        if want is not None and got_requests != float(want):
            raise CheckpointError(
                f"replay diverged on requests counter: reconstructed "
                f"{got_requests}, checkpoint {want}"
            )
        if "calibration" in state:
            if self.calibration is None:
                raise CheckpointError(
                    "checkpoint was written with the calibration loop "
                    "enabled; this session has it disabled"
                )
            if got["calibration"] != state["calibration"]:
                raise CheckpointError(
                    f"replay diverged on calibration state: reconstructed "
                    f"{got['calibration']}, checkpoint {state['calibration']}"
                )

    # -- zone handoff --------------------------------------------------------

    def last_estimate(self, tag_id: str) -> tuple[float, float] | None:
        """The tag's last served position (level-4 ladder memory), if any."""
        return self._last_estimate.get(str(tag_id))

    def transfer_last_estimate(
        self, tag_id: str, position: tuple[float, float]
    ) -> None:
        """Seed the level-4 ladder memory for ``tag_id`` from outside.

        Used by the zone gateway's handoff protocol: when a moving tag
        crosses a zone boundary, the receiving zone inherits the sending
        zone's last estimate (re-expressed in the receiver's frame) so a
        reading gap right after the crossing still answers from
        last-known instead of failing outright.
        """
        self._last_estimate[str(tag_id)] = (
            float(position[0]), float(position[1])
        )

    # -- reporting -----------------------------------------------------------

    @property
    def results(self) -> tuple[ServiceResult, ...]:
        """Every result served so far, in completion order."""
        return tuple(self._results)

    def calibration_events(self) -> tuple:
        """Quarantine/probation/readmit events (empty when disabled)."""
        if self.calibration is None:
            return ()
        return self.calibration.events

    def metrics_summary(self) -> dict[str, float]:
        """The headline numbers the ``serve`` command prints."""
        m = self.metrics
        degraded = self._c_degraded.value
        served = self._c_results.value
        requests = float(self.batcher.submitted)
        summary = {
            "requests": requests,
            "results": served,
            "failed": self._c_failed.value,
            "degraded": degraded,
            "degraded_fraction": degraded / served if served else 0.0,
            "availability": served / requests if requests else 1.0,
            "degraded_partial_readers": self._c_degraded_reason[
                "partial_readers"
            ].value,
            "degraded_quorum_unmet": self._c_degraded_reason[
                "quorum_unmet"
            ].value,
            "breaker_transitions": float(self.health.transitions_total()),
            "open_readers": float(len(self.health.open_readers())),
            "frames_received": m.get("service_frames_received_total").value,
            "frames_dropped": m.get("service_frames_dropped_total").value,
            "batches_flushed": float(self.batcher.batches_flushed),
            "records_dropped": float(self.queue.dropped),
            "records_shed": float(self.queue.shed),
            "queue_high_watermark": float(self.queue.high_watermark),
            "latency_p50_s": self._h_latency.quantile(0.50),
            "latency_p99_s": self._h_latency.quantile(0.99),
        }
        if self.calibration is not None:
            # calibration_* keys exist only when the loop is enabled —
            # a disabled pipeline's summary stays byte-identical to a
            # pre-calibration build's.
            summary.update(self.calibration.summary())
        return summary
