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

Reader health: a :class:`~repro.service.health.ReaderHealthTracker`
observes per-reader middleware freshness every batch and drives one
circuit breaker per reader (open after consecutive staleness, half-open
probe after the recovery timeout). Open readers are dropped from partial
snapshots before estimation, so a flapping reader cannot poison the
subset path. All breaker state changes are structured-logged and
counted.

Every stage updates the shared :class:`MetricsRegistry`; nothing in this
module sleeps or reads wall-clock time except through the injectable
``perf_clock`` (so tests can fake latency deterministically).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from ..baselines.landmarc import LandmarcEstimator
from ..core.config import VIREConfig
from ..core.estimator import VIREEstimator
from ..engine.batch import BatchLandmarc, Outcome
from ..exceptions import (
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
from .batcher import Batch, LocalizationRequest, MicroBatcher
from .health import BreakerPolicy, ReaderHealthTracker
from .ingest import BoundedRecordQueue, IngestionLoop
from .metrics import MetricsRegistry, get_service_logger, log_event

__all__ = ["ServiceConfig", "ServiceResult", "ServicePipeline"]


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
    stream_step_s:
        Simulation-time granularity of the record stream.
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
    stream_step_s: float = 0.5
    vire: VIREConfig = field(
        default_factory=lambda: VIREConfig(target_total_tags=900)
    )
    allow_partial: bool = True
    breaker_recovery_timeout_s: float = 10.0
    calibration: CalibrationPolicy | None = None

    def __post_init__(self) -> None:
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ConfigurationError(
                f"request_deadline_s must be positive or None, "
                f"got {self.request_deadline_s}"
            )
        if self.query_interval_s <= 0:
            raise ConfigurationError(
                f"query_interval_s must be positive, got {self.query_interval_s}"
            )
        if (
            self.max_batches_per_tick is not None
            and self.max_batches_per_tick < 1
        ):
            raise ConfigurationError(
                f"max_batches_per_tick must be >= 1 or None, "
                f"got {self.max_batches_per_tick}"
            )
        if self.stream_step_s <= 0:
            raise ConfigurationError(
                f"stream_step_s must be positive, got {self.stream_step_s}"
            )
        if self.calibration is not None and not isinstance(
            self.calibration, CalibrationPolicy
        ):
            raise ConfigurationError(
                f"calibration must be a CalibrationPolicy or None, "
                f"got {type(self.calibration).__name__}"
            )
        # Remaining fields are validated by the components they configure
        # (BreakerPolicy, the queue, the batcher, ...).

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
        self._logger = get_service_logger()

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
            metrics=self.metrics,
        )
        self.calibration: DriftCorrector | None = None
        if self.config.calibration is not None:
            self.calibration = DriftCorrector(
                middleware.reader_ids,
                middleware.reference_ids,
                self.config.calibration,
                metrics=self.metrics,
            )
        self.queue = BoundedRecordQueue(
            self.config.queue_capacity, overflow=self.config.queue_overflow
        )
        self.ingest = IngestionLoop(self.queue, middleware, metrics=self.metrics)
        self.batcher = MicroBatcher(
            self.config.max_batch_size,
            self.config.max_latency_s,
            metrics=self.metrics,
        )

        m = self.metrics
        self._c_requests = m.counter(
            "service_requests_total", "Localization requests accepted"
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
                "empty_intersection",
                "deadline",
                "no_reading",
                "partial_readers",
                "quorum_unmet",
            )
        }
        self._c_frames_received = m.counter(
            "service_frames_received_total",
            "Reader frames received across all readers",
        )
        self._c_frames_dropped = m.counter(
            "service_frames_dropped_total",
            "Reader frames dropped at the detection floor",
        )
        self._c_frames_per_reader: dict[str, Any] = {}
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
        self._c_requests.inc()
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
        """One residual-window tick; runs in live *and* replay batches."""
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

    # -- batch execution -----------------------------------------------------

    def process_due(self, now_s: float) -> list[ServiceResult]:
        """Execute every batch due at ``now_s``; returns their results.

        The config's ``max_batches_per_tick`` caps the executor's work
        for this tick (default unbounded). See :meth:`MicroBatcher.poll`.
        """
        results: list[ServiceResult] = []
        for batch in self.batcher.poll(
            now_s, max_batches=self.config.max_batches_per_tick
        ):
            results.extend(self._execute_batch(batch, now_s))
        return results

    def drain(self, now_s: float) -> list[ServiceResult]:
        """Flush and execute everything still pending (shutdown)."""
        results: list[ServiceResult] = []
        for batch in self.batcher.drain(now_s):
            results.extend(self._execute_batch(batch, now_s))
        return results

    def _execute_batch(self, batch: Batch, now_s: float) -> list[ServiceResult]:
        tracer = current_tracer()
        with tracer.span(
            "service.batch",
            batch_size=len(batch),
            replay=bool(self._replaying),
        ) as bsp:
            # Records buffered in the ingest queue become visible to every
            # request in the batch at once — one delivery per batch is what
            # batching buys on the middleware side. With the middleware state
            # frozen for the whole batch, snapshot(tag, now_s) is a pure
            # function of the tag, so duplicate-tag requests (bursty load,
            # several clients asking about one popular tag) share a single
            # snapshot assembly.
            with tracer.span("service.ingest") as isp:
                delivered = self.ingest.deliver_pending()
                isp.set("delivered", int(delivered or 0))

            if self._replaying:
                # Checkpoint replay: drive exactly the *stateful inputs* a
                # live batch would have driven — record delivery (queue
                # drops, middleware series) and the health tracker (breaker
                # transitions) — but skip estimation and serving; the served
                # results up to the cut were restored from the checkpoint.
                # Every input here is a pure function of the seeded stream,
                # so the reconstructed state is bit-identical to the state
                # of the crashed run at the snapshot cut.
                self.health.observe(
                    self.middleware.reader_freshness(now_s), now_s
                )
                self.health.allowed_readers(now_s)
                # The corrector is replay-reconstructed state too: its
                # residual window, bias estimates and quarantine
                # machines are pure functions of the stream.
                self._observe_calibration(now_s)
                return []

            # Health first: with the middleware state frozen for the batch,
            # one freshness observation per batch drives the breakers, and
            # open readers are excluded from every snapshot in the batch.
            self.health.observe(self.middleware.reader_freshness(now_s), now_s)
            allowed = set(self.health.allowed_readers(now_s))
            blocked = frozenset(self.middleware.reader_ids) - allowed
            if blocked:
                bsp.set("blocked_readers", sorted(str(r) for r in blocked))
            self._observe_calibration(now_s)

            snapshots: dict[str, Any] = {}
            allow_partial = self.config.allow_partial
            corrected_tags: set[str] = set()

            def fetch(tag_id: str):
                if tag_id not in snapshots:
                    try:
                        reading = self.middleware.snapshot(
                            tag_id, now_s, allow_partial=allow_partial
                        )
                        if allow_partial and blocked:
                            reading = self._exclude_readers(reading, blocked)
                        if reading is not None and self.calibration is not None:
                            corrected = self.calibration.correct_reading(
                                reading
                            )
                            if corrected is not reading:
                                corrected_tags.add(tag_id)
                            reading = corrected
                        snapshots[tag_id] = reading
                    except ReadingError:
                        snapshots[tag_id] = None
                return snapshots[tag_id]

            # The whole batch is localized in two vectorized passes through
            # the batch engine — one primary VIRE pass, then one LANDMARC
            # pass over exactly the requests the scalar ladder would have
            # sent there (past-deadline requests and VIRE refusals). Answers
            # are bitwise identical to serving requests one at a time; only
            # the wall-clock cost is amortized. Pass latency is attributed
            # evenly across the participating requests so the per-request
            # histogram keeps measuring real work.
            requests = list(batch)
            with tracer.span("service.snapshot") as ssp:
                readings = [fetch(r.tag_id) for r in requests]
                ssp.set("unique_tags", len(snapshots))
                ssp.set(
                    "missing", sum(1 for r in readings if r is None)
                )

            primary: list[int] = []
            deadline_first: list[int] = []
            for i, (request, reading) in enumerate(zip(requests, readings)):
                if reading is None:
                    continue
                past = (
                    request.deadline_s is not None
                    and now_s > request.deadline_s
                )
                (deadline_first if past else primary).append(i)

            vire_outcomes: dict[int, Outcome] = {}
            vire_share = 0.0
            if primary:
                with tracer.span(
                    "service.vire_pass", n_requests=len(primary)
                ):
                    t0 = self._perf_clock()
                    outs = self._salvaged_outcomes(
                        self.vire.estimate_outcomes,
                        [readings[i] for i in primary],
                    )
                    vire_share = (self._perf_clock() - t0) / len(primary)
                    vire_outcomes = dict(zip(primary, outs))

            needs_fallback = deadline_first + [
                i for i in primary
                if isinstance(vire_outcomes[i], EstimationError)
            ]
            lm_outcomes: dict[int, Outcome] = {}
            lm_share = 0.0
            if needs_fallback:
                with tracer.span(
                    "service.landmarc_pass", n_requests=len(needs_fallback)
                ):
                    t0 = self._perf_clock()
                    outs = self._salvaged_outcomes(
                        self._batch_fallback.estimate_outcomes,
                        [readings[i] for i in needs_fallback],
                    )
                    lm_share = (
                        self._perf_clock() - t0
                    ) / len(needs_fallback)
                    lm_outcomes = dict(zip(needs_fallback, outs))

            results = []
            for i, request in enumerate(requests):
                share = (vire_share if i in vire_outcomes else 0.0) + (
                    lm_share if i in lm_outcomes else 0.0
                )
                result = self._serve_one(
                    request,
                    now_s,
                    readings[i],
                    vire_outcomes.get(i),
                    lm_outcomes.get(i),
                    share,
                )
                if result is not None:
                    results.append(result)
            self._sync_frame_metrics()
            if corrected_tags:
                # Ladder annotation: which answers in this batch were
                # served from calibration-corrected (or quarantine-
                # excised) snapshots. The ladder levels themselves are
                # untouched — correction happens *before* the ladder.
                bsp.set("calibration_corrected_tags", sorted(corrected_tags))
            return results

    def _salvaged_outcomes(self, fn, readings: list) -> list[Outcome]:
        """Run one engine pass; salvage it if it raises.

        A failure of the whole pass is retried item by item in-process,
        and an item that still fails is substituted with an
        :class:`EstimationError` — which the degradation ladder treats
        as a per-request refusal. A bug (or resource fault) in one
        estimator pass therefore degrades one answer, never the batch.
        """
        return run_shard_with_salvage(
            fn,
            readings,
            error_factory=lambda item, exc: EstimationError(
                f"engine pass failed: {type(exc).__name__}: {exc}"
            ),
            metrics=self.metrics,
        )

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

    def _serve_one(
        self,
        request: LocalizationRequest,
        now_s: float,
        reading: Any,
        vire_outcome: Outcome | None,
        lm_outcome: Outcome | None,
        batch_share_s: float = 0.0,
    ) -> ServiceResult | None:
        """Assemble one answer from the precomputed batch outcomes.

        The degradation ladder is decided here exactly as it was when the
        estimators ran inline; the heavy passes simply happened earlier,
        vectorized over the whole batch. ``vire_outcome``/``lm_outcome``
        are the per-reading results (or the errors the scalar calls would
        have raised); ``batch_share_s`` is this request's even share of
        the batched passes' wall-clock, folded into its latency.

        Every serve decision is traced as one ``service.serve`` span with
        the ladder outcome as attributes (``level``/``reason``/
        ``estimator``/``degraded`` — or ``failed`` when even level 4 has
        nothing). ``repro trace summary`` aggregates exactly these.
        """
        with current_tracer().span(
            "service.serve", tag=request.tag_id
        ) as span:
            return self._serve_one_traced(
                span, request, now_s, reading,
                vire_outcome, lm_outcome, batch_share_s,
            )

    def _serve_one_traced(
        self,
        span,
        request: LocalizationRequest,
        now_s: float,
        reading: Any,
        vire_outcome: Outcome | None,
        lm_outcome: Outcome | None,
        batch_share_s: float,
    ) -> ServiceResult | None:
        t0 = self._perf_clock()
        estimator_name = self.vire.name
        degraded = False
        reason: str | None = None
        diagnostics: Mapping[str, Any] = {}

        past_deadline = (
            request.deadline_s is not None and now_s > request.deadline_s
        )

        def consume(outcome: Outcome | None):
            # An EstimationError means "this ladder level refused" (the
            # scalar path caught exactly that); any other ReproError is a
            # real fault the scalar path would have propagated.
            if isinstance(outcome, EstimationError):
                return None
            if isinstance(outcome, ReproError):
                raise outcome
            return outcome

        if reading is None:
            est = None
        elif past_deadline:
            # Too late for the expensive path: serve the cheap estimate.
            est = consume(lm_outcome)
            if est is not None:
                degraded, reason = True, "deadline"
                estimator_name = self.fallback.name
        else:
            # Ladder levels 1 and 2: full VIRE, or — for a masked
            # snapshot — VIRE on the quorum-surviving reader subset.
            est = consume(vire_outcome)
            if est is not None:
                if reading.masked:
                    degraded, reason = True, "partial_readers"
            else:
                # Level 3: NaN-aware LANDMARC. "empty_intersection" on a
                # healthy reading; "quorum_unmet" when the masked subset
                # was too thin for VIRE.
                est = consume(lm_outcome)
                if est is not None:
                    degraded = True
                    reason = (
                        "quorum_unmet" if reading.masked
                        else "empty_intersection"
                    )
                    estimator_name = self.fallback.name

        if est is not None:
            position = est.position
            diagnostics = dict(est.diagnostics)
        else:
            # Level 4: no snapshot, or not even LANDMARC can rank
            # neighbours — the tag's last known estimate, if any.
            position = self._last_estimate.get(request.tag_id)
            if position is None:
                self._c_failed.inc()
                span.update(failed=True, reason="no_reading")
                log_event(
                    self._logger, "request_failed",
                    tag=request.tag_id, t=now_s, reason="no_reading",
                )
                return None
            degraded, reason = True, "no_reading"
            estimator_name = "last-known"

        if estimator_name == "last-known":
            level = 4
        elif estimator_name == self.fallback.name:
            level = 3
        elif degraded:
            level = 2
        else:
            level = 1
        span.update(level=level, estimator=estimator_name, degraded=degraded)
        if reason is not None:
            span.set("reason", reason)
        latency = self._perf_clock() - t0 + batch_share_s
        self._h_latency.observe(latency)
        self._c_results.inc()
        if degraded:
            self._c_degraded.inc()
            self._c_degraded_reason[reason].inc()
            log_event(
                self._logger, "request_degraded",
                tag=request.tag_id, t=now_s, reason=reason,
            )
        self._last_estimate[request.tag_id] = position
        result = ServiceResult(
            tag_id=request.tag_id,
            position=position,
            estimator=estimator_name,
            degraded=degraded,
            reason=reason,
            requested_at_s=request.enqueued_at_s,
            completed_at_s=now_s,
            processing_latency_s=latency,
            diagnostics=diagnostics,
        )
        self._results.append(result)
        return result

    def _sync_frame_metrics(self) -> None:
        """Mirror per-reader frame accounting into the registry.

        Satellite of the faults work: readers already count frames
        received vs dropped at the detection floor; the middleware
        exposes them (:meth:`MiddlewareServer.frame_stats`) and the
        service republishes them as monotone counters — per reader and in
        total — so a chaos run's frame loss is visible next to the
        degradation counters. (These were once gauges holding cumulative
        counts; they are counters now, named ``*_total`` per convention.)
        """
        stats = self.middleware.frame_stats()
        if not stats:
            return
        total_received = 0
        total_dropped = 0
        for reader_id, st in stats.items():
            total_received += st["received"]
            total_dropped += st["dropped"]
            safe = re.sub(r"[^a-zA-Z0-9_:]", "_", str(reader_id))
            key_r = f"service_frames_received_{safe}_total"
            key_d = f"service_frames_dropped_{safe}_total"
            if key_r not in self._c_frames_per_reader:
                self._c_frames_per_reader[key_r] = self.metrics.counter(
                    key_r, f"Frames received by reader {reader_id}"
                )
                self._c_frames_per_reader[key_d] = self.metrics.counter(
                    key_d, f"Frames dropped by reader {reader_id}"
                )
            c_r = self._c_frames_per_reader[key_r]
            c_d = self._c_frames_per_reader[key_d]
            c_r.inc(float(st["received"]) - c_r.value)
            c_d.inc(float(st["dropped"]) - c_d.value)
        self._c_frames_received.inc(
            total_received - self._c_frames_received.value
        )
        self._c_frames_dropped.inc(total_dropped - self._c_frames_dropped.value)

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
        log_event(self._logger, "replay_begin")

    def end_replay(self) -> None:
        """Leave replay mode; subsequent batches estimate and serve."""
        self._replaying = False
        log_event(self._logger, "replay_end")

    def checkpoint_state(self) -> dict[str, Any]:
        """The pipeline state that must survive a crash.

        Only state *mutated by serving* is captured: the last-known
        estimates (level-4 ladder memory) and the serving counters.
        Everything else — queue contents, middleware series, breaker
        states, batcher counters — is a deterministic
        function of the seeded stream and is reconstructed by replay;
        the breaker states (and, when enabled, the calibration
        corrector's state) are still recorded so resume can *verify*
        the reconstruction (:meth:`verify_replay`).
        """
        state: dict[str, Any] = {
            "last_estimate": {
                tag: [float(p[0]), float(p[1])]
                for tag, p in sorted(self._last_estimate.items())
            },
            "counters": {
                "requests": self._c_requests.value,
                "results": self._c_results.value,
                "degraded": self._c_degraded.value,
                "failed": self._c_failed.value,
                **{
                    f"degraded_{reason}": counter.value
                    for reason, counter in self._c_degraded_reason.items()
                },
            },
            "breakers": {
                rid: {
                    "state": b.state,
                    "consecutive_failures": b.consecutive_failures,
                    "opened_at_s": b.opened_at_s,
                    "transitions": b.transitions,
                }
                for rid, b in sorted(self.health.breakers.items())
            },
        }
        if self.calibration is not None:
            # Replay-verified like the breakers; absent when the loop is
            # disabled so those checkpoints stay byte-identical to
            # pre-calibration builds.
            state["calibration"] = self.calibration.checkpoint_state()
        return state

    def restore_checkpoint_state(
        self,
        state: Mapping[str, Any],
        results: list[ServiceResult],
    ) -> None:
        """Restore the serving-side state from a checkpoint.

        ``results`` is the committed result log (decoded from the WAL);
        the counters restored here are exactly the ones ``_serve_one``
        increments. Counters owned by replayed components (requests,
        frames, batcher, queue, faults) are **not** touched — replay
        reconstructs them.
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
        log_event(
            self._logger, "checkpoint_restored",
            results=len(results),
            last_estimates=len(self._last_estimate),
        )

    def verify_replay(self, state: Mapping[str, Any]) -> None:
        """Check the replay-reconstructed state against the snapshot.

        Raises :class:`~repro.exceptions.CheckpointError` when the
        breaker states or the request counter reconstructed by replay
        disagree with what the crashed run checkpointed — the
        determinism contract of resume would be void.
        """
        from ..exceptions import CheckpointError

        expected = state.get("breakers", {})
        for rid, snap in expected.items():
            breaker = self.health.breakers.get(rid)
            if breaker is None:
                raise CheckpointError(
                    f"checkpointed breaker for unknown reader {rid!r}"
                )
            got = {
                "state": breaker.state,
                "consecutive_failures": breaker.consecutive_failures,
                "opened_at_s": breaker.opened_at_s,
                "transitions": breaker.transitions,
            }
            if got != dict(snap):
                raise CheckpointError(
                    f"replay diverged for reader {rid!r}: "
                    f"reconstructed {got}, checkpoint {dict(snap)}"
                )
        counters = state.get("counters", {})
        if "requests" in counters:
            got_requests = self._c_requests.value
            if got_requests != float(counters["requests"]):
                raise CheckpointError(
                    f"replay diverged on requests counter: reconstructed "
                    f"{got_requests}, checkpoint {counters['requests']}"
                )
        if "calibration" in state:
            from ..runtime.checkpoint import jsonable

            if self.calibration is None:
                raise CheckpointError(
                    "checkpoint was written with the calibration loop "
                    "enabled; this session has it disabled"
                )
            got_cal = jsonable(self.calibration.checkpoint_state())
            want_cal = jsonable(state["calibration"])
            if got_cal != want_cal:
                raise CheckpointError(
                    f"replay diverged on calibration state: reconstructed "
                    f"{got_cal}, checkpoint {want_cal}"
                )
        log_event(self._logger, "replay_verified")

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
        degraded = self._c_degraded.value
        served = self._c_results.value
        requests = self._c_requests.value
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
            "frames_received": self._c_frames_received.value,
            "frames_dropped": self._c_frames_dropped.value,
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
