"""Synchronous session facade over the streaming service.

:class:`LocalizationService` is what tests, benchmarks and the CLI call:
give it a :class:`~repro.experiments.scenarios.TestbedScenario` (or an
environment name) and a duration, and it builds the deployment, taps the
beacon stream, and drives the full asyncio pipeline to completion —
deterministically, because every clock involved is seeded: simulation
time doubles as the service clock, and the wall-clock used for latency
histograms is injectable.

Internally the session runs two cooperating asyncio tasks connected by a
bounded tick queue (backpressure included):

* the **producer** pulls record chunks off the simulator stream and
  offers them to the ingestion queue;
* the **dispatcher** wakes per tick, submits due localization queries to
  the micro-batcher, and executes due batches.

``asyncio.run`` hides all of that behind the synchronous
:meth:`LocalizationService.run`.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..exceptions import CheckpointError, ConfigurationError, SimulationError
from ..experiments.scenarios import TestbedScenario, paper_scenario
from ..hardware.deployment import Deployment, build_paper_deployment
from ..hardware.streams import SimulatorRecordStream
from ..runtime.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    jsonable,
    load_checkpoint,
    validate_header,
)
from ..obs import NULL_TRACER, Tracer, current_tracer, use_tracer
from ..types import estimation_error
from .metrics import MetricsRegistry, get_service_logger, log_event
from .pipeline import ServiceConfig, ServicePipeline, ServiceResult

if TYPE_CHECKING:  # runtime import is lazy (only when a plan is passed)
    from ..faults.crash import CrashPoint
    from ..faults.plan import FaultPlan

__all__ = [
    "SessionReport",
    "LocalizationService",
    "result_to_doc",
    "result_from_doc",
    "result_witness_entry",
]


def result_witness_entry(result: ServiceResult) -> dict[str, Any]:
    """One result's entry in a determinism witness document.

    Only the seed-deterministic fields: wall-clock latency and free-form
    diagnostics are excluded by design. Shared by
    :meth:`SessionReport.witness_document` and the zone gateway's
    interim-result witness
    (:meth:`~repro.zones.gateway.MultiZoneReport.witness_document`).
    """
    return {
        "tag_id": result.tag_id,
        "position": [float(result.position[0]), float(result.position[1])],
        "estimator": result.estimator,
        "degraded": bool(result.degraded),
        "reason": result.reason,
        "requested_at_s": float(result.requested_at_s),
        "completed_at_s": float(result.completed_at_s),
    }


def result_to_doc(result: ServiceResult) -> dict[str, Any]:
    """Serialize one :class:`ServiceResult` into a WAL result document."""
    return {
        "tag_id": result.tag_id,
        "position": [float(result.position[0]), float(result.position[1])],
        "estimator": result.estimator,
        "degraded": bool(result.degraded),
        "reason": result.reason,
        "requested_at_s": float(result.requested_at_s),
        "completed_at_s": float(result.completed_at_s),
        "processing_latency_s": float(result.processing_latency_s),
        "diagnostics": jsonable(dict(result.diagnostics)),
    }


def result_from_doc(doc: Mapping[str, Any]) -> ServiceResult:
    """Rebuild a :class:`ServiceResult` from a WAL result document.

    Deterministic fields round-trip exactly (JSON preserves float
    ``repr``); diagnostics come back as plain JSON types, which is why
    the determinism witness excludes them.
    """
    position = doc["position"]
    return ServiceResult(
        tag_id=str(doc["tag_id"]),
        position=(float(position[0]), float(position[1])),
        estimator=str(doc["estimator"]),
        degraded=bool(doc["degraded"]),
        reason=doc.get("reason"),
        requested_at_s=float(doc["requested_at_s"]),
        completed_at_s=float(doc["completed_at_s"]),
        processing_latency_s=float(doc["processing_latency_s"]),
        diagnostics=dict(doc.get("diagnostics") or {}),
    )


@dataclass(frozen=True)
class SessionReport:
    """Everything one streaming session produced.

    Attributes
    ----------
    results:
        Every served localization, in completion order.
    summary:
        The pipeline's headline numbers (batches flushed, degraded
        count, latency quantiles, ...) plus session
        totals (duration, records streamed, throughput).
    metrics:
        The full registry, for Prometheus rendering or JSON dumps.
    errors_m:
        Per-result localization error in metres against the deployment's
        ground truth (same order as ``results``); empty when ground
        truth is unavailable for a tag.
    calibration_events:
        The drift corrector's quarantine/probation/readmit transitions,
        in occurrence order (empty when the calibration loop is
        disabled). JSON-native dicts; part of the determinism witness.
    """

    results: tuple[ServiceResult, ...]
    summary: Mapping[str, float]
    metrics: MetricsRegistry
    errors_m: tuple[float, ...] = ()
    calibration_events: tuple[Mapping[str, Any], ...] = ()

    @property
    def mean_error_m(self) -> float:
        """Mean localization error over results with ground truth."""
        return sum(self.errors_m) / len(self.errors_m) if self.errors_m else float("nan")

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()

    def witness_document(self) -> dict[str, Any]:
        """The session's *deterministic* observable behaviour, as JSON types.

        This is the object the crash-recovery witness compares: a seeded
        session killed at an arbitrary tick and resumed must produce a
        byte-identical witness (``json.dumps(..., sort_keys=True)``) to
        the uninterrupted run. Only fields that are pure functions of
        the seed belong here — wall-clock latencies and free-form
        diagnostics are excluded by design.
        """
        reasons: dict[str, int] = {}
        for r in self.results:
            if r.degraded and r.reason is not None:
                reasons[r.reason] = reasons.get(r.reason, 0) + 1
        doc = {
            "results": [result_witness_entry(r) for r in self.results],
            "errors_m": [float(e) for e in self.errors_m],
            "n_results": len(self.results),
            "degraded_reasons": {k: reasons[k] for k in sorted(reasons)},
        }
        if self.calibration_events:
            # Present only when the calibration loop produced events, so
            # pre-calibration witnesses stay byte-identical.
            doc["calibration_events"] = [
                dict(e) for e in self.calibration_events
            ]
        return doc


class LocalizationService:
    """Drives the streaming pipeline over a seeded scenario.

    Parameters
    ----------
    config:
        Service knobs; defaults are sized for the paper's testbed.
    perf_clock:
        Monotonic clock used for latency measurement (injectable so a
        test can make latency deterministic).
    warmup_max_s:
        Cap on the reference-coverage warm-up phase before queries start.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        perf_clock: Callable[[], float] = time.perf_counter,
        warmup_max_s: float = 120.0,
    ):
        self.config = config or ServiceConfig()
        self._perf_clock = perf_clock
        self.warmup_max_s = float(warmup_max_s)
        self._logger = get_service_logger()

    # -- deployment assembly -------------------------------------------------

    def build_deployment(self, scenario: TestbedScenario) -> Deployment:
        """The event-driven testbed a session streams from."""
        tracking = {
            f"tag-{label}": pos for label, pos in scenario.tracking_tags.items()
        }
        return build_paper_deployment(
            scenario.environment,
            grid=scenario.grid,
            tracking_tags=tracking,
            seed=scenario.base_seed,
        )

    # -- the session ---------------------------------------------------------

    def run(
        self,
        scenario: TestbedScenario | str,
        duration_s: float,
        *,
        on_result: Callable[[ServiceResult], Any] | None = None,
        fault_plan: "FaultPlan | None" = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        crash_point: "CrashPoint | None" = None,
        tracer: Tracer | None = None,
    ) -> SessionReport:
        """Stream ``scenario`` for ``duration_s`` simulated seconds.

        ``scenario`` may be a full :class:`TestbedScenario` or an
        environment preset name (``"Env1"``/``"Env2"``/``"Env3"``).
        ``on_result`` fires synchronously per served result — the CLI's
        live table hook. ``fault_plan`` interposes a seeded
        :class:`~repro.faults.FaultInjector` on the simulator's record
        path *after* warm-up completes (warm-up cannot be starved by an
        injected outage; fault times are absolute simulation seconds);
        an empty plan is bit-identical to no plan at all. The injector's
        counters and fault-event trail are folded into the report
        summary.

        Crash safety (``docs/RUNTIME.md``):

        ``checkpoint_path``
            Attach an append-only JSONL write-ahead checkpoint: every
            served result is logged as served, and a consistency
            snapshot (pipeline state at simulated time *t*) is written
            every ``config.runtime.checkpoint_interval_s`` simulated
            seconds, after a graceful interrupt, and at session end.
        ``resume``
            Load the checkpoint's last committed cut, restore the served
            results and serving state from it, *replay* the seeded
            stream up to the cut with estimation skipped (reconstructing
            queue, middleware, breaker and batcher state bit-exactly —
            and verifying the reconstruction against the snapshot), then
            continue live. The resumed session's
            :meth:`SessionReport.witness_document` is byte-identical to
            an uninterrupted run's.
        ``crash_point``
            Test/benchmark hook: a :class:`~repro.faults.CrashPoint`
            that raises :class:`~repro.faults.SimulatedCrash` at the
            first live tick at or past its time — *without* draining or
            writing a final snapshot, exactly like ``kill -9``.

        A :class:`KeyboardInterrupt` (Ctrl-C / SIGTERM via the CLI) is a
        *graceful* shutdown: the batcher is drained, a final snapshot
        and an ``end`` marker are written, and the report carries
        ``summary["interrupted"] = 1.0``.

        ``tracer``
            Optional :class:`repro.obs.Tracer` installed as the ambient
            tracer for the whole session. Its deterministic clock is
            wired to the simulator (spans are stamped with simulation
            time), so the *logical* trace — span tree, attributes, sim
            timestamps — is a pure function of the seeded scenario;
            ``repro trace record`` relies on exactly that. ``None`` (the
            default) leaves the ambient tracer alone: normally the
            no-op, so instrumentation costs nothing.
        """
        from ..faults.crash import SimulatedCrash  # lazy: avoid cycle

        if isinstance(scenario, str):
            scenario = paper_scenario(scenario, n_trials=1)
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")
        deployment = self.build_deployment(scenario)
        simulator = deployment.simulator
        pipeline = ServicePipeline(
            deployment.grid,
            simulator.middleware,
            self.config,
            perf_clock=self._perf_clock,
        )
        if tracer is not None and tracer.clock is None:
            # Deterministic span timestamps: simulation time, not wall.
            tracer.clock = lambda: simulator.now
        injector = None
        if fault_plan is not None:
            from ..faults.injector import FaultInjector  # lazy: avoid cycle

            injector = FaultInjector(fault_plan, metrics=pipeline.metrics)
        tag_ids = sorted(f"tag-{label}" for label in scenario.tracking_tags)

        header = self._checkpoint_header(scenario, tag_ids, duration_s)
        restored: CheckpointState | None = None
        if resume:
            restored = load_checkpoint(checkpoint_path)
            self._validate_header(restored, header)
        writer: CheckpointWriter | None = None
        if checkpoint_path is not None:
            writer = CheckpointWriter(checkpoint_path, append=resume)
            if resume:
                writer.write_marker("resume", t_cut=restored.t_cut)
            else:
                writer.write_header(**header)

        wall_start = self._perf_clock()
        interrupted = False
        tracer_scope = (
            use_tracer(tracer) if tracer is not None else nullcontext()
        )
        try:
            with tracer_scope, SimulatorRecordStream(
                simulator, step_s=self.config.stream_step_s
            ) as stream:
                with current_tracer().span("session.warmup") as wsp:
                    warmed_s = self._warm_up(stream, pipeline)
                    wsp.set("warmed_until_s", float(warmed_s))
                # Baseline capture must land between warm-up (coverage
                # complete, series clean) and the injector attaching.
                pipeline.arm_calibration(simulator.now)
                if injector is not None:
                    simulator.set_fault_injector(injector)
                if restored is not None:
                    pipeline.restore_checkpoint_state(
                        restored.snapshot["state"],
                        [result_from_doc(d) for d in restored.results],
                    )
                    pipeline.begin_replay()
                start_s = simulator.now
                log_event(
                    self._logger, "session_start",
                    tags=len(tag_ids), duration=duration_s, t=start_s,
                    faults=len(fault_plan) if fault_plan is not None else 0,
                    resumed=restored is not None,
                    checkpoint=writer is not None,
                )
                if writer is not None and restored is None:
                    # Initial snapshot: a crash *before* the first
                    # periodic snapshot must still be resumable (cut at
                    # session start, zero results).
                    writer.write_snapshot(
                        t=start_s,
                        results_count=0,
                        state=pipeline.checkpoint_state(),
                        records_dispatched=0,
                    )
                try:
                    interrupted = asyncio.run(
                        self._session(
                            stream, pipeline, tag_ids, duration_s, on_result,
                            writer=writer,
                            restored=restored,
                            crash_point=crash_point,
                        )
                    )
                except KeyboardInterrupt:
                    # Interrupt landed outside the dispatcher (e.g. in
                    # the event loop itself): still a graceful shutdown,
                    # resuming from the last periodic snapshot.
                    interrupted = True
                if interrupted:
                    log_event(
                        self._logger, "session_interrupted",
                        t=simulator.now, results=len(pipeline.results),
                    )
                if pipeline.replaying:
                    # Cut at (or past) the session end: the whole stream
                    # replayed; flip to live so the drain below estimates.
                    pipeline.end_replay()
                    if not interrupted:
                        pipeline.verify_replay(restored.snapshot["state"])
                end_s = simulator.now
                with current_tracer().span("service.drain") as dsp:
                    drained = pipeline.drain(end_s)
                    dsp.set("n_drained", len(drained))
                for result in drained:
                    if on_result is not None:
                        on_result(result)
                if writer is not None:
                    if not interrupted:
                        # Normal completion: commit the drained tail and
                        # seal the file with a final snapshot. (On an
                        # interrupt the dispatcher already wrote a
                        # consistent cut at its last complete tick; the
                        # early drain above is report-only — its results
                        # are served at the interrupt time, not their
                        # natural flush times, so committing them would
                        # poison a later resume.)
                        logged = writer.results_logged + (
                            len(restored.results)
                            if restored is not None else 0
                        )
                        all_results = pipeline.results
                        for i in range(logged, len(all_results)):
                            writer.append_result(
                                i, result_to_doc(all_results[i])
                            )
                        writer.write_snapshot(
                            t=end_s,
                            results_count=len(all_results),
                            state=pipeline.checkpoint_state(),
                        )
                    writer.write_marker(
                        "end", t=end_s, interrupted=interrupted
                    )
        except SimulatedCrash:
            # A simulated hard kill: close the file as-is — no drain, no
            # final snapshot. Whatever the WAL holds is what a real
            # crash would have left behind.
            if writer is not None:
                writer.close()
            raise
        finally:
            if writer is not None:
                writer.close()

        wall_s = self._perf_clock() - wall_start
        summary = dict(pipeline.metrics_summary())
        summary["session_duration_s"] = end_s - start_s
        summary["session_end_s"] = float(end_s)
        summary["records_streamed"] = float(stream.records_streamed)
        summary["wall_time_s"] = wall_s
        summary["localizations_per_s"] = (
            summary["results"] / wall_s if wall_s > 0 else float("inf")
        )
        if injector is not None:
            for key, value in injector.counters().items():
                summary[f"fault_records_{key}"] = float(value)
        if interrupted:
            summary["interrupted"] = 1.0
        if resume:
            summary["resumed"] = 1.0
            summary["resume_results_restored"] = float(len(restored.results))
        if writer is not None:
            summary["checkpoint_results_logged"] = float(writer.results_logged)
            summary["checkpoint_snapshots"] = float(writer.snapshots_written)
        errors = tuple(
            estimation_error(r.position, deployment.tracking_truth[r.tag_id])
            for r in pipeline.results
            if r.tag_id in deployment.tracking_truth
        )
        log_event(
            self._logger, "session_end",
            results=len(pipeline.results), wall_s=wall_s,
            interrupted=interrupted,
        )
        return SessionReport(
            results=pipeline.results,
            summary=summary,
            metrics=pipeline.metrics,
            errors_m=errors,
            calibration_events=pipeline.calibration_events(),
        )

    # -- checkpoint plumbing -------------------------------------------------

    def _checkpoint_header(
        self,
        scenario: TestbedScenario,
        tag_ids: list[str],
        duration_s: float,
    ) -> dict[str, Any]:
        """Scenario identity written to (and checked against) a checkpoint."""
        environment = getattr(scenario, "environment", None)
        header = {
            "scenario": getattr(scenario, "name", None),
            "environment": getattr(environment, "name", None),
            "seed": getattr(scenario, "base_seed", None),
            "zone": None,  # unzoned session; ZoneWorker writes its zone id
            "tags": list(tag_ids),
            "duration_s": float(duration_s),
            "query_interval_s": float(self.config.query_interval_s),
            "stream_step_s": float(self.config.stream_step_s),
        }
        if self.config.calibration is not None:
            # Identity key only when enabled: a calibrating session must
            # not resume a non-calibrating checkpoint (and vice versa),
            # while disabled sessions keep the pre-calibration header
            # byte-identical.
            header["calibration"] = True
        return header

    @staticmethod
    def _validate_header(
        restored: CheckpointState, header: Mapping[str, Any]
    ) -> None:
        """Refuse to resume a checkpoint against a different world.

        Thin alias of :func:`repro.runtime.checkpoint.validate_header`
        (kept for callers that monkeypatch or subclass the service).
        """
        validate_header(restored, header)

    # -- internals -----------------------------------------------------------

    def _warm_up(
        self, stream: SimulatorRecordStream, pipeline: ServicePipeline
    ) -> float:
        """Stream until every reader covers the reference grid.

        Mirrors :meth:`TestbedSimulator.warm_up`, but routed through the
        service's own ingestion queue (the simulator's direct middleware
        path is disconnected while the stream taps the record sink).
        """
        simulator = stream.simulator
        deadline = simulator.now + self.warmup_max_s
        while simulator.now < deadline:
            records = stream.advance(min(2.0, deadline - simulator.now))
            pipeline.ingest.submit(records)
            pipeline.ingest.deliver_pending()
            coverage = pipeline.middleware.coverage(simulator.now)
            if all(c >= 1.0 for c in coverage.values()):
                return simulator.now
        raise SimulationError(
            f"reference coverage incomplete after {self.warmup_max_s}s of "
            f"warm-up: {pipeline.middleware.coverage(simulator.now)}"
        )

    async def _session(
        self,
        stream: SimulatorRecordStream,
        pipeline: ServicePipeline,
        tag_ids: list[str],
        duration_s: float,
        on_result: Callable[[ServiceResult], Any] | None,
        *,
        writer: CheckpointWriter | None = None,
        restored: CheckpointState | None = None,
        crash_point: "CrashPoint | None" = None,
    ) -> bool:
        """Producer/dispatcher task pair around a bounded tick queue.

        Returns ``True`` when the session was gracefully interrupted
        (:class:`KeyboardInterrupt` inside the dispatcher — Ctrl-C or
        SIGTERM routed by the CLI), after sealing the WAL with the last
        complete tick's consistency cut.

        Records travel *with* their tick rather than being offered to the
        ingestion queue by the producer: the producer may run several
        chunks of simulated time ahead of the dispatcher (up to the tick
        queue's bound), and offering early would let a batch executing at
        service time ``t`` observe readings stamped after ``t``. Keeping
        submission on the dispatcher side guarantees causality: the
        middleware never contains a record from the future.

        Checkpointing rides on the dispatcher: each live tick's results
        are appended to the WAL as served, and a consistency snapshot is
        written once ``runtime.checkpoint_interval_s`` simulated seconds
        have passed since the last one. On a resumed session the
        dispatcher replays ticks up to the restored cut (estimation
        skipped, see :meth:`ServicePipeline.begin_replay`) and flips to
        live — verifying the reconstructed state — at the first tick
        past it. ``crash_point`` fires after a live tick's results are
        WAL-logged but before any further snapshot, simulating a hard
        kill mid-interval.
        """
        ticks: asyncio.Queue[
            tuple[float, list] | None
        ] = asyncio.Queue(maxsize=8)
        next_query = {tag: stream.simulator.now for tag in tag_ids}
        interval = self.config.query_interval_s
        cp_interval = self.config.runtime.checkpoint_interval_s
        replay_until = restored.t_cut if restored is not None else None
        records_dispatched = 0
        wal_index = len(pipeline.results)
        next_snapshot: float | None = None

        async def produce() -> None:
            for now_s, records in stream.iter_chunks(duration_s):
                await ticks.put((now_s, records))  # bounded: backpressure
            await ticks.put(None)

        def flip_to_live(now_s: float) -> None:
            pipeline.end_replay()
            pipeline.verify_replay(restored.snapshot["state"])
            snap_dispatched = restored.snapshot.get("records_dispatched")
            if (
                snap_dispatched is not None
                and records_dispatched != int(snap_dispatched)
            ):
                raise CheckpointError(
                    f"replay diverged on dispatched records: reconstructed "
                    f"{records_dispatched}, checkpoint {snap_dispatched}"
                )
            log_event(
                self._logger, "resume_live",
                t=now_s, records_replayed=records_dispatched,
                results_restored=wal_index,
            )

        last_cut: dict | None = None
        interrupted = False

        async def dispatch() -> None:
            nonlocal replay_until, records_dispatched, wal_index
            nonlocal next_snapshot, last_cut, interrupted
            try:
                tracer = current_tracer()
                while True:
                    tick = await ticks.get()
                    if tick is None:
                        return
                    now_s, records = tick
                    with tracer.span(
                        "service.tick",
                        tick_s=float(now_s),
                        replay=bool(pipeline.replaying),
                    ) as tsp:
                        if replay_until is not None and now_s > replay_until:
                            flip_to_live(now_s)
                            replay_until = None
                        pipeline.ingest.submit(records)
                        records_dispatched += len(records)
                        for tag in tag_ids:
                            if now_s >= next_query[tag]:
                                pipeline.submit_request(tag, now_s)
                                next_query[tag] = now_s + interval
                        served = pipeline.process_due(now_s)
                        tsp.update(
                            n_records=len(records), n_served=len(served)
                        )
                    if writer is not None and not pipeline.replaying:
                        # Write-ahead: results hit the log *before* any
                        # observer — a consumer can never have seen a
                        # result the checkpoint does not know about.
                        for result in served:
                            writer.append_result(
                                wal_index, result_to_doc(result)
                            )
                            wal_index += 1
                    for result in served:
                        if on_result is not None:
                            on_result(result)
                    if writer is not None and not pipeline.replaying:
                        # The consistency cut at this tick, captured
                        # eagerly: a graceful interrupt may land on a
                        # *later* tick mid-processing, and the snapshot
                        # it flushes must describe a tick boundary.
                        last_cut = {
                            "t": now_s,
                            "results_count": wal_index,
                            "state": pipeline.checkpoint_state(),
                            "records_dispatched": records_dispatched,
                        }
                        if next_snapshot is None:
                            next_snapshot = now_s + cp_interval
                        if now_s >= next_snapshot:
                            writer.write_snapshot(**last_cut)
                            next_snapshot = now_s + cp_interval
                    if (
                        crash_point is not None
                        and not pipeline.replaying
                        and crash_point.due(now_s)
                    ):
                        crash_point.fire(now_s)
            except KeyboardInterrupt:
                # Graceful shutdown: seal the WAL with the last complete
                # tick's cut — the session can then be resumed as if it
                # had crashed exactly at that boundary. Swallowing the
                # interrupt here (and reporting it via the return value)
                # keeps the event loop's teardown clean.
                if writer is not None and last_cut is not None:
                    writer.write_snapshot(**last_cut)
                interrupted = True

        producer = asyncio.ensure_future(produce())
        try:
            await dispatch()
        finally:
            producer.cancel()
            try:
                await producer
            except asyncio.CancelledError:
                pass
        return interrupted
