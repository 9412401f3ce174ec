"""Synchronous sessions over the streaming service.

:class:`LocalizationService` is what tests, benchmarks and the CLI call:
give it a :class:`~repro.experiments.scenarios.TestbedScenario` (or an
environment name) and a duration, and it builds the deployment and runs
one :class:`ServiceSession` to completion — deterministically, because
simulation time doubles as the service clock; wall-clock time only
feeds the latency histograms and throughput figures, which no witness
includes.

:class:`ServiceSession` is the one tick loop of the service, the
paper's middleware cadence (§3.2): pull the next chunk of the
simulator's ``(tag, reader, RSSI)`` stream, offer it to the ingestion
queue, submit the due localization queries to the micro-batcher and
execute the due batches — with write-ahead checkpointing, replay-based
resume and graceful interrupt on the same path. The zone gateway steps
the same class, one session per zone
(:class:`~repro.zones.worker.ZoneWorker`).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from ..exceptions import CheckpointError, ConfigurationError, SimulationError
from ..experiments.scenarios import TestbedScenario, paper_scenario
from ..hardware.deployment import Deployment, build_paper_deployment
from ..hardware.streams import SimulatorRecordStream
from ..runtime.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
    validate_header,
)
from ..obs import Tracer, current_tracer, use_tracer
from .metrics import MetricsRegistry
from .pipeline import ServiceConfig, ServicePipeline, ServiceResult

if TYPE_CHECKING:  # runtime import is lazy (only when a plan is passed)
    from ..faults.crash import CrashPoint
    from ..faults.plan import FaultPlan

__all__ = [
    "SessionReport",
    "ServiceSession",
    "LocalizationService",
    "result_to_doc",
    "result_from_doc",
    "result_witness_entry",
]

#: Simulated seconds of record stream per tick: the granularity the
#: session pulls from the simulator and the gateway's τ step. Checkpoint
#: headers record it, so a file written with another step is refused.
STREAM_STEP_S = 0.5

#: Simulated seconds between write-ahead consistency snapshots when a
#: checkpoint is attached (the checkpoint *path* is per run).
CHECKPOINT_INTERVAL_S = 2.0

#: Cap, in simulated seconds, on the warm-up that streams until every
#: reader covers the reference lattice; a session that cannot reach
#: coverage in this time raises :class:`~repro.exceptions.SimulationError`.
WARMUP_MAX_S = 120.0


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
    """One :class:`ServiceResult` as a WAL result document.

    Plain-typed, keys in a fixed order. Diagnostics are copied as they
    are: the estimators fill them with plain values, and the checkpoint
    writer converts anything else it meets
    (:func:`~repro.runtime.checkpoint.jsonable`).
    """
    return {
        "tag_id": result.tag_id,
        "position": [float(result.position[0]), float(result.position[1])],
        "estimator": result.estimator,
        "degraded": bool(result.degraded),
        "reason": result.reason,
        "requested_at_s": float(result.requested_at_s),
        "completed_at_s": float(result.completed_at_s),
        "processing_latency_s": float(result.processing_latency_s),
        "diagnostics": dict(result.diagnostics),
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


class ServiceSession:
    """One steppable localization session: the only tick loop.

    :meth:`start` warms up and arms; each :meth:`step` is one tick — one
    :data:`STREAM_STEP_S` chunk pulled from the simulator, ingested, the due
    queries submitted (every tag in :attr:`active` on the
    ``query_interval_s`` cadence, gated by :attr:`admission` when one is
    attached), due batches executed and the results write-ahead-logged;
    :meth:`finish` drains, seals the checkpoint and assembles the
    :class:`SessionReport`. :meth:`run` chains them for
    :class:`LocalizationService`; the zone gateway steps one session per
    zone through :class:`~repro.zones.worker.ZoneWorker`. Simulation time
    only moves when a chunk is pulled, so a tick's spans and records
    carry the tick's own time.

    ``fault_plan``, ``checkpoint_path`` and ``crash_point`` follow
    :meth:`LocalizationService.run`. ``zone`` (a zoned session's id) is
    added to every span. ``submit_queries``, called with
    the tick time, replaces the interval cadence (the load harness's
    open-loop schedule).
    """

    def __init__(
        self,
        deployment: Deployment,
        pipeline: ServicePipeline,
        tags: Iterable[str],
        *,
        fault_plan: "FaultPlan | None" = None,
        checkpoint_path: str | os.PathLike | None = None,
        crash_point: "CrashPoint | None" = None,
        zone: str | None = None,
        submit_queries: Callable[[float], None] | None = None,
    ):
        self.deployment = deployment
        self.simulator = deployment.simulator
        self.pipeline = pipeline
        self.config = pipeline.config
        self.active: set[str] = set(tags)
        self.admission = None  # duck typed: ``admit(now_s) -> bool``
        self.start_s = 0.0
        self._fault_plan = fault_plan
        self._checkpoint_path = checkpoint_path
        self._crash_point = crash_point
        self._zone = {} if zone is None else {"zone": zone}
        self._name = "session" if zone is None else f"zone {zone!r} session"
        self._submit_queries = submit_queries or self._submit_interval

        self._stream: SimulatorRecordStream | None = None
        self._chunks: Iterator[tuple[float, list]] | None = None
        self._writer: CheckpointWriter | None = None
        self._restored: CheckpointState | None = None
        self._injector = None
        self._next_query: dict[str, float] = {}
        self._replay_until: float | None = None
        self._records_dispatched = 0
        self._wal_index = 0
        self._next_snapshot: float | None = None
        # (t, results_count, pipeline checkpoint_cut, records_dispatched)
        self._last_cut: tuple | None = None
        self._interrupted = False
        self._finished = False
        self._wall_start = 0.0

    # -- the tag surface -------------------------------------------------------

    def activate(self, tag_id: str) -> None:
        """Start querying ``tag_id``, first query at the current tick."""
        if tag_id not in self.active:
            self.active.add(tag_id)
            self._next_query[tag_id] = self.simulator.now

    def deactivate(self, tag_id: str) -> None:
        """Stop querying ``tag_id``."""
        self.active.discard(tag_id)
        self._next_query.pop(tag_id, None)

    # -- lifecycle -------------------------------------------------------------

    def start(
        self,
        duration_s: float,
        header: Mapping[str, Any],
        restored: CheckpointState | None = None,
    ) -> None:
        """Open the checkpoint, warm up and arm; :meth:`step` then ticks.

        ``header`` is the session's checkpoint identity: written to a
        fresh checkpoint, or checked against ``restored`` (the loaded
        checkpoint of a resumed session), which is then restored and
        replayed up to its cut with estimation skipped.
        """
        if self._stream is not None:
            raise SimulationError(f"{self._name} already started")
        if restored is not None:
            validate_header(restored, header)
        self._restored = restored
        self._wall_start = time.perf_counter()
        if self._checkpoint_path is not None:
            self._writer = CheckpointWriter(
                self._checkpoint_path, append=restored is not None
            )
            if restored is not None:
                self._writer.write_marker("resume", t_cut=restored.t_cut)
            else:
                self._writer.write_header(**header)
        simulator = self.simulator
        pipeline = self.pipeline
        try:
            self._stream = SimulatorRecordStream(
                simulator, step_s=STREAM_STEP_S
            ).__enter__()
            with current_tracer().span("session.warmup", **self._zone) as wsp:
                wsp.set("warmed_until_s", float(self._warm_up()))
            # Baseline capture must land between warm-up (coverage
            # complete, series clean) and the injector attaching.
            pipeline.arm_calibration(simulator.now)
            if self._fault_plan is not None:
                from ..faults.injector import FaultInjector  # lazy: cycle

                injector = self._injector = FaultInjector(self._fault_plan)
                simulator.set_fault_injector(injector)
                for name, help_text in (
                    ("records_seen", "Records entering the fault injector"),
                    ("records_dropped", "Records dropped by injected faults"),
                    ("records_modified", "Records with fault-modified RSSI"),
                    ("records_delayed",
                     "Records buffered for delayed delivery"),
                    ("transitions", "Fault state transitions"),
                ):
                    key = name.removeprefix("records_")
                    pipeline.metrics.read(
                        f"faults_{name}_total", help_text,
                        lambda key=key: injector.counters()[key],
                    )
            if restored is not None:
                pipeline.restore_checkpoint_state(
                    restored.snapshot["state"],
                    [result_from_doc(d) for d in restored.results],
                )
                pipeline.begin_replay()
                self._replay_until = restored.t_cut
            self.start_s = simulator.now
            self._next_query = {tag: self.start_s for tag in self.active}
            self._wal_index = len(pipeline.results)
            if self._writer is not None and restored is None:
                # Initial snapshot: a crash *before* the first periodic
                # snapshot must still be resumable (cut at session
                # start, zero results).
                self._writer.write_snapshot(
                    t=self.start_s, results_count=0,
                    state=pipeline.checkpoint_state(), records_dispatched=0,
                )
            self._chunks = self._stream.iter_chunks(duration_s)
        except BaseException:
            self.abort()
            raise

    def _warm_up(self) -> float:
        """Stream until every reader covers the reference grid.

        Routed through the pipeline's own ingestion queue (the
        simulator's direct middleware path is disconnected while the
        stream taps the record sink).
        """
        simulator = self.simulator
        pipeline = self.pipeline
        deadline = simulator.now + WARMUP_MAX_S
        while simulator.now < deadline:
            records = self._stream.advance(min(2.0, deadline - simulator.now))
            pipeline.ingest.submit(records)
            pipeline.ingest.deliver_pending()
            coverage = pipeline.middleware.coverage(simulator.now)
            if all(c >= 1.0 for c in coverage.values()):
                return simulator.now
        raise SimulationError(
            f"{self._name}: reference coverage incomplete after "
            f"{WARMUP_MAX_S}s of warm-up: "
            f"{pipeline.middleware.coverage(simulator.now)}"
        )

    def _submit_interval(self, now_s: float) -> None:
        """Submit every active tag whose query interval has elapsed.

        An attached admission gate is consulted per due query; a shed
        query's slot still advances (shed-newest — see
        :class:`~repro.zones.failover.ZoneAdmission`).
        """
        admission = self.admission
        for tag in sorted(self.active):
            if now_s >= self._next_query[tag]:
                self._next_query[tag] = now_s + self.config.query_interval_s
                if admission is None or admission.admit(now_s):
                    self.pipeline.submit_request(tag, now_s)

    def _flip_to_live(self, now_s: float) -> None:
        """End the replay of a resumed session and verify its state."""
        self.pipeline.end_replay()
        self.pipeline.verify_replay(self._restored.snapshot["state"])
        expected = self._restored.snapshot.get("records_dispatched")
        if expected is not None and self._records_dispatched != int(expected):
            raise CheckpointError(
                f"{self._name} replay diverged on dispatched records: "
                f"reconstructed {self._records_dispatched}, checkpoint "
                f"{expected}"
            )

    def step(self) -> list[ServiceResult] | None:
        """Run the next tick; its served results, or ``None`` at the end.

        A resumed session replays ticks up to the restored cut with
        estimation skipped (:meth:`ServicePipeline.begin_replay`) and
        flips to live at the first tick past it. A live tick's results
        hit the write-ahead log before they are returned, and a
        consistency snapshot is written every
        :data:`CHECKPOINT_INTERVAL_S`; ``crash_point`` fires after
        that, simulating a hard kill mid-interval.
        """
        if self._chunks is None:
            raise SimulationError(f"{self._name} is not started")
        if self._interrupted:
            return None
        try:
            now_s, records = next(self._chunks)
        except StopIteration:
            return None
        pipeline = self.pipeline
        writer = self._writer
        with current_tracer().span(
            "service.tick", **self._zone,
            tick_s=float(now_s), replay=bool(pipeline.replaying),
        ) as tsp:
            if self._replay_until is not None and now_s > self._replay_until:
                self._flip_to_live(now_s)
                self._replay_until = None
            pipeline.ingest.submit(records)
            self._records_dispatched += len(records)
            self._submit_queries(now_s)
            served = pipeline.process_due(now_s)
            tsp.update(n_records=len(records), n_served=len(served))
        if writer is not None and not pipeline.replaying:
            for result in served:
                writer.append_result(self._wal_index, result_to_doc(result))
                self._wal_index += 1
            # The consistency cut at this tick, captured eagerly (as
            # immutable primitives; the document is built only if a
            # snapshot is written): a graceful interrupt may land on a
            # *later* tick mid-processing, and the snapshot it writes
            # must describe a tick boundary.
            self._last_cut = (
                now_s, self._wal_index, pipeline.checkpoint_cut(),
                self._records_dispatched,
            )
            if self._next_snapshot is None:
                self._next_snapshot = now_s + CHECKPOINT_INTERVAL_S
            if now_s >= self._next_snapshot:
                self._write_cut(self._last_cut)
                self._next_snapshot = now_s + CHECKPOINT_INTERVAL_S
            # The tick's result lines in one write (a snapshot above
            # already wrote them with its own line).
            writer.flush()
        if (
            self._crash_point is not None
            and not pipeline.replaying
            and self._crash_point.due(now_s)
        ):
            self._crash_point.fire(now_s)
        return served

    def _write_cut(self, cut: tuple) -> None:
        """Write the snapshot of one tick boundary's :attr:`_last_cut`."""
        t, results_count, state, records_dispatched = cut
        self._writer.write_snapshot(
            t=t, results_count=results_count,
            state=self.pipeline.checkpoint_state(state),
            records_dispatched=records_dispatched,
        )

    def interrupt(self) -> None:
        """Graceful shutdown: seal the WAL at the last complete tick.

        The session can then be resumed as if it had crashed exactly at
        that boundary; :meth:`finish` still drains for the report.
        """
        if self._interrupted:
            return
        self._interrupted = True
        if self._writer is not None and self._last_cut is not None:
            self._write_cut(self._last_cut)

    def abort(self) -> None:
        """Hard teardown (simulated crash): close the WAL as-is."""
        if self._writer is not None:
            self._writer.close()
        if self._stream is not None:
            self._stream.close()
        self._chunks = None
        self._finished = True

    def finish(
        self, on_result: Callable[[ServiceResult], Any] | None = None
    ) -> SessionReport:
        """Drain, seal the checkpoint and assemble the session report.

        ``on_result`` fires for each drained result once the checkpoint
        holds it.
        """
        if self._stream is None or self._finished:
            raise SimulationError(f"{self._name} is not running")
        pipeline = self.pipeline
        writer = self._writer
        restored = self._restored
        try:
            if pipeline.replaying:
                # Cut at (or past) the session end: the whole stream
                # replayed; flip to live so the drain below estimates.
                if restored.sealed:
                    # A normal finish sealed this log: its drained tail
                    # is committed, and its cut is the state after that
                    # drain. Replay the drain too; the live drain below
                    # then finds nothing left to serve.
                    pipeline.drain(self.simulator.now)
                pipeline.end_replay()
                if not self._interrupted:
                    pipeline.verify_replay(restored.snapshot["state"])
            end_s = self.simulator.now
            with current_tracer().span("service.drain", **self._zone) as dsp:
                drained = pipeline.drain(end_s)
                dsp.set("n_drained", len(drained))
            if writer is not None:
                if not self._interrupted:
                    # Normal completion: commit the drained tail and seal
                    # with a final snapshot. (An interrupt already sealed
                    # the last complete tick's cut; its drain is
                    # report-only — served at the interrupt time, not at
                    # natural flush times, so committing it would poison
                    # a later resume.)
                    all_results = pipeline.results
                    logged = writer.results_logged + (
                        len(restored.results) if restored is not None else 0
                    )
                    for i in range(logged, len(all_results)):
                        writer.append_result(i, result_to_doc(all_results[i]))
                    writer.write_snapshot(
                        t=end_s,
                        results_count=len(all_results),
                        state=pipeline.checkpoint_state(),
                    )
                writer.write_marker(
                    "end", t=end_s, interrupted=self._interrupted
                )
        finally:
            self.abort()
        if on_result is not None:
            for result in drained:
                on_result(result)
        return self.report()

    def report(self, **extra: float) -> SessionReport:
        """The session's report as it stands, ``extra`` summary keys last.

        :meth:`finish` calls this after the drain; a zone that died
        mid-session reports through it as-is.
        """
        pipeline = self.pipeline
        end_s = self.simulator.now
        wall_s = time.perf_counter() - self._wall_start
        summary = dict(pipeline.metrics_summary())
        summary["session_duration_s"] = end_s - self.start_s
        summary["session_end_s"] = float(end_s)
        summary["records_streamed"] = float(self._stream.records_streamed)
        summary["wall_time_s"] = wall_s
        summary["localizations_per_s"] = (
            summary["results"] / wall_s if wall_s > 0 else float("inf")
        )
        if self._injector is not None:
            for key, value in self._injector.counters().items():
                summary[f"fault_records_{key}"] = float(value)
        if self._interrupted:
            summary["interrupted"] = 1.0
        if self._restored is not None:
            summary["resumed"] = 1.0
            summary["resume_results_restored"] = float(len(self._restored.results))
        if self._writer is not None:
            summary["checkpoint_results_logged"] = float(self._writer.results_logged)
            summary["checkpoint_snapshots"] = float(self._writer.snapshots_written)
        summary.update(extra)
        results = pipeline.results
        truth = self.deployment.tracking_truth
        known = [r for r in results if r.tag_id in truth]
        # The paper's error e = sqrt((x-x0)^2 + (y-y0)^2) over every
        # result with ground truth at once; each entry has the bits of
        # types.estimation_error for that result.
        estimated = np.array(
            [r.position for r in known], dtype=np.float64
        ).reshape(-1, 2)
        true = np.array(
            [truth[r.tag_id] for r in known], dtype=np.float64
        ).reshape(-1, 2)
        errors = np.hypot(
            estimated[:, 0] - true[:, 0], estimated[:, 1] - true[:, 1]
        )
        return SessionReport(
            results=results,
            summary=summary,
            metrics=pipeline.metrics,
            errors_m=tuple(errors.tolist()),
            calibration_events=pipeline.calibration_events(),
        )

    def run(
        self,
        duration_s: float,
        header: Mapping[str, Any],
        *,
        restored: CheckpointState | None = None,
        on_result: Callable[[ServiceResult], Any] | None = None,
        tracer: Tracer | None = None,
    ) -> SessionReport:
        """Start, step to the end of the stream and finish.

        ``on_result`` fires per served result, after the write-ahead
        log. A :class:`KeyboardInterrupt` mid-stream is a graceful
        shutdown (:meth:`interrupt`); any other exception — a simulated
        crash included — propagates with the WAL left as it found it.
        ``tracer`` is installed as the ambient tracer, its clock wired
        to simulation time.
        """
        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: self.simulator.now
        scope = use_tracer(tracer) if tracer is not None else nullcontext()
        with scope:
            try:
                self.start(duration_s, header, restored)
                while True:
                    try:
                        served = self.step()
                        if served is None:
                            break
                        if on_result is not None:
                            for result in served:
                                on_result(result)
                    except KeyboardInterrupt:
                        self.interrupt()
                        break
            except BaseException:
                self.abort()
                raise
            return self.finish(on_result)


class LocalizationService:
    """Runs one :class:`ServiceSession` over a seeded scenario.

    Parameters
    ----------
    config:
        Service knobs; defaults are sized for the paper's testbed.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()

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
            every :data:`CHECKPOINT_INTERVAL_S` simulated
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
        if isinstance(scenario, str):
            scenario = paper_scenario(scenario, n_trials=1)
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")
        deployment = self.build_deployment(scenario)
        pipeline = ServicePipeline(
            deployment.grid, deployment.simulator.middleware, self.config,
        )
        tag_ids = sorted(f"tag-{label}" for label in scenario.tracking_tags)
        # The scenario's identity, written to (and checked against) a
        # checkpoint. The ``calibration`` key exists only when enabled: a
        # calibrating session must not resume a non-calibrating
        # checkpoint (and vice versa), while disabled sessions keep the
        # pre-calibration header byte-identical.
        header = {
            "scenario": getattr(scenario, "name", None),
            "environment": getattr(
                getattr(scenario, "environment", None), "name", None
            ),
            "seed": getattr(scenario, "base_seed", None),
            "zone": None,  # unzoned session; ZoneWorker writes its zone id
            "tags": tag_ids,
            "duration_s": float(duration_s),
            "query_interval_s": float(self.config.query_interval_s),
            "stream_step_s": STREAM_STEP_S,
        }
        if self.config.calibration is not None:
            header["calibration"] = True
        session = ServiceSession(
            deployment, pipeline, tag_ids,
            fault_plan=fault_plan, checkpoint_path=checkpoint_path,
            crash_point=crash_point,
        )
        return session.run(
            duration_s, header,
            restored=load_checkpoint(checkpoint_path) if resume else None,
            on_result=on_result, tracer=tracer,
        )
