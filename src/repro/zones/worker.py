"""One zone's supervised localization worker.

:class:`ZoneWorker` is the per-zone unit of the scale-out design: a
complete :class:`~repro.service.pipeline.ServicePipeline` over the
zone's own deployment (its seeded world, lattice, estimator, circuit
breakers), stepped one stream chunk at a time so the gateway can run
many zones in deterministic lockstep. The
step loop reproduces :meth:`LocalizationService.run`'s tick semantics
*exactly* — warm-up, query scheduling, write-ahead checkpointing,
replay-based resume, graceful interrupt — which is what makes a
single-zone plan bitwise identical to the unzoned service (the
``repro.zones`` safety rail, asserted in ``tests/test_zones_worker.py``).

On top of the session semantics the worker adds the gateway-facing tag
surface for handoff: an *active set* deciding which tags this zone
queries, :meth:`activate_tag` / :meth:`deactivate_tag` /
:meth:`move_tag` to change ownership at chunk boundaries, and
:meth:`transfer_estimate` to seed the level-4 ladder with the estimate
carried over from the sending zone. All positions on this surface are
**local** zone coordinates; the gateway owns the site frame.

:func:`run_zone` + :class:`ZoneTask` are the module-level picklable pair
the gateway hands to :class:`~repro.runtime.supervisor.SupervisedPool`
for shared-nothing parallel execution (non-roaming plans only).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..exceptions import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
)
from ..hardware.deployment import Deployment, build_paper_deployment
from ..hardware.readers import ReadingRecord
from ..hardware.streams import SimulatorRecordStream
from ..obs import Tracer, current_tracer, use_tracer
from ..runtime.checkpoint import (
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
    validate_header,
)
from ..service.metrics import MetricsRegistry, get_service_logger, log_event
from ..service.pipeline import ServiceConfig, ServicePipeline, ServiceResult
from ..service.session import SessionReport, result_from_doc, result_to_doc
from ..types import estimation_error
from .spec import ZoneSpec, slice_fault_plan

__all__ = ["ZoneWorker", "ZoneTask", "run_zone"]


def _tag_id(label: Any) -> str:
    """Tag labels become simulator tag ids exactly as the service does."""
    return f"tag-{label}"


class ZoneWorker:
    """A steppable, checkpointable localization session for one zone.

    Parameters
    ----------
    spec:
        The zone's world (environment, lattice, tags, seed, frame).
    config:
        Service knobs; the zone's ``spec.vire`` override (if any) is
        applied on top.
    fault_plan:
        The zone's **already sliced** fault plan (see
        :func:`repro.zones.spec.slice_fault_plan`); attached to the
        simulator after warm-up, exactly like the unzoned session.
    roaming_tags:
        Label -> initial *local* position of every roaming tag copy this
        zone hosts. Roaming copies exist in every zone's deployment (so
        geometry and ground truth are always defined) but start
        *inactive*: the gateway activates the owner's copy.
    checkpoint_path / resume / crash_point:
        Write-ahead checkpointing, replay-based resume and the simulated
        hard-kill hook — same contracts as
        :meth:`~repro.service.session.LocalizationService.run`.
    """

    def __init__(
        self,
        spec: ZoneSpec,
        config: ServiceConfig | None = None,
        *,
        fault_plan=None,
        roaming_tags: Mapping[str, tuple[float, float]] | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        crash_point=None,
        perf_clock: Callable[[], float] = time.perf_counter,
        warmup_max_s: float = 120.0,
        query_schedule: Sequence[tuple[float, str]] | None = None,
    ):
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")
        self.spec = spec
        config = config or ServiceConfig()
        if spec.vire is not None:
            config = config.with_(vire=spec.vire)
        self.config = config
        self._fault_plan = fault_plan
        self._checkpoint_path = checkpoint_path
        self._resume = bool(resume)
        self._crash_point = crash_point
        self._perf_clock = perf_clock
        self.warmup_max_s = float(warmup_max_s)
        self._logger = get_service_logger()

        # Static tags first, roaming copies after — build order is the
        # deployment's tag-offset RNG draw order, so a plan without
        # roaming tags builds the exact world the unzoned service does.
        roaming = dict(roaming_tags or {})
        overlap = {str(k) for k in spec.tracking_tags} & set(roaming)
        if overlap:
            raise ConfigurationError(
                f"roaming tags {sorted(overlap)} collide with zone "
                f"{spec.zone_id!r}'s static tags"
            )
        tracking: dict[str, tuple[float, float]] = {
            _tag_id(label): pos for label, pos in spec.tracking_tags.items()
        }
        tracking.update(
            {_tag_id(label): pos for label, pos in roaming.items()}
        )
        self.deployment: Deployment = build_paper_deployment(
            spec.environment,
            grid=spec.grid,
            tracking_tags=tracking,
            reader_margin_m=spec.reader_margin_m,
            reader_positions=spec.reader_positions,
            seed=spec.seed,
        )
        self.metrics = MetricsRegistry(zone=spec.zone_id)
        self.pipeline = ServicePipeline(
            self.deployment.grid,
            self.deployment.simulator.middleware,
            self.config,
            metrics=self.metrics,
            perf_clock=perf_clock,
        )
        self._active: set[str] = {_tag_id(label) for label in spec.tracking_tags}
        self._roaming_ids: set[str] = {_tag_id(label) for label in roaming}
        self._admission = None
        # Open-loop arrival schedule (load harness): (t_rel_s, label)
        # events relative to session start, replacing the per-tag query
        # interval. The cursor lives on the worker instance, so a fresh
        # worker (respawn, resume) replays the schedule from the top —
        # exactly the property journal gap replay needs.
        self._query_schedule: tuple[tuple[float, str], ...] | None = (
            None
            if query_schedule is None
            else tuple(
                (float(t), str(label)) for t, label in query_schedule
            )
        )
        self._sched_i = 0

        self._stream: SimulatorRecordStream | None = None
        self._chunks: Iterator[tuple[float, list[ReadingRecord]]] | None = None
        self._writer: CheckpointWriter | None = None
        self._restored: CheckpointState | None = None
        self._next_query: dict[str, float] = {}
        self._records_dispatched = 0
        self._wal_index = 0
        self._next_snapshot: float | None = None
        self._last_cut: dict | None = None
        self._replay_until: float | None = None
        self._interrupted = False
        self._finished = False
        self._wall_start = 0.0
        self._start_s = 0.0
        self._duration_s = 0.0

    # -- identity --------------------------------------------------------------

    @property
    def zone_id(self) -> str:
        return self.spec.zone_id

    @property
    def simulator(self):
        return self.deployment.simulator

    @property
    def now(self) -> float:
        """The zone's own simulation clock."""
        return self.simulator.now

    def checkpoint_header(self, duration_s: float) -> dict[str, Any]:
        """Zone identity written to (and checked against) a checkpoint.

        ``zone`` plus the world keys (seed, origin, grid, environment)
        make resuming zone A's file into zone B fail loudly — the two
        zones are independent seeded worlds.
        """
        header: dict[str, Any] = {
            "zone": self.spec.zone_id,
            "environment": self.spec.environment.name,
            "seed": self.spec.seed,
            "origin": [self.spec.origin[0], self.spec.origin[1]],
            "grid": [self.spec.grid.rows, self.spec.grid.cols],
            "tags": sorted(
                _tag_id(label) for label in self.spec.tracking_tags
            ) + sorted(self._roaming_ids),
            "duration_s": float(duration_s),
            "query_interval_s": float(self.config.query_interval_s),
            "stream_step_s": float(self.config.stream_step_s),
        }
        if self.config.calibration is not None:
            # Zone identity includes the calibration loop: quarantine
            # state is part of the checkpoint, so a calibrating worker
            # must never resume a non-calibrating file (and vice versa).
            header["calibration"] = True
        return header

    # -- gateway tag surface -----------------------------------------------------

    def active_tags(self) -> tuple[str, ...]:
        """Tag ids this zone currently queries, sorted."""
        return tuple(sorted(self._active))

    def activate_tag(self, label: str) -> None:
        """Start querying ``label`` (ownership arrived here)."""
        tag_id = _tag_id(label)
        if tag_id not in self.deployment.tracking_truth:
            raise ConfigurationError(
                f"zone {self.zone_id!r} hosts no tag {label!r}"
            )
        if tag_id not in self._active:
            self._active.add(tag_id)
            self._next_query[tag_id] = self.simulator.now

    def deactivate_tag(self, label: str) -> None:
        """Stop querying ``label`` (ownership moved away)."""
        tag_id = _tag_id(label)
        self._active.discard(tag_id)
        self._next_query.pop(tag_id, None)

    def move_tag(self, label: str, local_pos: tuple[float, float]) -> None:
        """Move a hosted tag to a new *local* position (owner only)."""
        self.deployment.move_tracking_tag(_tag_id(label), local_pos)

    def last_estimate(self, label: str) -> tuple[float, float] | None:
        """The tag's last served *local* position in this zone, if any."""
        return self.pipeline.last_estimate(_tag_id(label))

    def transfer_estimate(
        self, label: str, local_pos: tuple[float, float]
    ) -> None:
        """Seed the level-4 ladder from a handed-off estimate (local)."""
        self.pipeline.transfer_last_estimate(_tag_id(label), local_pos)

    def set_admission(self, admission) -> None:
        """Attach an admission gate (duck typed: ``admit(now_s) -> bool``).

        Consulted before each due query is submitted; a shed query's
        schedule slot still advances (shed-newest — see
        :class:`~repro.zones.failover.ZoneAdmission`). ``None`` (the
        default) leaves the query path untouched.
        """
        self._admission = admission

    # -- lifecycle ---------------------------------------------------------------

    def start(self, duration_s: float) -> None:
        """Warm up and arm the session; :meth:`step` then drives ticks."""
        if self._stream is not None:
            raise SimulationError(
                f"zone {self.zone_id!r} worker already started"
            )
        self._duration_s = float(duration_s)
        self._wall_start = self._perf_clock()
        header = self.checkpoint_header(duration_s)
        if self._resume:
            self._restored = load_checkpoint(self._checkpoint_path)
            validate_header(self._restored, header)
        if self._checkpoint_path is not None:
            self._writer = CheckpointWriter(
                self._checkpoint_path, append=self._resume
            )
            if self._resume:
                self._writer.write_marker("resume", t_cut=self._restored.t_cut)
            else:
                self._writer.write_header(**header)

        simulator = self.simulator
        stream = SimulatorRecordStream(
            simulator, step_s=self.config.stream_step_s
        )
        stream.__enter__()
        self._stream = stream
        try:
            with current_tracer().span(
                "zone.warmup", zone=self.zone_id
            ) as wsp:
                warmed_s = self._warm_up(stream)
                wsp.set("warmed_until_s", float(warmed_s))
            # Per-zone corrector baseline: after warm-up (clean series),
            # before this zone's fault injector attaches.
            self.pipeline.arm_calibration(simulator.now)
            if self._fault_plan is not None:
                from ..faults.injector import FaultInjector  # lazy: cycle

                self._injector = FaultInjector(
                    self._fault_plan, metrics=self.pipeline.metrics
                )
                simulator.set_fault_injector(self._injector)
            else:
                self._injector = None
            if self._restored is not None:
                self.pipeline.restore_checkpoint_state(
                    self._restored.snapshot["state"],
                    [result_from_doc(d) for d in self._restored.results],
                )
                self.pipeline.begin_replay()
                self._replay_until = self._restored.t_cut
            self._start_s = simulator.now
            self._next_query = {
                tag: simulator.now for tag in sorted(self._active)
            }
            self._wal_index = len(self.pipeline.results)
            log_event(
                self._logger, "zone_session_start",
                zone=self.zone_id, tags=len(self._active),
                duration=duration_s, t=self._start_s,
                faults=(
                    len(self._fault_plan)
                    if self._fault_plan is not None else 0
                ),
                resumed=self._restored is not None,
                checkpoint=self._writer is not None,
            )
            if self._writer is not None and self._restored is None:
                self._writer.write_snapshot(
                    t=self._start_s,
                    results_count=0,
                    state=self.pipeline.checkpoint_state(),
                    records_dispatched=0,
                )
            self._chunks = stream.iter_chunks(duration_s)
        except BaseException:
            self.abort()
            raise

    def _warm_up(self, stream: SimulatorRecordStream) -> float:
        """Stream until every reader covers the reference grid.

        Same loop as the unzoned session's warm-up — routed through the
        zone pipeline's own ingestion queue.
        """
        simulator = stream.simulator
        pipeline = self.pipeline
        deadline = simulator.now + self.warmup_max_s
        while simulator.now < deadline:
            records = stream.advance(min(2.0, deadline - simulator.now))
            pipeline.ingest.submit(records)
            pipeline.ingest.deliver_pending()
            coverage = pipeline.middleware.coverage(simulator.now)
            if all(c >= 1.0 for c in coverage.values()):
                return simulator.now
        raise SimulationError(
            f"zone {self.zone_id!r}: reference coverage incomplete after "
            f"{self.warmup_max_s}s of warm-up: "
            f"{pipeline.middleware.coverage(simulator.now)}"
        )

    def _flip_to_live(self, now_s: float) -> None:
        pipeline = self.pipeline
        pipeline.end_replay()
        pipeline.verify_replay(self._restored.snapshot["state"])
        snap_dispatched = self._restored.snapshot.get("records_dispatched")
        if (
            snap_dispatched is not None
            and self._records_dispatched != int(snap_dispatched)
        ):
            raise CheckpointError(
                f"zone {self.zone_id!r} replay diverged on dispatched "
                f"records: reconstructed {self._records_dispatched}, "
                f"checkpoint {snap_dispatched}"
            )
        log_event(
            self._logger, "zone_resume_live",
            zone=self.zone_id, t=now_s,
            records_replayed=self._records_dispatched,
            results_restored=self._wal_index,
        )

    def _submit_scheduled(self, now_s: float) -> None:
        """Submit every open-loop schedule event due at this tick.

        Arrival times are relative to the session start (post warm-up).
        The cursor only moves forward — arrivals are submitted exactly
        once, in schedule order, regardless of how the service is
        keeping up (that is the open-loop contract). Events for tags
        this zone does not currently own are skipped with the cursor
        still advancing, and admission control applies per arrival
        exactly as it does to interval-driven queries.
        """
        schedule = self._query_schedule
        assert schedule is not None
        t_rel = now_s - self._start_s + 1e-9
        while self._sched_i < len(schedule) and schedule[self._sched_i][0] <= t_rel:
            _, label = schedule[self._sched_i]
            self._sched_i += 1
            tag = _tag_id(label)
            if tag not in self._active:
                continue
            if self._admission is not None and not self._admission.admit(now_s):
                continue  # shed-newest: the arrival is consumed, not queued
            self.pipeline.submit_request(tag, now_s)

    def step(self) -> list[ServiceResult] | None:
        """Process the next stream chunk; ``None`` when the stream ends.

        One call is exactly one tick of the unzoned session's
        dispatcher: deliver the chunk's records, submit due queries for
        the *active* tags, execute due batches, write-ahead-log the
        results and capture/flush the consistency cut.
        """
        if self._chunks is None:
            raise SimulationError(
                f"zone {self.zone_id!r} worker is not started"
            )
        if self._interrupted:
            return None
        try:
            now_s, records = next(self._chunks)
        except StopIteration:
            return None
        pipeline = self.pipeline
        writer = self._writer
        with current_tracer().span(
            "zone.tick",
            zone=self.zone_id,
            tick_s=float(now_s),
            replay=bool(pipeline.replaying),
        ) as tsp:
            if self._replay_until is not None and now_s > self._replay_until:
                self._flip_to_live(now_s)
                self._replay_until = None
            pipeline.ingest.submit(records)
            self._records_dispatched += len(records)
            if self._query_schedule is not None:
                self._submit_scheduled(now_s)
            else:
                for tag in sorted(self._active):
                    if now_s >= self._next_query[tag]:
                        self._next_query[tag] = (
                            now_s + self.config.query_interval_s
                        )
                        if (
                            self._admission is not None
                            and not self._admission.admit(now_s)
                        ):
                            continue  # shed-newest: slot advances
                        pipeline.submit_request(tag, now_s)
            served = pipeline.process_due(now_s)
            tsp.update(n_records=len(records), n_served=len(served))
        if writer is not None and not pipeline.replaying:
            # Write-ahead: results hit the log before any observer.
            for result in served:
                writer.append_result(self._wal_index, result_to_doc(result))
                self._wal_index += 1
            # The consistency cut at this tick, captured eagerly so a
            # later interrupt can seal the WAL at a tick boundary.
            self._last_cut = {
                "t": now_s,
                "results_count": self._wal_index,
                "state": pipeline.checkpoint_state(),
                "records_dispatched": self._records_dispatched,
            }
            interval = self.config.runtime.checkpoint_interval_s
            if self._next_snapshot is None:
                self._next_snapshot = now_s + interval
            if now_s >= self._next_snapshot:
                writer.write_snapshot(**self._last_cut)
                self._next_snapshot = now_s + interval
        if (
            self._crash_point is not None
            and not pipeline.replaying
            and self._crash_point.due(now_s)
        ):
            self._crash_point.fire(now_s)
        return served

    def interrupt(self) -> None:
        """Graceful shutdown: seal the WAL at the last complete tick."""
        if self._interrupted:
            return
        self._interrupted = True
        if self._writer is not None and self._last_cut is not None:
            self._writer.write_snapshot(**self._last_cut)
        log_event(
            self._logger, "zone_session_interrupted",
            zone=self.zone_id, t=self.simulator.now,
            results=len(self.pipeline.results),
        )

    def abort(self) -> None:
        """Hard teardown (simulated crash): close the WAL as-is."""
        if self._writer is not None:
            self._writer.close()
        if self._stream is not None:
            self._stream.close()
        self._chunks = None
        self._finished = True

    def finish(self) -> SessionReport:
        """Drain, seal the checkpoint and assemble the session report."""
        if self._stream is None or self._finished:
            raise SimulationError(
                f"zone {self.zone_id!r} worker is not running"
            )
        pipeline = self.pipeline
        writer = self._writer
        restored = self._restored
        try:
            if pipeline.replaying:
                # Cut at (or past) the session end: the whole stream
                # replayed; flip to live so the drain below estimates.
                pipeline.end_replay()
                if not self._interrupted:
                    pipeline.verify_replay(restored.snapshot["state"])
            end_s = self.simulator.now
            with current_tracer().span("service.drain") as dsp:
                drained = pipeline.drain(end_s)
                dsp.set("n_drained", len(drained))
            if writer is not None:
                if not self._interrupted:
                    # Normal completion: commit the drained tail and seal
                    # with a final snapshot. (On interrupt the last
                    # complete tick's cut was already sealed; the drain
                    # above is report-only.)
                    logged = writer.results_logged + (
                        len(restored.results) if restored is not None else 0
                    )
                    all_results = pipeline.results
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
            if writer is not None:
                writer.close()
            self._stream.close()
            self._finished = True
            self._chunks = None

        wall_s = self._perf_clock() - self._wall_start
        summary = dict(pipeline.metrics_summary())
        summary["session_duration_s"] = end_s - self._start_s
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
        if self._resume:
            summary["resumed"] = 1.0
            summary["resume_results_restored"] = float(len(restored.results))
        if writer is not None:
            summary["checkpoint_results_logged"] = float(
                writer.results_logged
            )
            summary["checkpoint_snapshots"] = float(writer.snapshots_written)
        errors = tuple(
            estimation_error(
                r.position, self.deployment.tracking_truth[r.tag_id]
            )
            for r in pipeline.results
            if r.tag_id in self.deployment.tracking_truth
        )
        log_event(
            self._logger, "zone_session_end",
            zone=self.zone_id, results=len(pipeline.results),
            wall_s=wall_s, interrupted=self._interrupted,
        )
        return SessionReport(
            results=pipeline.results,
            summary=summary,
            metrics=pipeline.metrics,
            errors_m=errors,
            calibration_events=pipeline.calibration_events(),
        )

    def run(
        self, duration_s: float, *, tracer: Tracer | None = None
    ) -> SessionReport:
        """Start, step to exhaustion and finish — the standalone path.

        A :class:`KeyboardInterrupt` mid-stream is a graceful shutdown
        (matching the service); a simulated crash propagates with the
        WAL left exactly as the crash found it.
        """
        from ..faults.crash import SimulatedCrash  # lazy: avoid cycle

        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: self.simulator.now
        scope = use_tracer(tracer) if tracer is not None else nullcontext()
        with scope:
            try:
                self.start(duration_s)
                while True:
                    try:
                        if self.step() is None:
                            break
                    except KeyboardInterrupt:
                        self.interrupt()
                        break
            except SimulatedCrash:
                self.abort()
                raise
            return self.finish()


# ---------------------------------------------------------------------------
# Picklable parallel execution unit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneTask:
    """Everything a worker process needs to run one zone, picklable.

    ``fault_plan`` is the **site** plan; the task slices it for its own
    zone so the gateway ships one object to every process.
    """

    spec: ZoneSpec
    config: ServiceConfig | None = None
    duration_s: float = 10.0
    fault_plan: Any | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    warmup_max_s: float = 120.0


def run_zone(task: ZoneTask) -> SessionReport:
    """Run one zone to completion (module-level: picklable for the pool)."""
    plan = (
        slice_fault_plan(task.fault_plan, task.spec.zone_id)
        if task.fault_plan is not None
        else None
    )
    worker = ZoneWorker(
        task.spec,
        task.config,
        fault_plan=plan,
        checkpoint_path=task.checkpoint_path,
        resume=task.resume,
        warmup_max_s=task.warmup_max_s,
    )
    return worker.run(task.duration_s)
