"""One zone's supervised localization worker.

:class:`ZoneWorker` is the per-zone unit of the scale-out design: a
complete :class:`~repro.service.pipeline.ServicePipeline` over the
zone's own deployment (its seeded world, lattice, estimator, circuit
breakers), stepped one stream chunk at a time so the gateway can run
many zones in deterministic lockstep. The ticks themselves — warm-up,
query scheduling, write-ahead checkpointing, replay-based resume,
graceful interrupt — are the unzoned service's own
:class:`~repro.service.session.ServiceSession`, which is what makes a
single-zone plan bitwise identical to the unzoned service (the
``repro.zones`` safety rail, asserted in ``tests/test_zones_worker.py``).

The worker adds only what is zone-specific: the zone's world with its
roaming tag copies, the zone checkpoint header, the zone-namespaced
metrics registry, and the gateway-facing tag surface for handoff — an
*active set* deciding which tags this zone queries,
:meth:`activate_tag` / :meth:`deactivate_tag` / :meth:`move_tag` to
change ownership at chunk boundaries, :meth:`transfer_estimate` to seed
the level-4 ladder with the estimate carried over from the sending zone,
admission control and the load harness's open-loop query schedule. All
positions on this surface are **local** zone coordinates; the gateway
owns the site frame. The gateway steps every worker in lockstep
behind a :class:`~repro.zones.failover.ZoneChannel`; :meth:`ZoneWorker.run`
is the standalone path.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..hardware.deployment import Deployment, build_paper_deployment
from ..obs import Tracer
from ..runtime.checkpoint import CheckpointState, load_checkpoint
from ..service.metrics import MetricsRegistry
from ..service.pipeline import ServiceConfig, ServicePipeline, ServiceResult
from ..service.session import ServiceSession, SessionReport
from .spec import ZoneSpec

__all__ = ["ZoneWorker"]


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
    query_schedule:
        Open-loop ``(t_rel_s, label)`` arrivals replacing the per-tag
        query interval (the load harness).
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
        query_schedule: Sequence[tuple[float, str]] | None = None,
    ):
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")
        self.spec = spec
        config = config or ServiceConfig()
        if spec.vire is not None:
            config = config.with_(vire=spec.vire)
        self.config = config
        self._checkpoint_path = checkpoint_path
        self._resume = bool(resume)

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
        tracking.update((_tag_id(label), pos) for label, pos in roaming.items())
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
            self.deployment.grid, self.deployment.simulator.middleware,
            self.config, metrics=self.metrics,
        )
        self._roaming_ids: set[str] = {_tag_id(label) for label in roaming}
        # Open-loop arrival schedule (load harness): (t_rel_s, label)
        # events relative to session start, replacing the per-tag query
        # interval. The cursor lives on the worker instance, so a fresh
        # worker (respawn, resume) replays the schedule from the top —
        # exactly the property journal gap replay needs.
        self._query_schedule = tuple(
            (float(t), str(label)) for t, label in query_schedule or ()
        )
        self._sched_i = 0
        self.session = ServiceSession(
            self.deployment, self.pipeline,
            (_tag_id(label) for label in spec.tracking_tags),
            fault_plan=fault_plan, checkpoint_path=checkpoint_path,
            crash_point=crash_point, zone=spec.zone_id,
            submit_queries=(
                None if query_schedule is None else self._submit_scheduled
            ),
        )

    # -- identity --------------------------------------------------------------

    @property
    def zone_id(self) -> str:
        return self.spec.zone_id

    @property
    def simulator(self):
        return self.deployment.simulator

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
        return tuple(sorted(self.session.active))

    def activate_tag(self, label: str) -> None:
        """Start querying ``label`` (ownership arrived here)."""
        tag_id = _tag_id(label)
        if tag_id not in self.deployment.tracking_truth:
            raise ConfigurationError(
                f"zone {self.zone_id!r} hosts no tag {label!r}"
            )
        self.session.activate(tag_id)

    def deactivate_tag(self, label: str) -> None:
        """Stop querying ``label`` (ownership moved away)."""
        self.session.deactivate(_tag_id(label))

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
        self.session.admission = admission

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
        session = self.session
        t_rel = now_s - session.start_s + 1e-9
        while self._sched_i < len(schedule) and schedule[self._sched_i][0] <= t_rel:
            _, label = schedule[self._sched_i]
            self._sched_i += 1
            tag = _tag_id(label)
            if tag not in session.active:
                continue
            admission = session.admission
            if admission is not None and not admission.admit(now_s):
                continue  # shed-newest: the arrival is consumed, not queued
            self.pipeline.submit_request(tag, now_s)

    # -- lifecycle ---------------------------------------------------------------

    def _identity(
        self, duration_s: float
    ) -> tuple[dict[str, Any], CheckpointState | None]:
        """The checkpoint header and, when resuming, the loaded checkpoint."""
        restored = (
            load_checkpoint(self._checkpoint_path) if self._resume else None
        )
        return self.checkpoint_header(duration_s), restored

    def start(self, duration_s: float) -> None:
        """Warm up and arm the session; :meth:`step` then drives ticks."""
        self.session.start(duration_s, *self._identity(duration_s))

    def step(self) -> list[ServiceResult] | None:
        """Run the next tick; ``None`` when the stream ends."""
        return self.session.step()

    def interrupt(self) -> None:
        """Graceful shutdown: seal the WAL at the last complete tick."""
        self.session.interrupt()

    def abort(self) -> None:
        """Hard teardown (simulated crash): close the WAL as-is."""
        self.session.abort()

    def finish(self) -> SessionReport:
        """Drain, seal the checkpoint and assemble the session report."""
        return self.session.finish()

    def run(
        self, duration_s: float, *, tracer: Tracer | None = None
    ) -> SessionReport:
        """Start, step to exhaustion and finish — the standalone path."""
        header, restored = self._identity(duration_s)
        return self.session.run(
            duration_s, header, restored=restored, tracer=tracer
        )

