"""The single front door over many shared-nothing zones.

:class:`ZoneGateway` owns a :class:`~repro.zones.spec.ZonePlan` and runs
one :class:`~repro.zones.worker.ZoneWorker` per zone, presenting the
whole site as one service:

* **Routing** — a tag position is assigned to a zone by coarse
  reader-set proximity (:meth:`ZonePlan.detect_zone`): the zone whose
  reader constellation is nearest owns the tag. Initial assignments are
  traced as ``gateway.route`` events.
* **Aggregation** — per-zone metrics (already namespaced
  ``repro_zone_<id>_*``), summaries and witnesses are collected into one
  :class:`MultiZoneReport`; zone traces nest under the gateway's ambient
  tracer.
* **Handoff** — roaming tags cross zone boundaries through a
  deterministic protocol executed at chunk boundaries: evaluated in
  sorted tag order on the gateway's relative clock (``τ = k·step``),
  the old owner deactivates, the last estimate is re-expressed
  old-local -> site -> new-local and seeded into the receiver's ladder
  (:meth:`ZoneWorker.transfer_estimate`), and the new owner moves and
  activates its copy. Every crossing is a ``gateway.handoff`` span and a
  :class:`HandoffEvent` in the report. The protocol never consults
  wall-clock or estimator internals, so it behaves identically while a
  zone is mid-degradation or has readers open-circuit.

Every run is one **supervised lockstep** loop: workers sorted by zone
id, one chunk each per iteration, every worker behind a
:class:`~repro.zones.failover.ZoneChannel`. Handoff needs all zones at
the same τ, and zone-scoped faults, admission control and open-loop
schedules all act on the gateway's call path, so one loop serves every
plan and is byte-reproducible run to run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..obs import Tracer, current_tracer, use_tracer
from ..service.metrics import MetricsRegistry, get_service_logger, log_event
from ..service.pipeline import ServiceConfig, ServiceResult
from ..service.session import SessionReport, result_witness_entry
from .failover import AdmissionPolicy, ZoneChannel
from .spec import RoamingTag, ZonePlan, ZoneSpec

__all__ = ["HandoffEvent", "MultiZoneReport", "ZoneGateway"]


@dataclass(frozen=True)
class HandoffEvent:
    """One roaming-tag crossing, in site-frame terms.

    ``carried_estimate`` is the sending zone's last estimate for the tag
    re-expressed in site coordinates (``None`` when the sender had never
    localized it — the receiver then starts cold).

    ``rerouted_from`` is set when cross-zone load shedding redirected
    the handoff away from the proximity-preferred zone (because it was
    down or running slow); ``carried_source`` is ``"cache"`` when the
    sending zone was unreachable and the estimate came from the
    gateway's own last-seen cache instead of the live worker.
    """

    t_rel_s: float
    tag: str
    from_zone: str
    to_zone: str
    position: tuple[float, float]
    carried_estimate: tuple[float, float] | None
    rerouted_from: str | None = None
    carried_source: str = "live"


@dataclass(frozen=True)
class MultiZoneReport:
    """Everything a multi-zone run produced, zone by zone.

    Attributes
    ----------
    zones:
        Zone id -> that zone's :class:`SessionReport`, in zone-id order.
    metrics:
        The gateway's own registry (``repro_gateway_*`` supervision and
        overload counters).
    handoffs:
        Every :class:`HandoffEvent`, in protocol execution order.
    summary:
        Site-level totals over the per-zone summaries.
    interim:
        Gateway-interim answers served on behalf of down zones
        (``estimator="gateway-interim"``, ``reason="zone_down"``), in
        serving order. Empty unless a zone went permanently down.
    """

    zones: Mapping[str, SessionReport]
    metrics: MetricsRegistry
    handoffs: tuple[HandoffEvent, ...] = ()
    summary: Mapping[str, float] = field(default_factory=dict)
    interim: tuple[ServiceResult, ...] = ()

    def witness_document(self) -> dict[str, Any]:
        """The multi-zone determinism witness, as JSON types.

        Per-zone witnesses under their zone ids plus the handoff trail —
        a seeded plan run twice (or crash-resumed) must produce a
        byte-identical ``json.dumps(..., sort_keys=True)`` of this
        document.

        Failover-only facts (reroutes, cache-sourced carries, interim
        answers) appear *conditionally* — a fault-free run's witness is
        byte-identical to the pre-failover format.
        """
        doc = {
            "zones": {
                zid: report.witness_document()
                for zid, report in self.zones.items()
            },
            "handoffs": [
                self._handoff_entry(h) for h in self.handoffs
            ],
            "n_zones": len(self.zones),
            "n_results": sum(
                len(r.results) for r in self.zones.values()
            ),
        }
        if self.interim:
            doc["interim"] = [
                result_witness_entry(r) for r in self.interim
            ]
            doc["n_interim"] = len(self.interim)
        return doc

    @staticmethod
    def _handoff_entry(h: HandoffEvent) -> dict[str, Any]:
        entry = {
            "t_rel_s": float(h.t_rel_s),
            "tag": h.tag,
            "from_zone": h.from_zone,
            "to_zone": h.to_zone,
            "position": [float(h.position[0]), float(h.position[1])],
            "carried_estimate": (
                None if h.carried_estimate is None
                else [
                    float(h.carried_estimate[0]),
                    float(h.carried_estimate[1]),
                ]
            ),
        }
        if h.rerouted_from is not None:
            entry["rerouted_from"] = h.rerouted_from
        if h.carried_source != "live":
            entry["carried_source"] = h.carried_source
        return entry

    def render_prometheus(self) -> str:
        """All zones' metrics plus the gateway's own block, concatenated.

        Zone metrics are already namespaced ``repro_zone_<id>_*`` (the
        ingest queue's ``..._ingest_records_dropped_total`` /
        ``..._ingest_records_shed_total`` included); the gateway's
        supervision/overload counters render under ``repro_gateway_*``
        so one scrape sees both layers without collisions.
        """
        blocks = [
            report.render_prometheus() for report in self.zones.values()
        ]
        blocks.append(self.metrics.render_prometheus())
        return "\n".join(blocks)


class ZoneGateway:
    """Runs a :class:`ZonePlan` as one site-wide localization service.

    Parameters
    ----------
    plan:
        The validated zone partition plus roaming tags.
    config:
        Service knobs applied to every zone (per-zone ``spec.vire``
        overrides still win inside each worker).
    fault_plan:
        The **site** fault plan; each zone injects its slice
        (:func:`~repro.zones.spec.slice_fault_plan` — ``"z1/reader-0"``
        targets zone ``z1`` only, unprefixed targets hit every zone).
    checkpoint_dir:
        Directory receiving one WAL file per zone (``<zone_id>.ckpt``).
    admission:
        Optional per-zone :class:`~repro.zones.failover.AdmissionPolicy`
        gating each zone's queries; ``None`` (default) admits every
        query. Supervision itself is not optional: gateway→worker calls
        are journaled and supervised, dead zones respawn from their
        checkpoints and zone-scoped chaos faults take effect.
    query_schedules:
        Open-loop arrival schedules per zone id (the load harness):
        each zone's ``(t_rel_s, tag_label)`` events replace its
        interval-driven query loop (see
        :meth:`ZoneWorker._submit_scheduled`). Zones absent from the
        mapping keep the interval behaviour.
    """

    def __init__(
        self,
        plan: ZonePlan,
        config: ServiceConfig | None = None,
        *,
        fault_plan=None,
        checkpoint_dir: str | None = None,
        admission: AdmissionPolicy | None = None,
        query_schedules: Mapping[str, Sequence[tuple[float, str]]]
        | None = None,
    ):
        if admission is not None and not isinstance(admission, AdmissionPolicy):
            raise ConfigurationError(
                "admission must be an AdmissionPolicy or None, got "
                f"{type(admission).__name__}"
            )
        self.plan = plan
        self.config = config or ServiceConfig()
        self.fault_plan = fault_plan
        self.checkpoint_dir = checkpoint_dir
        self.admission = admission
        self.query_schedules = (
            dict(query_schedules) if query_schedules is not None else None
        )
        if self.query_schedules is not None:
            known = {spec.zone_id for spec in plan.zones}
            unknown = sorted(set(self.query_schedules) - known)
            if unknown:
                raise ConfigurationError(
                    f"query_schedules name unknown zones {unknown}; "
                    f"the plan has {sorted(known)}"
                )
        self._logger = get_service_logger()

    # -- helpers ---------------------------------------------------------------

    def _checkpoint_path(self, zone_id: str) -> str | None:
        if self.checkpoint_dir is None:
            return None
        import os

        return os.path.join(self.checkpoint_dir, f"{zone_id}.ckpt")

    # -- the run ---------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        *,
        resume: bool = False,
        tracer: Tracer | None = None,
    ) -> MultiZoneReport:
        """Run every zone for ``duration_s`` simulated seconds.

        Workers are built and stepped in zone-id order on the gateway's
        relative clock (τ = k·step since query start, whatever each
        zone's per-seed warm-up length); every surface call is journaled
        through a :class:`~repro.zones.failover.ZoneChannel` and every
        step call supervised. Gateway spans are stamped with τ.
        ``resume=True`` resumes every zone from its checkpoint file in
        ``checkpoint_dir``.
        """
        if resume and self.checkpoint_dir is None:
            raise ConfigurationError("resume=True requires a checkpoint_dir")
        step = self.config.stream_step_s
        zones = sorted(self.plan.zones, key=lambda z: z.zone_id)
        wall_start = time.perf_counter()

        tau = 0.0
        if tracer is not None and tracer.clock is None:
            tracer.clock = lambda: tau
        scope = use_tracer(tracer) if tracer is not None else nullcontext()

        channels: dict[str, ZoneChannel] = {}
        owner: dict[str, str] = {}
        handoffs: list[HandoffEvent] = []
        interim: list[ServiceResult] = []
        interrupted = False
        down_ticks = 0
        zone_ticks = 0
        with scope:
            gateway_tracer = current_tracer()
            for spec in zones:
                channels[spec.zone_id] = ZoneChannel(
                    spec,
                    self.config,
                    admission=self.admission,
                    site_fault_plan=self.fault_plan,
                    roaming_tags={
                        tag.label: spec.clamp_local(tag.position_at(0.0))
                        for tag in self.plan.roaming
                    },
                    checkpoint_path=self._checkpoint_path(spec.zone_id),
                    resume=resume,
                    tracer=tracer,
                    query_schedule=(
                        self.query_schedules.get(spec.zone_id)
                        if self.query_schedules is not None else None
                    ),
                )
            log_event(
                self._logger, "gateway_start",
                zones=len(zones), duration=duration_s,
                roaming=len(self.plan.roaming),
            )
            try:
                for channel in channels.values():
                    channel.start(duration_s)

                # Initial routing, journaled against the first chunk.
                for tag in sorted(self.plan.roaming, key=lambda t: t.label):
                    gpos = tag.position_at(0.0)
                    spec = self.plan.detect_zone(gpos)
                    owner[tag.label] = spec.zone_id
                    channel = channels[spec.zone_id]
                    channel.enqueue(
                        1, "move", tag.label, spec.clamp_local(gpos)
                    )
                    channel.enqueue(1, "activate", tag.label)
                    gateway_tracer.event(
                        "gateway.route",
                        tag=tag.label, zone=spec.zone_id,
                        x=float(gpos[0]), y=float(gpos[1]),
                    )

                k = 0
                exhausted = False
                while not exhausted:
                    k += 1
                    tau += step
                    for tag in sorted(
                        self.plan.roaming, key=lambda t: t.label
                    ):
                        self._route_tag_failover(
                            tag, k, tau, owner, channels, handoffs,
                            gateway_tracer,
                        )
                    for channel in channels.values():
                        served = channel.advance_to(k, tau)
                        if served is None:
                            exhausted = True
                    for channel in channels.values():
                        zone_ticks += 1
                        if channel.down:
                            down_ticks += 1
                            interim.extend(channel.interim_results(tau))
                    if (
                        all(c.down for c in channels.values())
                        and tau >= duration_s
                    ):
                        # No live zone left to exhaust the stream; the
                        # interim clock alone bounds the session.
                        exhausted = True
            except KeyboardInterrupt:
                interrupted = True
                for channel in channels.values():
                    channel.interrupt()
                log_event(
                    self._logger, "gateway_interrupted",
                    tau=tau, zones=len(zones),
                )
            reports = {
                zid: channels[zid].finish() for zid in sorted(channels)
            }
        wall_s = time.perf_counter() - wall_start
        availability = (
            1.0 if zone_ticks == 0
            else 1.0 - (down_ticks / zone_ticks)
        )
        return self._assemble(
            reports, tuple(handoffs), wall_s, channels,
            interrupted=interrupted,
            interim=tuple(interim),
            availability=availability,
        )

    def _route_tag_failover(
        self,
        tag: RoamingTag,
        k: int,
        tau: float,
        owner: dict[str, str],
        channels: dict[str, ZoneChannel],
        handoffs: list[HandoffEvent],
        gateway_tracer,
    ) -> None:
        """Ownership at τ under failover: shedding-aware, never silent.

        Proximity still nominates the owner (:meth:`ZonePlan.rank_zones`
        — its first entry is exactly :meth:`ZonePlan.detect_zone`), but
        a handoff only lands on a zone that accepts it: down and
        slow zones are skipped in rank order (cross-zone load
        shedding), the current owner is always an acceptable fallback,
        and a tag stranded in a permanently-down zone is explicitly
        rerouted to the nearest live neighbour with its last-known
        estimate carried from the gateway's cache.
        """
        gpos = tag.position_at(tau)
        old_id = owner[tag.label]
        old_ch = channels[old_id]
        ranked = self.plan.rank_zones(gpos)
        preferred = ranked[0]
        rerouted_from: str | None = None
        if preferred.zone_id == old_id and not old_ch.down:
            # Staying put. A slow zone sheds *handoffs*, never evicts.
            target = preferred
        else:
            target: ZoneSpec | None = None
            for spec in ranked:
                if spec.zone_id == old_id and not old_ch.down:
                    target = spec  # keeping the current owner is free
                    break
                if channels[spec.zone_id].accepts_handoffs(tau):
                    target = spec
                    break
            if target is None:
                # Every zone is down or shedding: ownership cannot move.
                return
            if target.zone_id != preferred.zone_id:
                rerouted_from = preferred.zone_id

        new_id = target.zone_id
        if new_id == old_id:
            old_ch.enqueue(k, "move", tag.label, target.clamp_local(gpos))
            return
        new_ch = channels[new_id]
        with gateway_tracer.span(
            "gateway.handoff",
            tag=tag.label, t_rel_s=float(tau),
            from_zone=old_id, to_zone=new_id,
        ) as span:
            old_ch.enqueue(k, "deactivate", tag.label)
            carried_global = old_ch.last_estimate_site(tag.label)
            carried_source = (
                "cache" if (old_ch.down and carried_global is not None)
                else "live"
            )
            new_ch.enqueue(k, "move", tag.label, target.clamp_local(gpos))
            if carried_global is not None:
                new_ch.enqueue(
                    k, "transfer", tag.label, target.to_local(carried_global)
                )
            new_ch.enqueue(k, "activate", tag.label)
            span.set("carried", carried_global is not None)
            if rerouted_from is not None:
                span.set("rerouted_from", rerouted_from)
        old_ch.drop_interim_tag(tag.label)
        owner[tag.label] = new_id
        handoffs.append(
            HandoffEvent(
                t_rel_s=float(tau),
                tag=tag.label,
                from_zone=old_id,
                to_zone=new_id,
                position=(float(gpos[0]), float(gpos[1])),
                carried_estimate=carried_global,
                rerouted_from=rerouted_from,
                carried_source=carried_source,
            )
        )
        log_event(
            self._logger, "gateway_handoff",
            tag=tag.label, tau=tau,
            from_zone=old_id, to_zone=new_id,
            carried=carried_global is not None,
            rerouted=rerouted_from is not None,
        )

    # -- aggregation ---------------------------------------------------------------

    def _assemble(
        self,
        reports: Mapping[str, SessionReport],
        handoffs: tuple[HandoffEvent, ...],
        wall_s: float,
        channels: Mapping[str, ZoneChannel],
        *,
        interrupted: bool,
        interim: tuple[ServiceResult, ...],
        availability: float,
    ) -> MultiZoneReport:
        totals = {
            "zones": float(len(reports)),
            "handoffs": float(len(handoffs)),
            "wall_time_s": wall_s,
        }
        for key in (
            "requests", "results", "failed", "degraded",
            "records_streamed", "checkpoint_snapshots",
        ):
            total = sum(
                float(r.summary.get(key, 0.0)) for r in reports.values()
            )
            totals[key] = total
        totals["localizations_per_s"] = (
            totals["results"] / wall_s if wall_s > 0 else float("inf")
        )
        if interrupted:
            totals["interrupted"] = 1.0
        metrics = self._gateway_metrics(
            channels, handoffs, interim, totals, availability
        )
        log_event(
            self._logger, "gateway_end",
            zones=len(reports), results=totals["results"],
            handoffs=len(handoffs), wall_s=wall_s,
            interrupted=interrupted,
        )
        return MultiZoneReport(
            zones={zid: reports[zid] for zid in sorted(reports)},
            handoffs=handoffs,
            summary=totals,
            interim=interim,
            metrics=metrics,
        )

    def _gateway_metrics(
        self,
        channels: Mapping[str, ZoneChannel],
        handoffs: tuple[HandoffEvent, ...],
        interim: tuple[ServiceResult, ...],
        totals: dict[str, float],
        availability: float,
    ) -> MetricsRegistry:
        """Fold per-channel supervision counters into gateway totals.

        Populates both the summary dict (``zone_crashes`` …) and a
        gateway-namespaced :class:`MetricsRegistry` whose samples render
        alongside the per-zone blocks in
        :meth:`MultiZoneReport.render_prometheus`.
        """
        agg = {
            "crashes": 0, "respawns": 0, "timeouts": 0, "retries": 0,
            "link_failures": 0, "slow_ticks": 0, "down": 0,
            "admission_shed": 0,
        }
        for zid in sorted(channels):
            counters = channels[zid].counters()
            for key in agg:
                agg[key] += counters[key]
        rerouted = sum(
            1 for h in handoffs if h.rerouted_from is not None
        )
        totals["zone_crashes"] = float(agg["crashes"])
        totals["zone_respawns"] = float(agg["respawns"])
        totals["zone_timeouts"] = float(agg["timeouts"])
        totals["zone_retries"] = float(agg["retries"])
        totals["zone_link_failures"] = float(agg["link_failures"])
        totals["zone_slow_ticks"] = float(agg["slow_ticks"])
        totals["zones_down"] = float(agg["down"])
        totals["requests_shed"] = float(agg["admission_shed"])
        totals["handoffs_rerouted"] = float(rerouted)
        totals["interim_results"] = float(len(interim))
        totals["availability"] = float(availability)

        metrics = MetricsRegistry(namespace="repro_gateway")
        for name, help_text, value in (
            ("zone_crashes_total",
             "Zone worker crashes observed by the gateway",
             agg["crashes"]),
            ("zone_respawns_total",
             "Zone workers respawned from their zone-identity checkpoint",
             agg["respawns"]),
            ("zone_timeouts_total",
             "Gateway-to-zone calls that exceeded the request deadline",
             agg["timeouts"]),
            ("zone_retries_total",
             "Gateway-to-zone call retries",
             agg["retries"]),
            ("zone_link_failures_total",
             "Gateway-to-zone calls lost to link faults",
             agg["link_failures"]),
            ("requests_shed_total",
             "Localization queries shed by zone admission control",
             agg["admission_shed"]),
            ("handoffs_rerouted_total",
             "Roaming-tag handoffs rerouted away from their nearest zone",
             rerouted),
            ("interim_results_total",
             "Degraded interim answers served while a zone was down",
             len(interim)),
        ):
            counter = metrics.counter(name, help_text)
            if value:
                counter.inc(float(value))
        metrics.gauge(
            "zones_down",
            "Zones still marked down when the session ended",
        ).set(float(agg["down"]))
        metrics.gauge(
            "availability",
            "Fraction of zone-ticks served by a live zone worker",
        ).set(float(availability))
        return metrics

