"""The open-loop load harness: drive zones from an arrival schedule.

:func:`run_load_test` materializes a profile's
:class:`~repro.loadtest.profiles.ArrivalSchedule` and replays it against
real serving machinery: every profile drives a
:class:`~repro.zones.gateway.ZoneGateway` over ``n_zones`` zones (a lone
zone's :class:`~repro.zones.worker.ZoneWorker` *is* the unzoned
:class:`~repro.service.pipeline.ServicePipeline` driven with session
semantics). The schedule, not the service, decides when queries arrive:
a saturated pipeline accumulates sim-clock queue wait, ages requests
past their deadline and descends the degradation ladder, all of it
deterministic and therefore assertable.

Every number in :meth:`LoadTestReport.witness_document` is sim-clock or
a counter — wall-clock time lives in the separate
:attr:`LoadTestReport.wall_s` field so the witness stays
byte-identical across same-seed runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..service.pipeline import ServiceConfig, ServiceResult
from ..zones.failover import AdmissionPolicy
from ..zones.gateway import ZoneGateway
from ..zones.spec import scaled_site_plan
from .profiles import ArrivalSchedule, LoadProfile, generate_schedule
from .slo import slo_summary

__all__ = ["LoadTestReport", "run_load_test"]

#: Session-summary keys that are pure functions of the seed (counters
#: and sim-clock facts only; anything wall-clock is excluded).
_ZONE_WITNESS_COUNTERS = (
    "requests",
    "results",
    "failed",
    "degraded",
    "records_streamed",
    "records_dropped",
    "records_shed",
    "queue_high_watermark",
    "batches_flushed",
    "frames_received",
    "frames_dropped",
)


def _round9(obj: Any) -> Any:
    """Canonicalize a JSON-ready tree: floats to 9 decimals, no NaN.

    Non-finite floats become ``None`` so canonical documents stay valid
    strict JSON and golden comparisons never hit ``nan != nan``.
    """
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 9) if math.isfinite(obj) else None
    return obj


def _zone_witness(summary: Mapping[str, float], metrics) -> dict[str, Any]:
    """The deterministic slice of one zone's session summary."""
    doc: dict[str, Any] = {
        key: int(summary[key])
        for key in _ZONE_WITNESS_COUNTERS
        if key in summary
    }
    for name, key in (
        ("admission_requests_admitted_total", "admission_admitted"),
        ("admission_requests_shed_total", "admission_shed"),
    ):
        if metrics is not None and name in metrics:
            doc[key] = int(metrics.get(name).value)
    return doc


@dataclass(frozen=True)
class LoadTestReport:
    """Everything one load-test run produced.

    ``results`` are the zones' served answers (interim gateway answers
    for down zones are kept apart in ``interim``); ``slo`` is the
    deterministic SLO document (:func:`repro.loadtest.slo.slo_summary`);
    ``zones`` maps zone id to its deterministic counter slice.
    """

    profile: LoadProfile
    schedule: ArrivalSchedule
    results: tuple[ServiceResult, ...]
    interim: tuple[ServiceResult, ...]
    slo: Mapping[str, Any]
    zones: Mapping[str, Mapping[str, Any]]
    errors_m: tuple[float, ...]
    admission: Mapping[str, int]
    wall_s: float
    gateway_summary: Mapping[str, float]
    #: The gateway's ``repro_gateway_*`` registry; diagnostics surface,
    #: never part of the witness.
    gateway_metrics: Any = field(compare=False)
    #: Zone id → live ``repro_zone_<id>_*`` registry; diagnostics only.
    zone_metrics: Mapping[str, Any] = field(
        default_factory=dict, compare=False
    )

    @property
    def offered(self) -> int:
        return len(self.schedule)

    @property
    def served(self) -> int:
        return len(self.results)

    @property
    def mean_error_m(self) -> float:
        """Mean localization error over every answer with known truth."""
        if not self.errors_m:
            return math.nan
        return float(sum(self.errors_m) / len(self.errors_m))

    def capacity_point(self) -> dict[str, float]:
        """This run as one sweep point of the capacity model."""
        requests = sum(z.get("requests", 0) for z in self.zones.values())
        batches = sum(
            z.get("batches_flushed", 0) for z in self.zones.values()
        )
        slo = self.slo
        return {
            "offered_rate_per_s": self.offered / self.profile.duration_s,
            "sustained_per_s": slo["sustained_per_s"],
            "batch_size_mean": requests / batches if batches else 0.0,
            "degraded_fraction": slo["degraded_fraction"],
            "n_zones": float(self.profile.n_zones),
            "availability": slo["availability"],
            "latency_p99_s": slo["latency"]["p99_s"],
            "mean_error_m": self.mean_error_m,
        }

    def witness_document(self) -> dict[str, Any]:
        """The run's determinism witness: sim-clock facts only.

        Byte-identical (as ``json.dumps(..., sort_keys=True)``) across
        two same-seed runs — the acceptance gate of the whole harness.
        """
        doc = {
            "profile": self.profile.canonical_document(),
            "schedule_digest": self.schedule.digest(),
            "offered": self.offered,
            "served": self.served,
            "interim_served": len(self.interim),
            "admission": dict(self.admission),
            "slo": dict(self.slo),
            "zones": {zid: dict(z) for zid, z in self.zones.items()},
            "capacity_point": self.capacity_point(),
        }
        return _round9(doc)


def _service_config(
    profile: LoadProfile, config: ServiceConfig | None
) -> ServiceConfig:
    config = config or ServiceConfig()
    if profile.max_batches_per_tick is not None:
        config = config.with_(
            max_batches_per_tick=profile.max_batches_per_tick
        )
    return config


def run_load_test(
    profile: LoadProfile,
    *,
    config: ServiceConfig | None = None,
) -> LoadTestReport:
    """Run one open-loop load test and return its report.

    ``config`` overrides the service knobs (tests pass a cheap
    ``VIREConfig(subdivisions=5)`` world); the profile's
    ``max_batches_per_tick`` is stamped onto whatever config is used,
    so the profile alone defines the executor budget of a sweep point.
    """
    schedule = generate_schedule(profile)
    plan = scaled_site_plan(
        profile.environment, profile.n_zones, seed=profile.seed
    )
    admission = None
    if profile.admission_rate_per_s is not None:
        admission = AdmissionPolicy(
            rate_per_s=profile.admission_rate_per_s,
            burst=profile.admission_burst,
        )
    gateway = ZoneGateway(
        plan,
        _service_config(profile, config),
        admission=admission,
        query_schedules={
            spec.zone_id: schedule.for_zone(spec.zone_id)
            for spec in plan.zones
        },
    )
    t0 = time.perf_counter()
    multi = gateway.run(profile.duration_s)
    wall_s = time.perf_counter() - t0
    results: list[ServiceResult] = []
    zones: dict[str, dict[str, Any]] = {}
    zone_metrics: dict[str, Any] = {}
    errors: list[float] = []
    admitted = 0
    shed = 0
    for zone_id in sorted(multi.zones):
        report = multi.zones[zone_id]
        results.extend(report.results)
        zones[zone_id] = _zone_witness(report.summary, report.metrics)
        zone_metrics[zone_id] = report.metrics
        errors.extend(float(e) for e in report.errors_m)
        admitted += zones[zone_id].get(
            "admission_admitted", zones[zone_id].get("requests", 0)
        )
        shed += zones[zone_id].get("admission_shed", 0)
    return LoadTestReport(
        profile=profile,
        schedule=schedule,
        results=tuple(results),
        interim=tuple(multi.interim),
        slo=slo_summary(
            results,
            offered=len(schedule),
            duration_s=profile.duration_s,
        ),
        zones=zones,
        errors_m=tuple(errors),
        admission={"admitted": admitted, "shed": shed},
        wall_s=wall_s,
        gateway_summary=dict(multi.summary),
        gateway_metrics=multi.metrics,
        zone_metrics=zone_metrics,
    )
