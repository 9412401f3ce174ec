"""SLO analysis: latency percentiles, ladder breakdowns, availability.

Three input surfaces, one vocabulary:

* **served results** (:class:`repro.service.pipeline.ServiceResult`) —
  the primary, fully deterministic surface: queue-wait latency is
  sim-clock (``completed_at_s - requested_at_s``), so every percentile
  here is a pure function of the seed;
* **metrics registries** (:class:`repro.service.metrics.MetricsRegistry`)
  — Prometheus-style histograms summarized with within-bucket linear
  interpolation (:meth:`~repro.service.metrics.Histogram.bucket_quantile`),
  matching what a real scrape-side ``histogram_quantile`` would report;
* **obs traces** (span-forest JSONL documents) — per-stage wall-clock
  statistics and the ladder decision accounting, delegated to
  :mod:`repro.obs.profile`.

Ladder levels follow the service's degradation ladder (see
docs/SERVICE.md), with level 0 for gateway-interim answers served
*below* the ladder while a zone is down.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from ..obs.profile import ladder_breakdown, quantile_linear, stage_statistics
from ..service.metrics import Histogram, MetricsRegistry
from ..service.pipeline import ServiceResult

__all__ = [
    "LEVEL_NAMES",
    "result_level",
    "slo_summary",
    "metrics_slo",
    "trace_slo",
]

#: Human names of the degradation ladder levels (0 = below the ladder:
#: the gateway answered from a cached estimate while the zone was down).
LEVEL_NAMES = {
    0: "gateway_interim",
    1: "full_vire",
    2: "subset_vire",
    3: "landmarc",
    4: "last_known",
}

#: Default SLO percentiles.
SLO_QUANTILES = (0.50, 0.95, 0.99)


def result_level(result: ServiceResult) -> int:
    """Ladder level of one served result (0 = gateway-interim)."""
    estimator = result.estimator
    if estimator == "gateway-interim":
        return 0
    if estimator == "last-known":
        return 4
    if estimator == "LANDMARC":
        return 3
    if result.degraded:
        return 2
    return 1


def _latency_doc(
    waits: Sequence[float], quantiles: Sequence[float]
) -> dict[str, float]:
    doc = {
        f"p{int(q * 100)}_s": quantile_linear(waits, q) for q in quantiles
    }
    doc["max_s"] = max(waits) if waits else math.nan
    doc["mean_s"] = (sum(waits) / len(waits)) if waits else math.nan
    return doc


def slo_summary(
    results: Iterable[ServiceResult],
    *,
    offered: int,
    duration_s: float,
    quantiles: Sequence[float] = SLO_QUANTILES,
) -> dict[str, Any]:
    """The deterministic SLO document of one load-test run.

    ``offered`` is the open-loop arrival count — availability is served
    answers over *offered* arrivals, so admission sheds and failures
    both count against it (an SLO hides nothing the generator sent).
    Latency is sim-clock queue wait: the time a query spent between
    submission and batch execution, the quantity open-loop load testing
    exists to expose.
    """
    results = list(results)
    levels: dict[str, int] = {}
    reasons: dict[str, int] = {}
    estimators: dict[str, int] = {}
    degraded = 0
    for result in results:
        level = result_level(result)
        key = LEVEL_NAMES.get(level, str(level))
        levels[key] = levels.get(key, 0) + 1
        if result.degraded:
            degraded += 1
        if result.reason is not None:
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
        estimators[result.estimator] = (
            estimators.get(result.estimator, 0) + 1
        )
    waits = [r.queue_wait_s for r in results]
    served = len(results)
    return {
        "offered": int(offered),
        "served": served,
        "availability": (served / offered) if offered else math.nan,
        "sustained_per_s": served / duration_s if duration_s > 0 else math.nan,
        "degraded": degraded,
        "degraded_fraction": (degraded / served) if served else 0.0,
        "levels": {k: levels[k] for k in sorted(levels)},
        "reasons": {k: reasons[k] for k in sorted(reasons)},
        "estimators": {k: estimators[k] for k in sorted(estimators)},
        "latency": _latency_doc(waits, quantiles),
    }


def metrics_slo(
    registry: MetricsRegistry,
    *,
    quantiles: Sequence[float] = SLO_QUANTILES,
) -> dict[str, dict[str, float]]:
    """Interpolated percentiles of every histogram in ``registry``.

    Uses the bucket counts (not the raw samples), i.e. exactly the
    information a Prometheus scrape would carry — this is what a
    dashboard's ``histogram_quantile`` sees, interpolation included.
    """
    out: dict[str, dict[str, float]] = {}
    for name, metric in sorted(registry.metrics().items()):
        if not isinstance(metric, Histogram):
            continue
        doc = {
            f"p{int(q * 100)}": metric.bucket_quantile(q) for q in quantiles
        }
        doc["count"] = float(metric.count)
        doc["sum"] = metric.sum
        out[name] = doc
    return out


def trace_slo(
    docs: Sequence[Mapping[str, Any]],
    *,
    quantiles: Sequence[float] = SLO_QUANTILES,  # noqa: ARG001 - fixed set
) -> dict[str, Any]:
    """Per-stage latency + ladder accounting from a span forest.

    Thin composition over :mod:`repro.obs.profile` so trace JSONL files
    recorded by ``repro trace record`` feed the same report pipeline as
    live runs.
    """
    stages = {
        name: {
            "count": stats.count,
            "total_s": stats.total_s,
            "p50_s": stats.p50_s,
            "p95_s": stats.p95_s,
            "p99_s": stats.p99_s,
            "max_s": stats.max_s,
        }
        for name, stats in sorted(stage_statistics(docs).items())
    }
    return {"stages": stages, "ladder": ladder_breakdown(docs)}
