"""SLO analysis: latency percentiles, ladder breakdowns, availability.

The one input surface is the served results
(:class:`repro.service.pipeline.ServiceResult`). Queue-wait latency is
sim-clock (``completed_at_s - requested_at_s``), so every percentile
here is a pure function of the seed. Per-stage wall-clock statistics of
a recorded trace come from :mod:`repro.obs.profile` (``repro trace
summary``).

Ladder levels follow the service's degradation ladder (see
docs/SERVICE.md), with level 0 for gateway-interim answers served
*below* the ladder while a zone is down.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from ..obs.profile import quantile_linear
from ..service.pipeline import ServiceResult

__all__ = [
    "LEVEL_NAMES",
    "result_level",
    "slo_summary",
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

#: The SLO percentiles.
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


def _latency_doc(waits: Sequence[float]) -> dict[str, float]:
    doc = {
        f"p{int(q * 100)}_s": quantile_linear(waits, q) for q in SLO_QUANTILES
    }
    doc["max_s"] = max(waits) if waits else math.nan
    doc["mean_s"] = (sum(waits) / len(waits)) if waits else math.nan
    return doc


def slo_summary(
    results: Iterable[ServiceResult],
    *,
    offered: int,
    duration_s: float,
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
        "latency": _latency_doc(waits),
    }
