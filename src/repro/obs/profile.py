"""Per-stage profiling over recorded span forests.

Turns a trace (the span documents of :mod:`repro.obs.trace_file`) into
the numbers an operator actually wants:

* **stage table** — for every span name: call count, total wall time,
  p50/p95/p99 latency, and share of the total *self* time (a span's
  self time excludes its children, so the table attributes every
  millisecond exactly once instead of double-counting parents);
* **ladder breakdown** — how the service's degradation ladder decided:
  requests per ladder level (full VIRE / subset VIRE / LANDMARC /
  last-known) and degradation reasons.

All of it is computed from the trace file alone — ``repro trace
summary`` needs no live session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..utils.ascii import format_table

__all__ = [
    "quantile_linear",
    "StageStats",
    "stage_statistics",
    "ladder_breakdown",
    "format_stage_table",
    "format_summary",
]

#: Span name of the per-request serving decision (see service.pipeline).
SERVE_SPAN = "service.serve"


@dataclass(frozen=True)
class StageStats:
    """Latency statistics of one span name across a trace."""

    name: str
    count: int
    total_s: float
    self_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else math.nan


def quantile_linear(values: Iterable[float], q: float) -> float:
    """Quantile with linear interpolation between order statistics.

    The standard "type 7" estimator: ``q`` maps to the fractional
    position ``q * (n - 1)`` and the two straddling samples are blended.
    Nearest-rank snapping is visibly wrong on sparse tails (a p99 over
    20 samples just returns the max). NaN on empty input. Shared by the
    stage table here and the SLO percentiles of
    :mod:`repro.loadtest.slo`.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _walk(doc: Mapping[str, Any]):
    yield doc
    for child in doc.get("children", ()):
        yield from _walk(child)


def stage_statistics(
    docs: Iterable[Mapping[str, Any]]
) -> dict[str, StageStats]:
    """Aggregate wall-clock latency per span name over a span forest.

    Traces recorded without wall annotation (or logically canonicalized
    ones) produce zero-latency rows — counts and tree structure still
    summarize.
    """
    samples: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for root in docs:
        for span in _walk(root):
            name = str(span.get("name", "?"))
            wall = float(span.get("wall_s", 0.0) or 0.0)
            child_wall = sum(
                float(c.get("wall_s", 0.0) or 0.0)
                for c in span.get("children", ())
            )
            samples.setdefault(name, []).append(wall)
            self_time[name] = self_time.get(name, 0.0) + max(
                0.0, wall - child_wall
            )
    out: dict[str, StageStats] = {}
    for name, values in samples.items():
        out[name] = StageStats(
            name=name,
            count=len(values),
            total_s=sum(values),
            self_s=self_time.get(name, 0.0),
            p50_s=quantile_linear(values, 0.50),
            p95_s=quantile_linear(values, 0.95),
            p99_s=quantile_linear(values, 0.99),
            max_s=max(values),
        )
    return out


def ladder_breakdown(docs: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Decision accounting: ladder levels and reasons.

    Reads the ``service.serve`` spans' ``level``/``reason``/``estimator``
    attributes. Empty when the trace holds no service spans (e.g. a
    scalar-estimator trace).
    """
    levels: dict[str, int] = {}
    reasons: dict[str, int] = {}
    estimators: dict[str, int] = {}
    serves = 0
    for root in docs:
        for span in _walk(root):
            name = span.get("name")
            attrs = span.get("attrs", {})
            if name == SERVE_SPAN:
                serves += 1
                level = str(attrs.get("level", "?"))
                levels[level] = levels.get(level, 0) + 1
                reason = attrs.get("reason")
                if reason is not None:
                    reasons[str(reason)] = reasons.get(str(reason), 0) + 1
                est = attrs.get("estimator")
                if est is not None:
                    estimators[str(est)] = estimators.get(str(est), 0) + 1
    return {
        "serves": serves,
        "levels": {k: levels[k] for k in sorted(levels)},
        "reasons": {k: reasons[k] for k in sorted(reasons)},
        "estimators": {k: estimators[k] for k in sorted(estimators)},
    }


def format_stage_table(
    stats: Mapping[str, StageStats], *, top: int = 10
) -> str:
    """The top-N stages by *self* time, as a fixed-width table."""
    ranked = sorted(stats.values(), key=lambda s: (-s.self_s, s.name))[:top]
    total_self = sum(s.self_s for s in stats.values()) or math.nan
    rows = [
        [
            s.name,
            s.count,
            f"{1e3 * s.self_s:.2f}",
            f"{100 * s.self_s / total_self:.1f}%" if total_self else "-",
            f"{1e3 * s.p50_s:.3f}",
            f"{1e3 * s.p95_s:.3f}",
            f"{1e3 * s.p99_s:.3f}",
        ]
        for s in ranked
    ]
    return format_table(
        ["stage", "count", "self ms", "share", "p50 ms", "p95 ms", "p99 ms"],
        rows,
        title=f"top {len(ranked)} stages by self time",
    )


def format_summary(
    header: Mapping[str, Any],
    docs: list[Mapping[str, Any]],
    *,
    top: int = 10,
) -> str:
    """The full ``repro trace summary`` rendering."""
    stats = stage_statistics(docs)
    ladder = ladder_breakdown(docs)
    n_spans = sum(1 for root in docs for _ in _walk(root))
    meta = ", ".join(
        f"{k}={header[k]}"
        for k in ("env", "seed", "duration_s")
        if k in header
    )
    lines = [
        f"trace: {len(docs)} root spans, {n_spans} total"
        + (f" ({meta})" if meta else ""),
        "",
        format_stage_table(stats, top=top),
    ]
    if ladder["serves"]:
        lines += [
            "",
            f"ladder breakdown over {ladder['serves']} served requests:",
        ]
        level_names = {
            "1": "full VIRE",
            "2": "subset VIRE",
            "3": "LANDMARC fallback",
            "4": "last-known",
        }
        for level, count in ladder["levels"].items():
            label = level_names.get(level, f"level {level}")
            lines.append(f"  level {level} ({label:17s}) {count}")
        if ladder["reasons"]:
            reasons = ", ".join(
                f"{k}={v}" for k, v in ladder["reasons"].items()
            )
            lines.append(f"  degradation reasons: {reasons}")
    return "\n".join(lines)
