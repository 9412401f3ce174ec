"""Figure registry: name → generator function → artifact.

Every capacity/accuracy figure of the load-test report is a **pure
function of sweep-point documents** (the JSONL that ``repro loadtest``
writes), registered here under a stable name with a stable artifact
filename. ``repro report --from <dir>`` regenerates all of them — or
any single one with ``--figure <name>`` — from the JSONL alone, so a
figure is always reproducible in isolation, long after the run that
produced its inputs.

Input documents are :meth:`LoadTestReport.witness_document` dicts (one
sweep point per JSONL line). Builders only read the documents — never
the machines that made them — which is what makes the registry safe to
run against archived artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..loadtest.capacity import fit_capacity_model

__all__ = [
    "FigureSpec",
    "register_figure",
    "figure_names",
    "get_figure",
    "build_figure",
    "build_capacity_report",
    "load_sweep",
    "SWEEP_FILENAME",
]

#: Filename of the sweep JSONL inside a loadtest output directory.
SWEEP_FILENAME = "load_sweep.jsonl"

Builder = Callable[[Sequence[Mapping[str, Any]]], dict]


@dataclass(frozen=True)
class FigureSpec:
    """One registered figure: identity, artifact name and builder."""

    name: str
    description: str
    artifact: str
    builder: Builder


_REGISTRY: dict[str, FigureSpec] = {}


def register_figure(
    name: str, description: str
) -> Callable[[Builder], Builder]:
    """Decorator registering ``fn`` as the builder of figure ``name``.

    The artifact filename is derived (``report_<name>.json``) so the
    name alone identifies both the figure and its on-disk form.
    """

    def deco(fn: Builder) -> Builder:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"figure {name!r} is already registered"
            )
        _REGISTRY[name] = FigureSpec(
            name=name,
            description=description,
            artifact=f"report_{name}.json",
            builder=fn,
        )
        return fn

    return deco


def figure_names() -> tuple[str, ...]:
    """Registered figure names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_figure(name: str) -> FigureSpec:
    """Look up one figure spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {name!r}; registered: {list(figure_names())}"
        ) from None


def build_figure(
    name: str, points: Sequence[Mapping[str, Any]]
) -> dict:
    """Regenerate one figure document from sweep points."""
    spec = get_figure(name)
    return {
        "figure": spec.name,
        "description": spec.description,
        "data": spec.builder(points),
    }


def build_capacity_report(
    points: Sequence[Mapping[str, Any]],
    *,
    meta: Mapping[str, Any] | None = None,
) -> dict:
    """The full canonical capacity report: every figure, one document."""
    if not points:
        raise ConfigurationError(
            "capacity report needs at least one sweep point"
        )
    return {
        "meta": dict(meta or {}),
        "n_points": len(points),
        "figures": {
            name: build_figure(name, points) for name in figure_names()
        },
    }


def load_sweep(directory: str | Path) -> list[dict]:
    """Read the sweep JSONL a ``repro loadtest`` run wrote."""
    path = Path(directory) / SWEEP_FILENAME
    if not path.exists():
        raise ConfigurationError(
            f"no {SWEEP_FILENAME} in {directory!r} — run "
            "`python -m repro loadtest --out <dir>` first"
        )
    points = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                points.append(json.loads(line))
    if not points:
        raise ConfigurationError(f"{path} holds no sweep points")
    return points


# -- the figures -------------------------------------------------------------


def _point_label(point: Mapping[str, Any]) -> str:
    return str(point.get("profile", {}).get("name", "?"))


def _capacity(point: Mapping[str, Any]) -> Mapping[str, Any]:
    return point.get("capacity_point", {})


@register_figure(
    "capacity_throughput",
    "Sustained localizations/s vs offered rate (saturation curve)",
)
def _fig_capacity_throughput(points) -> dict:
    series = [
        {
            "profile": _point_label(p),
            "offered_rate_per_s": _capacity(p).get("offered_rate_per_s"),
            "sustained_per_s": _capacity(p).get("sustained_per_s"),
            "availability": _capacity(p).get("availability"),
        }
        for p in points
    ]
    series.sort(key=lambda s: (s["offered_rate_per_s"] or 0.0, s["profile"]))
    sustained = [
        s["sustained_per_s"] for s in series
        if s["sustained_per_s"] is not None
    ]
    return {
        "series": series,
        "peak_sustained_per_s": max(sustained) if sustained else None,
    }


@register_figure(
    "latency_percentiles",
    "Sim-clock queue-wait p50/p95/p99 per sweep point",
)
def _fig_latency_percentiles(points) -> dict:
    series = []
    for p in points:
        latency = p.get("slo", {}).get("latency", {})
        series.append(
            {
                "profile": _point_label(p),
                "offered_rate_per_s": _capacity(p).get(
                    "offered_rate_per_s"
                ),
                "p50_s": latency.get("p50_s"),
                "p95_s": latency.get("p95_s"),
                "p99_s": latency.get("p99_s"),
                "max_s": latency.get("max_s"),
            }
        )
    series.sort(key=lambda s: (s["offered_rate_per_s"] or 0.0, s["profile"]))
    return {"series": series}


@register_figure(
    "shed_breakdown",
    "Overload accounting: admission sheds, queue drops, ladder levels",
)
def _fig_shed_breakdown(points) -> dict:
    series = []
    for p in points:
        slo = p.get("slo", {})
        zones = p.get("zones", {})
        series.append(
            {
                "profile": _point_label(p),
                "offered": p.get("offered"),
                "served": p.get("served"),
                "admission": dict(p.get("admission", {})),
                "records_dropped": sum(
                    z.get("records_dropped", 0) for z in zones.values()
                ),
                "records_shed": sum(
                    z.get("records_shed", 0) for z in zones.values()
                ),
                "levels": dict(slo.get("levels", {})),
                "reasons": dict(slo.get("reasons", {})),
            }
        )
    series.sort(key=lambda s: (s["offered"] or 0, s["profile"]))
    return {"series": series}


@register_figure(
    "accuracy_vs_density",
    "Mean localization error vs offered query density "
    "(the VIRE-under-load axis)",
)
def _fig_accuracy_vs_density(points) -> dict:
    series = [
        {
            "profile": _point_label(p),
            "offered_rate_per_s": _capacity(p).get("offered_rate_per_s"),
            "mean_error_m": _capacity(p).get("mean_error_m"),
            "degraded_fraction": _capacity(p).get("degraded_fraction"),
            "n_zones": _capacity(p).get("n_zones"),
        }
        for p in points
    ]
    series.sort(key=lambda s: (s["offered_rate_per_s"] or 0.0, s["profile"]))
    return {"series": series}


@register_figure(
    "capacity_model",
    "Least-squares capacity model over the sweep "
    "(localizations/s vs batch size, ladder, zones)",
)
def _fig_capacity_model(points) -> dict:
    model = fit_capacity_model([_capacity(p) for p in points])
    return model.canonical_document()
