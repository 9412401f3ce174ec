"""Service metrics: counters, read gauges, fixed-bucket latency histograms.

The streaming service is the first part of the codebase that runs as an
*online* system, so it is the first part that needs observability. This
module provides the Prometheus primitive types the pipeline needs —
pushed :class:`Counter` and :class:`Histogram`, and :class:`ReadMetric`
counters and gauges read from the component that owns the fact —
collected in a :class:`MetricsRegistry` that renders the standard text
exposition format (``# HELP`` / ``# TYPE`` / samples). Events are
recorded as trace spans and component event trails, not as log lines.

Design notes
------------
* Histograms keep both fixed cumulative buckets (for the exposition
  format) and the raw samples (for exact quantiles in reports and
  tests). At service scale — thousands of localizations per session —
  the raw samples are cheap.
* Each fact is counted once: a component keeps its own counter
  (``queue.dropped``, ...) and the registry's owner registers a
  :class:`ReadMetric` over it. Only events no component counts (served
  results, latencies) are pushed.
* No global state: each pipeline owns its registry, so tests and
  benchmarks never interfere with each other.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Sequence

from ..exceptions import ConfigurationError
from ..obs.profile import quantile_linear

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ReadMetric",
    "metric_safe",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Default latency buckets (seconds). Spans 0.1 ms .. 10 s, roughly
#: logarithmic — one VIRE estimate is a few ms of numpy, so the decade
#: around 1-100 ms carries the resolution.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or not set(name) <= _METRIC_NAME_OK or name[0].isdigit():
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def metric_safe(label: object) -> str:
    """``label`` with every character outside ``[a-zA-Z0-9_:]`` as ``_``,
    so a reader or zone id can be a metric-name segment."""
    return "".join(c if c in _METRIC_NAME_OK else "_" for c in str(label))


def _format_value(v: float) -> str:
    """Prometheus sample formatting: integers without trailing ``.0``."""
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


class _Scalar:
    """A one-sample metric; subclasses say how its value changes."""

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name, self.value)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}={self.value:g})"


class Counter(_Scalar):
    """Monotonically increasing count (requests served, cache hits, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self._value += amount


class ReadMetric(_Scalar):
    """A counter or gauge whose value a zero-argument callable returns.

    Read on :attr:`value` and at render time. A name ending in
    ``_total`` makes a counter, any other a gauge (the naming audit's
    convention). Nothing can be pushed into it: the count belongs to the
    component it reads, so :meth:`inc`, :meth:`dec` and :meth:`set` raise.
    """

    def __init__(self, name: str, help: str, read: Callable[[], float]):
        super().__init__(name, help)
        self.kind = "counter" if name.endswith("_total") else "gauge"
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())

    def inc(self, amount: float = 1.0) -> None:
        raise ConfigurationError(
            f"{self.kind} {self.name} is read from its component; "
            f"it cannot be pushed"
        )

    dec = set = inc


class Histogram:
    """Fixed-bucket histogram with exact quantiles from retained samples.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bounds. A ``+Inf`` bucket is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._samples: list[float] = []

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, *values: float) -> None:
        """Record every value in order, or none of them: a non-finite
        value raises before anything is recorded."""
        floats = [float(v) for v in values]
        for v, value in zip(floats, values):
            if not math.isfinite(v):
                raise ConfigurationError(
                    f"cannot observe non-finite value {value}"
                )
        counts, buckets = self._counts, self.buckets
        for v in floats:
            counts[bisect.bisect_left(buckets, v)] += 1
            self._sum += v
        self._samples.extend(floats)

    def quantile(self, q: float) -> float:
        """Exact quantile of the observed samples.

        Linear interpolation between order statistics ("type 7", the
        repo's one sample quantile:
        :func:`~repro.obs.profile.quantile_linear`). Returns ``nan``
        when nothing has been observed.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        return quantile_linear(self._samples, q)

    def samples(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        cumulative = 0
        for bound, n in zip(self.buckets, self._counts):
            cumulative += n
            out.append((f'{self.name}_bucket{{le="{_format_value(bound)}"}}',
                        float(cumulative)))
        out.append((f'{self.name}_bucket{{le="+Inf"}}', float(self.count)))
        out.append((f"{self.name}_sum", self._sum))
        out.append((f"{self.name}_count", float(self.count)))
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count}, sum={self._sum:g})"


Metric = Counter | Histogram | ReadMetric


class MetricsRegistry:
    """Owns a namespace of metrics and renders the text exposition.

    Pushed metrics are created idempotently: asking twice for the same
    name returns the same object (with a type check). A read metric
    (:meth:`read`) is registered once; a second registration under a
    taken name raises.

    ``zone`` widens the namespace to ``<namespace>_zone_<zone>`` so
    several zone workers co-resident in one process (or one merged
    exposition) can register the same logical metric without colliding:
    two zones' ``service_results_total`` render as
    ``repro_zone_a_service_results_total`` and
    ``repro_zone_b_service_results_total``.
    """

    def __init__(self, namespace: str = "repro", *, zone: str | None = None):
        base = _check_name(namespace) if namespace else ""
        self.zone = str(zone) if zone is not None else None
        if zone is not None:
            safe = metric_safe(zone)
            if not safe:
                raise ConfigurationError(
                    f"zone id {zone!r} sanitizes to nothing"
                )
            prefix = f"zone_{safe}"
            base = f"{base}_{prefix}" if base else prefix
        self.namespace = _check_name(base) if base else ""
        self._metrics: dict[str, Metric] = {}

    def _full(self, name: str) -> str:
        """Apply the namespace prefix exactly once.

        Names that already carry the prefix (a component re-registering
        a metric it read back from the registry — e.g. on session
        resume) are left alone, so ``repro_repro_*`` duplicates cannot
        be minted.
        """
        if not self.namespace:
            return name
        if name.startswith(f"{self.namespace}_"):
            return name
        return f"{self.namespace}_{name}"

    def _get_or_make(self, cls, name: str, help: str, **kwargs):
        full = self._full(name)
        existing = self._metrics.get(full)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {full!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(full, help, **kwargs)
        self._metrics[full] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(Counter, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_make(Histogram, name, help, buckets=buckets)

    def read(
        self, name: str, help: str, read: Callable[[], float]
    ) -> ReadMetric:
        """Register a :class:`ReadMetric`; a taken name raises."""
        full = self._full(name)
        if full in self._metrics:
            raise ConfigurationError(f"metric {full!r} is already registered")
        metric = ReadMetric(full, help, read)
        self._metrics[full] = metric
        return metric

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return self._full(name) in self._metrics or name in self._metrics

    def get(self, name: str) -> Metric:
        full = self._full(name)
        if full in self._metrics:
            return self._metrics[full]
        if name in self._metrics:
            return self._metrics[name]
        raise ConfigurationError(f"no metric named {name!r} registered")

    def render_prometheus(self) -> str:
        """The standard ``text/plain; version=0.0.4`` exposition."""
        lines: list[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")
