"""In-process salvage of a failing engine pass on the serving path.

:func:`run_shard_with_salvage` runs a shard of work in one call and, if
that call raises, re-runs it item by item so one poisoned input degrades
one answer instead of the whole micro-batch. Salvage is counted through
an optional (duck-typed) :class:`~repro.service.metrics.MetricsRegistry`
and recorded as a ``runtime.salvage`` trace span.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

from ..obs import current_tracer

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["run_shard_with_salvage"]

def run_shard_with_salvage(
    fn: Callable[[Sequence[T]], Sequence[R]],
    items: Sequence[T],
    *,
    error_factory: Callable[[T, Exception], R],
    metrics: Any | None = None,
) -> list[R]:
    """Run ``fn`` over a shard; on failure, salvage it item by item.

    Runs ``fn`` over the whole shard; if the *shard pass* raises, the
    shard is salvaged item by item (one ``fn([item])`` call each), and an
    item whose solo pass still raises is replaced by
    ``error_factory(item, exc)`` — so one poisoned input degrades one
    answer, never the whole batch. Used by the service's engine passes,
    where outcomes are values and exceptions are engine bugs.

    A clean pass leaves no trace: the ``runtime.salvage`` span and the
    ``runtime_shard_salvages_total`` counter appear only once a pass has
    failed.
    """
    try:
        return list(fn(items))
    except Exception as exc:  # noqa: BLE001 - salvage is the whole point
        if metrics is not None:
            metrics.counter(
                "runtime_shard_salvages_total",
                "Serving-path shard passes recovered item by item",
            ).inc()
        with current_tracer().span(
            "runtime.salvage", size=len(items), error=type(exc).__name__
        ) as salvage_span:
            out: list[R] = []
            salvaged = 0
            for item in items:
                try:
                    out.extend(fn([item]))
                except Exception as item_exc:  # noqa: BLE001
                    out.append(error_factory(item, item_exc))
                    salvaged += 1
            salvage_span.set("substituted", salvaged)
        return out
