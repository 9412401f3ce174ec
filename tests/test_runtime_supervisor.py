"""Tests for repro.runtime.supervisor: serving-path shard salvage."""

from __future__ import annotations

from repro.obs import Tracer, use_tracer
from repro.runtime.supervisor import run_shard_with_salvage
from repro.service.metrics import MetricsRegistry


def _square_shard(shard) -> list[int]:
    return [i * i for i in shard]


class TestShardSalvage:
    def test_clean_shard_untouched(self):
        out = run_shard_with_salvage(
            _square_shard, [1, 2, 3],
            error_factory=lambda item, exc: -1,
        )
        assert out == [1, 4, 9]

    def test_clean_shard_leaves_no_trace(self):
        # No span, no counter, no log line unless a pass fails: a clean
        # session's trace and Prometheus output carry no runtime_* trail.
        metrics = MetricsRegistry()
        tracer = Tracer()
        with use_tracer(tracer):
            run_shard_with_salvage(
                _square_shard, [1, 2, 3],
                error_factory=lambda item, exc: -1,
                metrics=metrics,
            )
        assert tracer.roots == []
        assert "runtime_" not in metrics.render_prometheus()

    def test_failed_pass_is_traced(self):
        def shard_fn(items):
            if 2 in items:
                raise RuntimeError("boom")
            return [i * i for i in items]

        tracer = Tracer()
        with use_tracer(tracer):
            run_shard_with_salvage(
                shard_fn, [1, 2, 3],
                error_factory=lambda item, exc: -1,
            )
        [span] = tracer.roots
        assert span.name == "runtime.salvage"
        assert span.attrs == {
            "size": 3, "error": "RuntimeError", "substituted": 1,
        }

    def test_poisoned_item_degrades_alone(self):
        def shard_fn(items):
            if any(i == 2 for i in items):
                raise RuntimeError("boom")
            return [i * i for i in items]

        metrics = MetricsRegistry()
        out = run_shard_with_salvage(
            shard_fn, [1, 2, 3],
            error_factory=lambda item, exc: ("salvaged", item),
            metrics=metrics,
        )
        assert out == [1, ("salvaged", 2), 9]
        assert metrics.counter(
            "runtime_shard_salvages_total", ""
        ).value == 1.0

    def test_error_factory_sees_the_exception(self):
        def shard_fn(items):
            raise KeyError("always")

        out = run_shard_with_salvage(
            shard_fn, ["x"],
            error_factory=lambda item, exc: type(exc).__name__,
        )
        assert out == ["KeyError"]
