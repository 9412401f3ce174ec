"""Tests for the service pipeline: batching, degradation, accounting.

The serving contract under test: every accepted request yields a result
or a counted failure — never an exception — and every degraded result is
flagged with the reason the primary VIRE path was not used.
"""

from __future__ import annotations

import itertools

import pytest

from repro import VIREConfig, build_paper_deployment
from repro.exceptions import ConfigurationError
from repro.service import ServiceConfig, ServicePipeline

from .conftest import make_clean_environment


class FakeClock:
    """Deterministic perf clock: each call advances 1 ms."""

    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return next(self._ticks) * 1e-3


@pytest.fixture
def deployment():
    d = build_paper_deployment(
        make_clean_environment(),
        tracking_tags={"asset": (1.3, 1.7)},
        seed=5,
    )
    d.simulator.warm_up()
    return d


def make_pipeline(deployment, **config_changes) -> ServicePipeline:
    config = ServiceConfig(
        max_batch_size=4, max_latency_s=1.0, request_deadline_s=None,
        vire=VIREConfig(subdivisions=5),
    ).with_(**config_changes)
    return ServicePipeline(
        deployment.grid,
        deployment.simulator.middleware,
        config,
        perf_clock=FakeClock(),
    )


class TestPrimaryPath:
    def test_successful_vire_estimate(self, deployment):
        pipeline = make_pipeline(deployment)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        results = pipeline.drain(now)
        assert len(results) == 1
        r = results[0]
        assert r.estimator == "VIRE"
        assert not r.degraded
        assert r.reason is None
        assert r.processing_latency_s > 0  # fake clock ticked
        error = ((r.position[0] - 1.3) ** 2 + (r.position[1] - 1.7) ** 2) ** 0.5
        assert error < 1.5

    def test_batching_flush_on_size(self, deployment):
        pipeline = make_pipeline(deployment, max_batch_size=2)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        assert pipeline.process_due(now) == []
        pipeline.submit_request("asset", now)
        results = pipeline.process_due(now)
        assert len(results) == 2
        assert pipeline.batcher.flushes_by_reason["size"] == 1

    def test_batching_flush_on_deadline(self, deployment):
        pipeline = make_pipeline(deployment, max_batch_size=100,
                                 max_latency_s=0.5)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        assert pipeline.process_due(now) == []
        results = pipeline.process_due(now + 0.5)
        assert len(results) == 1
        assert pipeline.batcher.flushes_by_reason["deadline"] == 1


class TestEmptyIntersectionDegradation:
    def test_falls_back_to_landmarc_instead_of_raising(self, deployment):
        # A vanishing fixed threshold empties every proximity map, which
        # (with the service's forced empty_fallback="error") surfaces as
        # EstimationError inside the pipeline — and must come back out as
        # a flagged LANDMARC answer, not an exception.
        pipeline = make_pipeline(
            deployment,
            vire=VIREConfig(
                subdivisions=5, threshold_mode="fixed",
                fixed_threshold_db=1e-9,
            ),
        )
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        results = pipeline.drain(now)
        assert len(results) == 1
        r = results[0]
        assert r.degraded
        assert r.reason == "empty_intersection"
        assert r.estimator == "LANDMARC"
        error = ((r.position[0] - 1.3) ** 2 + (r.position[1] - 1.7) ** 2) ** 0.5
        assert error < 2.0  # LANDMARC is coarse but sane

    def test_forces_error_fallback_internally(self, deployment):
        # Even if the caller's VIREConfig asks for silent relaxation, the
        # pipeline owns degradation accounting.
        pipeline = make_pipeline(
            deployment, vire=VIREConfig(subdivisions=5, empty_fallback="relax")
        )
        assert pipeline.vire.config.empty_fallback == "error"

    def test_degradation_metrics(self, deployment):
        pipeline = make_pipeline(
            deployment,
            vire=VIREConfig(
                subdivisions=5, threshold_mode="fixed",
                fixed_threshold_db=1e-9,
            ),
        )
        now = deployment.simulator.now
        for _ in range(3):
            pipeline.submit_request("asset", now)
        pipeline.drain(now)
        summary = pipeline.metrics_summary()
        assert summary["degraded"] == 3
        assert summary["degraded_fraction"] == 1.0
        assert (
            pipeline.metrics.get("service_degraded_empty_intersection_total").value
            == 3
        )


class TestDeadlineDegradation:
    def test_past_deadline_takes_cheap_path(self, deployment):
        pipeline = make_pipeline(deployment, request_deadline_s=1.0)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        # Batch executes 5 s later: the request is long past its deadline.
        results = pipeline.drain(now + 5.0)
        assert len(results) == 1
        r = results[0]
        assert r.degraded
        assert r.reason == "deadline"
        assert r.estimator == "LANDMARC"
        assert r.queue_wait_s == pytest.approx(5.0)

    def test_within_deadline_keeps_vire(self, deployment):
        pipeline = make_pipeline(deployment, request_deadline_s=10.0)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        results = pipeline.drain(now + 0.5)
        assert results[0].estimator == "VIRE"
        assert not results[0].degraded


class TestNoReadingDegradation:
    def test_unknown_tag_fails_counted_not_raised(self, deployment):
        pipeline = make_pipeline(deployment)
        now = deployment.simulator.now
        pipeline.submit_request("ghost", now)
        results = pipeline.drain(now)
        assert results == []  # nothing to answer with
        assert pipeline.metrics_summary()["failed"] == 1

    def test_stale_readings_serve_last_known(self, deployment):
        pipeline = make_pipeline(deployment)
        now = deployment.simulator.now
        pipeline.submit_request("asset", now)
        first = pipeline.drain(now)[0]
        # Far in the future every series is stale -> snapshot impossible.
        pipeline.submit_request("asset", now + 1e6)
        results = pipeline.drain(now + 1e6)
        assert len(results) == 1
        r = results[0]
        assert r.degraded
        assert r.reason == "no_reading"
        assert r.estimator == "last-known"
        assert r.position == first.position


class TestLatencyAccounting:
    def test_latency_histogram_counts_every_result(self, deployment):
        pipeline = make_pipeline(deployment)
        now = deployment.simulator.now
        for _ in range(4):
            pipeline.submit_request("asset", now)
        pipeline.drain(now)
        h = pipeline.metrics.get("service_localization_latency_seconds")
        assert h.count == 4
        summary = pipeline.metrics_summary()
        assert summary["latency_p50_s"] > 0
        assert summary["latency_p99_s"] >= summary["latency_p50_s"]


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(request_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(query_interval_s=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(stream_step_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_batches_per_tick=0)
        assert ServiceConfig(max_batches_per_tick=None).max_batches_per_tick \
            is None
        assert ServiceConfig(max_batches_per_tick=2).max_batches_per_tick == 2
