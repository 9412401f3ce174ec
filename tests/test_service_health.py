"""Tests for per-reader health tracking and the circuit breaker.

The breaker's clock is whatever the caller passes in (the simulation
clock in production), so every transition here is exact — no sleeps, no
flakiness.
"""

from __future__ import annotations

import math

import pytest

from repro import build_paper_deployment
from repro.exceptions import ConfigurationError
from repro.service import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ReaderHealthTracker,
)
from repro.service.pipeline import ServiceConfig, ServicePipeline

from .conftest import make_clean_environment


def make_pipeline(config: ServiceConfig) -> ServicePipeline:
    deployment = build_paper_deployment(
        make_clean_environment(), tracking_tags={"asset": (1.5, 1.5)}, seed=3
    )
    return ServicePipeline(
        deployment.grid, deployment.simulator.middleware, config
    )


def make_breaker(threshold: int = 3, timeout: float = 10.0) -> CircuitBreaker:
    return CircuitBreaker(
        BreakerPolicy(failure_threshold=threshold, recovery_timeout_s=timeout)
    )


class TestBreakerPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(recovery_timeout_s=0.0)

    @pytest.mark.parametrize("field_name, value", [
        ("recovery_timeout_s", math.nan),
        ("recovery_timeout_s", math.inf),
        ("recovery_timeout_s", "10"),
        ("failure_threshold", 2.5),
        ("failure_threshold", True),
    ])
    def test_non_finite_and_non_integer_values_rejected(
        self, field_name, value
    ):
        # A NaN or infinite timeout used to construct, and an opened
        # breaker then refused its reader at every later time.
        with pytest.raises(ConfigurationError, match=field_name):
            BreakerPolicy(**{field_name: value})


class TestCircuitBreaker:
    def test_opens_at_threshold_not_before(self):
        breaker = make_breaker(threshold=3)
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.record_failure(3.0)  # third consecutive: opens
        assert breaker.state == BreakerState.OPEN
        assert breaker.transitions == 1

    def test_success_resets_the_failure_streak(self):
        breaker = make_breaker(threshold=2)
        breaker.record_failure(1.0)
        breaker.record_success()
        breaker.record_failure(2.0)
        assert breaker.state == BreakerState.CLOSED  # streak restarted

    def test_open_blocks_until_recovery_timeout(self):
        breaker = make_breaker(threshold=1, timeout=10.0)
        breaker.record_failure(5.0)
        assert not breaker.allows(5.1)
        assert not breaker.allows(14.999)
        assert breaker.allows(15.0)  # timeout elapsed: half-open probe
        assert breaker.state == BreakerState.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker = make_breaker(threshold=1, timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.allows(2.0)
        assert breaker.record_success()  # close transition reported
        assert breaker.state == BreakerState.CLOSED
        assert breaker.transitions == 3  # open, half-open, close

    def test_half_open_probe_failure_reopens_and_restarts_timeout(self):
        breaker = make_breaker(threshold=1, timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allows(10.0)  # half-open at exactly the timeout
        assert breaker.record_failure(10.0)  # failed probe
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allows(19.0)  # timeout restarted from 10.0
        assert breaker.allows(20.0)

    def test_closed_always_allows(self):
        breaker = make_breaker()
        assert breaker.allows(0.0) and breaker.allows(1e9)


class TestReaderHealthTracker:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReaderHealthTracker([])
        with pytest.raises(ConfigurationError):
            ReaderHealthTracker(["r0"], freshness_floor=0.0)

    def test_healthy_observations_keep_everything_closed(self):
        tracker = ReaderHealthTracker(["r0", "r1"])
        for t in range(10):
            tracker.observe({"r0": 1.0, "r1": 0.9}, float(t))
        assert tracker.state() == {"r0": "closed", "r1": "closed"}
        assert tracker.allowed_readers(10.0) == ["r0", "r1"]
        assert tracker.open_readers() == []
        assert tracker.transitions_total() == 0

    def test_stale_reader_opens_after_threshold(self):
        tracker = ReaderHealthTracker(
            ["r0", "r1"],
            policy=BreakerPolicy(failure_threshold=3, recovery_timeout_s=5.0),
        )
        for t in range(3):
            tracker.observe({"r0": 0.1, "r1": 1.0}, float(t))
        assert tracker.state()["r0"] == "open"
        assert tracker.open_readers() == ["r0"]
        assert tracker.allowed_readers(2.5) == ["r1"]

    def test_missing_reader_counts_as_fully_stale(self):
        tracker = ReaderHealthTracker(
            ["r0"], policy=BreakerPolicy(failure_threshold=1,
                                         recovery_timeout_s=5.0)
        )
        tracker.observe({}, 0.0)  # r0 absent from the freshness map
        assert tracker.state()["r0"] == "open"

    def test_recovery_cycle_open_probe_close(self):
        policy = BreakerPolicy(failure_threshold=1, recovery_timeout_s=4.0)
        tracker = ReaderHealthTracker(["r0"], policy=policy)
        tracker.observe({"r0": 0.0}, 0.0)  # opens
        assert tracker.allowed_readers(1.0) == []
        assert tracker.allowed_readers(4.0) == ["r0"]  # half-open probe
        tracker.observe({"r0": 1.0}, 4.0)  # probe succeeds
        assert tracker.state()["r0"] == "closed"
        # open + half_open + close
        assert tracker.transitions_total() == 3

    def test_freshness_floor_is_the_cutoff(self):
        tracker = ReaderHealthTracker(
            ["r0"],
            policy=BreakerPolicy(failure_threshold=1, recovery_timeout_s=1.0),
            freshness_floor=0.75,
        )
        tracker.observe({"r0": 0.75}, 0.0)  # at the floor: healthy
        assert tracker.state()["r0"] == "closed"
        tracker.observe({"r0": 0.74}, 1.0)  # just below: failure
        assert tracker.state()["r0"] == "open"

    def test_metrics_counter_tracks_transitions(self):
        # The tracker keeps no registry; the pipeline that owns one reads
        # the breakers' transition counts.
        pipeline = make_pipeline(ServiceConfig(breaker_recovery_timeout_s=2.0))
        tracker = pipeline.health
        stale = {rid: 1.0 for rid in tracker.breakers}
        stale["reader-0"] = 0.0
        for t in (0.0, 0.5, 1.0):  # default threshold: 3 failures -> open
            tracker.observe(stale, t)
        tracker.allowed_readers(3.0)  # half-open
        tracker.observe(dict.fromkeys(tracker.breakers, 1.0), 3.0)  # close
        rendered = pipeline.metrics.render_prometheus()
        assert "service_breaker_transitions_total 3" in rendered

    def test_open_breaker_ignores_fresh_observations_until_the_probe(self):
        tracker = ReaderHealthTracker(
            ["r0"],
            policy=BreakerPolicy(failure_threshold=1, recovery_timeout_s=10.0),
        )
        tracker.observe({"r0": 0.0}, 0.0)
        assert tracker.state()["r0"] == "open"
        tracker.observe({"r0": 1.0}, 1.0)  # fresh, but not yet probed
        assert tracker.state()["r0"] == "open"
        assert tracker.allowed_readers(1.0) == []
        assert tracker.transitions_total() == 1
        assert tracker.allowed_readers(10.0) == ["r0"]  # half-open probe
        tracker.observe({"r0": 1.0}, 10.0)
        assert tracker.state()["r0"] == "closed"
        assert tracker.transitions_total() == 3
