"""Tests for the micro-batcher: size, deadline and drain triggers."""

from __future__ import annotations

import pytest

from repro import build_paper_deployment
from repro.exceptions import ConfigurationError
from repro.service import (
    LocalizationRequest,
    MicroBatcher,
    ServiceConfig,
    ServicePipeline,
)

from .conftest import make_clean_environment


def req(tag: str, t: float) -> LocalizationRequest:
    return LocalizationRequest(tag_id=tag, enqueued_at_s=t)


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch_size(self):
        b = MicroBatcher(max_batch_size=3, max_latency_s=10.0)
        b.submit(req("a", 0.0))
        b.submit(req("b", 0.0))
        assert b.poll(0.0) == []
        b.submit(req("c", 0.0))
        batches = b.poll(0.0)
        assert len(batches) == 1
        assert batches[0].reason == "size"
        assert [r.tag_id for r in batches[0]] == ["a", "b", "c"]
        assert b.pending == 0

    def test_multiple_full_batches_in_one_poll(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=10.0)
        for i in range(5):
            b.submit(req(f"t{i}", 0.0))
        batches = b.poll(0.0)
        assert [batch.reason for batch in batches] == ["size", "size"]
        assert b.pending == 1  # leftover waits for its deadline


class TestDeadlineTrigger:
    def test_flush_on_deadline_even_if_not_full(self):
        b = MicroBatcher(max_batch_size=100, max_latency_s=0.25)
        b.submit(req("a", 1.0))
        b.submit(req("b", 1.1))
        assert b.poll(1.2) == []  # oldest is only 0.2s old
        batches = b.poll(1.25)  # oldest hits max_latency exactly
        assert len(batches) == 1
        assert batches[0].reason == "deadline"
        assert len(batches[0]) == 2  # deadline flush takes everything pending

    def test_next_deadline_tracks_oldest(self):
        b = MicroBatcher(max_batch_size=100, max_latency_s=0.5)
        assert b.next_deadline() is None
        b.submit(req("a", 2.0))
        b.submit(req("b", 3.0))
        assert b.next_deadline() == pytest.approx(2.5)

    def test_deadline_measured_from_enqueue_not_poll(self):
        b = MicroBatcher(max_batch_size=100, max_latency_s=1.0)
        b.submit(req("a", 0.0))
        b.poll(0.5)
        b.poll(0.9)
        assert b.pending == 1
        assert len(b.poll(1.0)) == 1


class TestMaxBatchesCap:
    """poll(max_batches=K) models a bounded executor (K batches/tick)."""

    def test_cap_limits_size_cuts_per_poll(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=10.0)
        for i in range(8):
            b.submit(req(f"t{i}", 0.0))
        batches = b.poll(0.0, max_batches=1)
        assert [batch.reason for batch in batches] == ["size"]
        assert b.pending == 6  # backlog carried to the next tick

    def test_backlog_drains_across_successive_polls(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=10.0)
        for i in range(6):
            b.submit(req(f"t{i}", 0.0))
        seen = []
        for _ in range(3):
            seen += b.poll(0.0, max_batches=1)
        assert len(seen) == 3
        assert b.pending == 0

    def test_deadline_flush_suppressed_while_backlog_is_full(self):
        # An exhausted budget must not sneak an extra deadline cut in.
        b = MicroBatcher(max_batch_size=2, max_latency_s=0.1)
        for i in range(5):
            b.submit(req(f"t{i}", 0.0))
        batches = b.poll(5.0, max_batches=1)
        assert [batch.reason for batch in batches] == ["size"]

    def test_deadline_flush_still_fires_under_the_cap(self):
        b = MicroBatcher(max_batch_size=10, max_latency_s=0.1)
        b.submit(req("a", 0.0))
        batches = b.poll(5.0, max_batches=1)
        assert [batch.reason for batch in batches] == ["deadline"]

    def test_default_poll_is_unlimited(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=10.0)
        for i in range(8):
            b.submit(req(f"t{i}", 0.0))
        assert len(b.poll(0.0)) == 4


class TestDrain:
    def test_drain_flushes_remainder(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=100.0)
        for i in range(3):
            b.submit(req(f"t{i}", 0.0))
        batches = b.drain(0.1)
        assert [batch.reason for batch in batches] == ["size", "drain"]
        assert b.pending == 0

    def test_drain_empty_is_noop(self):
        assert MicroBatcher().drain(0.0) == []


class TestAccounting:
    def test_flush_reason_counters(self):
        b = MicroBatcher(max_batch_size=2, max_latency_s=0.5)
        for i in range(4):
            b.submit(req(f"t{i}", 0.0))
        b.poll(0.0)
        b.submit(req("late", 1.0))
        b.poll(2.0)
        b.submit(req("tail", 3.0))
        b.drain(3.0)
        assert b.flushes_by_reason == {"size": 2, "deadline": 1, "drain": 1}
        assert b.batches_flushed == 4
        assert b.submitted == 6

    def test_metrics_wiring(self):
        # The batcher keeps no registry: the pipeline that owns one reads
        # the batcher's counters and observes the batches it executes.
        deployment = build_paper_deployment(
            make_clean_environment(), tracking_tags={"a": (1.5, 1.5)}, seed=3
        )
        pipeline = ServicePipeline(
            deployment.grid, deployment.simulator.middleware,
            ServiceConfig(max_batch_size=1, max_latency_s=1.0),
        )
        pipeline.submit_request("a", 0.0)
        pipeline.process_due(0.0)
        metrics = pipeline.metrics
        assert metrics.get("batcher_requests_total").value == 1
        assert metrics.get("batcher_flushes_size_total").value == 1
        assert metrics.get("batcher_batch_size_requests").count == 1


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_latency_s=0.0)
