"""Tests for the service pipeline: batching, degradation, accounting.

The serving contract under test: every accepted request yields a result
or a counted failure — never an exception — and every degraded result is
flagged with the reason the primary VIRE path was not used.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import VIREConfig, build_paper_deployment
from repro.calibration import CalibrationPolicy, DriftCorrector
from repro.engine.batch import BatchEngine, BatchLandmarc
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    EstimationError,
    ReadingError,
)
from repro.faults import CrashPoint, ReaderOutageFault, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.hardware.middleware import MiddlewareServer, SmoothingSpec
from repro.obs import Tracer, current_tracer, use_tracer
from repro.service import (
    LocalizationService,
    ServiceConfig,
    ServicePipeline,
    ServiceResult,
)
from repro.service.ingest import IngestionLoop
from repro.service.metrics import metric_safe

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


TWO_TAGS = {"asset": (1.3, 1.7), "cart": (2.4, 0.9)}


@pytest.fixture
def two_tag_deployment():
    d = build_paper_deployment(
        make_clean_environment(), tracking_tags=TWO_TAGS, seed=5
    )
    d.simulator.warm_up()
    return d


def count_calls(monkeypatch, cls, name, calls: list):
    """Wrap ``cls.name`` so every call appends its positional args."""
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def answer(result) -> tuple:
    """Every field of a result except the wall-clock latency."""
    return (
        result.tag_id, result.position, result.estimator, result.degraded,
        result.reason, result.requested_at_s, result.completed_at_s,
        dict(result.diagnostics),
    )


#: One instant's load, in submission order: a past-deadline request
#: (LANDMARC), repeated tags and a tag no reader has ever heard.
INSTANT_LOAD = (
    ("asset", -10.0), ("cart", 0.0), ("asset", 0.0),
    ("ghost", 0.0), ("cart", 0.0), ("asset", 0.0),
)


class TestServingInstant:
    """Every batch cut at one ``now_s`` runs as one pass."""

    def _instant_pipeline(self, deployment, **changes) -> ServicePipeline:
        return make_pipeline(
            deployment, max_batch_size=2, request_deadline_s=5.0, **changes
        )

    def test_one_pass_per_instant_equals_serving_each_alone(
        self, two_tag_deployment, monkeypatch
    ):
        now = two_tag_deployment.simulator.now
        # Reference: each request served by a pipeline of its own.
        alone = []
        for tag, offset in INSTANT_LOAD:
            single = self._instant_pipeline(two_tag_deployment)
            single.submit_request(tag, now + offset)
            alone += [answer(r) for r in single.drain(now)]

        calls: dict[str, list] = {
            "deliver": [], "freshness": [], "snapshot": [], "engine": [],
        }
        count_calls(monkeypatch, IngestionLoop, "deliver_pending",
                    calls["deliver"])
        count_calls(monkeypatch, MiddlewareServer, "reader_freshness",
                    calls["freshness"])
        count_calls(monkeypatch, MiddlewareServer, "snapshot",
                    calls["snapshot"])
        count_calls(monkeypatch, BatchEngine, "estimate_outcomes",
                    calls["engine"])
        pipeline = self._instant_pipeline(two_tag_deployment)
        for tag, offset in INSTANT_LOAD:
            pipeline.submit_request(tag, now + offset)
        served = pipeline.process_due(now)

        assert pipeline.batcher.flushes_by_reason["size"] == 3
        assert len(calls["deliver"]) == 1
        assert len(calls["freshness"]) == 1
        assert sorted(args[0] for args in calls["snapshot"]) == [
            "asset", "cart", "ghost",
        ]
        assert len(calls["engine"]) == 1
        # Repeated requests for a tag share one reading object.
        (readings,) = calls["engine"][0]
        assert len(readings) == 4
        assert len({id(r) for r in readings}) == 2
        assert [answer(r) for r in served] == alone
        assert [r.reason for r in served] == [
            "deadline", None, None, None, None,
        ]

    def test_stale_reader_counts_one_failure_per_instant(
        self, two_tag_deployment, monkeypatch
    ):
        # Three batches at one instant are one observation: the breaker
        # (threshold 3) stays closed. Ticking once per batch made the
        # failure count depend on load and opened it on one stale tick.
        original = MiddlewareServer.reader_freshness

        def freshness(middleware, now_s):
            return {**original(middleware, now_s), "reader-0": 0.0}

        monkeypatch.setattr(MiddlewareServer, "reader_freshness", freshness)
        pipeline = self._instant_pipeline(two_tag_deployment)
        now = two_tag_deployment.simulator.now
        for tag, _ in INSTANT_LOAD:
            pipeline.submit_request(tag, now)
        pipeline.process_due(now)
        assert pipeline.batcher.batches_flushed == 3
        breaker = pipeline.health.breakers["reader-0"]
        assert breaker.consecutive_failures == 1
        assert breaker.state == "closed"
        assert pipeline.health.open_readers() == []

    def test_corrector_ticks_once_per_instant(
        self, two_tag_deployment, monkeypatch
    ):
        observed: list = []
        count_calls(monkeypatch, DriftCorrector, "observe", observed)
        pipeline = self._instant_pipeline(
            two_tag_deployment, calibration=CalibrationPolicy()
        )
        now = two_tag_deployment.simulator.now
        pipeline.arm_calibration(now)
        for tag, _ in INSTANT_LOAD:
            pipeline.submit_request(tag, now)
        pipeline.process_due(now)
        assert pipeline.batcher.batches_flushed == 3
        assert len(observed) == 1
        assert len(pipeline.calibration._window) == 1

    def test_a_real_fault_records_no_answer_of_the_instant(
        self, two_tag_deployment, monkeypatch
    ):
        # A non-refusal error (a layout fault) aborts the session; the
        # write-ahead log never sees the instant, so no answer of it may
        # be recorded either — not even the ones before the fault.
        pipeline = self._instant_pipeline(two_tag_deployment)
        estimate_outcomes = pipeline.vire.estimate_outcomes

        def faulty(readings):
            outcomes = estimate_outcomes(readings)
            outcomes[1] = ReadingError("reference layout mismatch")
            return outcomes

        monkeypatch.setattr(pipeline.vire, "estimate_outcomes", faulty)
        now = two_tag_deployment.simulator.now
        pipeline.submit_request("asset", now)
        pipeline.submit_request("cart", now)
        with pytest.raises(ReadingError, match="layout mismatch"):
            pipeline.process_due(now)
        assert pipeline.results == ()
        assert pipeline.last_estimate("asset") is None
        summary = pipeline.metrics_summary()
        assert (summary["results"], summary["degraded"]) == (0, 0)
        assert pipeline.metrics.get(
            "service_localization_latency_seconds"
        ).count == 0

    def test_a_fault_while_recording_records_no_answer_of_the_instant(
        self, two_tag_deployment
    ):
        # The latency histogram rejects a non-finite latency. The perf
        # clock's 6th read (the VIRE pass takes two, each answer two) ends
        # the second answer, so its latency is NaN: recording fails after
        # the first answer was built, and no answer of the instant may be
        # recorded.
        pipeline = self._instant_pipeline(two_tag_deployment)
        clock = pipeline._perf_clock
        reads = itertools.count(1)
        pipeline._perf_clock = lambda: (
            math.nan if next(reads) == 6 else clock()
        )
        now = two_tag_deployment.simulator.now
        pipeline.submit_request("asset", now)
        pipeline.submit_request("cart", now)
        with pytest.raises(ConfigurationError, match="non-finite"):
            pipeline.process_due(now)
        assert pipeline.results == ()
        assert pipeline.last_estimate("asset") is None
        summary = pipeline.metrics_summary()
        assert (summary["results"], summary["degraded"]) == (0, 0)
        assert pipeline.metrics.get(
            "service_localization_latency_seconds"
        ).count == 0

    def test_multi_batch_instant_is_one_batch_span(self, two_tag_deployment):
        pipeline = self._instant_pipeline(two_tag_deployment)
        now = two_tag_deployment.simulator.now
        for tag, offset in INSTANT_LOAD:
            pipeline.submit_request(tag, now + offset)
        tracer = Tracer()
        with use_tracer(tracer):
            pipeline.process_due(now)
        (root,) = tracer.logical_documents()
        assert root["name"] == "service.batch"
        assert root["attrs"]["batch_size"] == len(INSTANT_LOAD)
        names = [c["name"] for c in root["children"]]
        assert names.count("service.ingest") == 1
        assert names.count("service.snapshot") == 1
        assert names.count("service.vire_pass") == 1
        assert names.count("service.landmarc_pass") == 1
        assert names.count("service.serve") == len(INSTANT_LOAD)
        (vire_pass,) = [
            c for c in root["children"] if c["name"] == "service.vire_pass"
        ]
        assert vire_pass["attrs"]["n_requests"] == 4


class PerRequestPipeline(ServicePipeline):
    """The oracle: each request's answer built and recorded on its own,
    one ``service.serve`` span around each, as the pipeline served
    before it built an instant's answers in one pass."""

    def _record_answers(self, requests, ladder, shares, now_s):
        answers = [
            self._answer(request, now_s, *decided, share)
            for request, decided, share in zip(requests, ladder, shares)
        ]
        return [answer for answer in answers if answer is not None]

    def _answer(self, request, now_s, level, reason, est, share_s):
        tracer = current_tracer()
        with tracer.span("service.serve", tag=request.tag_id) as span:
            t0 = self._perf_clock()
            if est is not None:
                position, diagnostics = est.position, est.diagnostics
                estimator = (self.vire if level < 3 else self.fallback).name
            else:
                position = self._last_estimate.get(request.tag_id)
                if position is None:
                    self._c_failed.inc()
                    span.update(failed=True, reason=reason)
                    return None
                estimator, diagnostics = "last-known", {}
            degraded = level > 1
            span.update(level=level, estimator=estimator, degraded=degraded)
            if reason is not None:
                span.set("reason", reason)
            latency = self._perf_clock() - t0 + share_s
            self._h_latency.observe(latency)
            self._c_results.inc()
            if degraded:
                self._c_degraded.inc()
                self._c_degraded_reason[reason].inc()
            self._last_estimate[request.tag_id] = position
            result = ServiceResult(
                tag_id=request.tag_id,
                position=position,
                estimator=estimator,
                degraded=degraded,
                reason=reason,
                requested_at_s=request.enqueued_at_s,
                completed_at_s=now_s,
                processing_latency_s=latency,
                diagnostics=diagnostics,
            )
            self._results.append(result)
            return result


#: Instants of one serving script, each drained at ``now``: requests as
#: ``(tag, submitted this long before now)`` in submission order (a
#: request 5 s old is past its 1 s deadline), plus how the instant is
#: served. ``allow`` keeps that many readers admitted (masked snapshots,
#: ``partial_readers``); ``refuse_landmarc`` makes the LANDMARC pass
#: refuse, so a late request falls to last known; ``history`` seeds
#: last-known positions first.
ANSWER_SCRIPT = (
    # Repeated tags, a deadline LANDMARC answer, a never-localized tag.
    dict(requests=(("asset", 0.0), ("cart", 0.0), ("asset", 0.0),
                   ("cart", 5.0), ("ghost", 0.0), ("asset", 0.0))),
    # Masked partial-reader answers and a last-known visitor.
    dict(requests=(("visitor", 0.0), ("asset", 0.0), ("cart", 0.0),
                   ("asset", 0.0)),
         allow=3, history={"visitor": (1.0, 2.0)}),
    # A late request whose LANDMARC answer is refused: last known, from
    # the answer an earlier request of the same instant just gave.
    dict(requests=(("cart", 0.0), ("asset", 0.0), ("asset", 5.0),
                   ("ghost", 0.0)),
         refuse_landmarc=True),
)


def serve_script(pipeline, now, script) -> tuple[list, list, dict]:
    """Drive ``script`` through ``pipeline``: its results, its
    ``service.serve`` span documents and its serving counters."""
    results, spans = [], []
    for instant in script:
        for tag, position in instant.get("history", {}).items():
            pipeline.transfer_last_estimate(tag, position)
        if "allow" in instant:
            kept = list(pipeline.middleware.reader_ids)[: instant["allow"]]
            pipeline.health.allowed_readers = lambda now_s: kept
        if instant.get("refuse_landmarc"):
            pipeline._batch_fallback.estimate_outcomes = lambda readings: [
                EstimationError("nothing to rank") for _ in readings
            ]
        for tag, age in instant["requests"]:
            pipeline.submit_request(tag, now - age)
        tracer = Tracer()
        with use_tracer(tracer):
            results += pipeline.drain(now)
        vars(pipeline.health).pop("allowed_readers", None)
        vars(pipeline._batch_fallback).pop("estimate_outcomes", None)
        (root,) = tracer.logical_documents()
        spans += [c for c in root["children"] if c["name"] == "service.serve"]
    metrics = pipeline.metrics
    counters = {
        name: metrics.get(name).value
        for name in (
            "service_results_total", "service_degraded_total",
            "service_requests_failed_total",
            *(f"service_degraded_{r}_total" for r in DEGRADED_REASONS),
        )
    }
    counters["latency_count"] = metrics.get(
        "service_localization_latency_seconds"
    ).count
    return results, spans, counters


class TestAnswerPass:
    """One answer pass per instant serves as the per-request route did."""

    def _pipeline(self, deployment, cls=ServicePipeline) -> ServicePipeline:
        config = ServiceConfig(
            max_batch_size=3, max_latency_s=1.0, request_deadline_s=1.0,
            vire=VIREConfig(subdivisions=5),
        )
        return cls(
            deployment.grid, deployment.simulator.middleware, config,
            perf_clock=FakeClock(),
        )

    def test_matches_the_per_request_oracle(self, two_tag_deployment):
        now = two_tag_deployment.simulator.now
        got = serve_script(
            self._pipeline(two_tag_deployment), now, ANSWER_SCRIPT
        )
        want = serve_script(
            self._pipeline(two_tag_deployment, PerRequestPipeline),
            now, ANSWER_SCRIPT,
        )
        results, spans, counters = got
        assert [answer(r) for r in results] == [answer(r) for r in want[0]]
        assert spans == want[1]
        assert counters == want[2]
        # The script reaches every rung it names.
        assert [(r.estimator, r.reason) for r in results] == [
            ("VIRE", None), ("VIRE", None), ("VIRE", None),
            ("LANDMARC", "deadline"), ("VIRE", None),
            ("last-known", "no_reading"), ("VIRE", "partial_readers"),
            ("VIRE", "partial_readers"), ("VIRE", "partial_readers"),
            ("VIRE", None), ("VIRE", None), ("last-known", "no_reading"),
        ]
        assert counters["service_requests_failed_total"] == 2
        assert len(spans) == sum(len(i["requests"]) for i in ANSWER_SCRIPT)
        # The late asset request's last known position is the answer its
        # own instant just gave, not the one remembered before it.
        assert results[11].position == results[10].position
        assert results[11].position != results[8].position

    def test_each_repeated_answer_owns_its_diagnostics(
        self, two_tag_deployment
    ):
        now = two_tag_deployment.simulator.now
        results, _, _ = serve_script(
            self._pipeline(two_tag_deployment), now, ANSWER_SCRIPT[:2]
        )
        clean = [r for r in results if r.tag_id == "asset" and
                 r.reason is None]
        masked = [r for r in results if r.reason == "partial_readers"
                  and r.tag_id == "asset"]
        assert len(clean) == 3 and len(masked) == 2
        for first, *others in (clean, masked):
            expected = [answer(r) for r in others]
            first.diagnostics["threshold_db"] = -1.0
            first.diagnostics["map_areas"].append(99)
            assert [answer(r) for r in others] == expected
        survivors = list(masked[1].diagnostics["quorum_surviving_readers"])
        masked[0].diagnostics["quorum_surviving_readers"].clear()
        assert masked[1].diagnostics["quorum_surviving_readers"] == survivors


class _OutageService(LocalizationService):
    """Two tags in a world whose series go stale after 3 s."""

    def build_deployment(self, scenario):  # noqa: ARG002 - fixed world
        return build_paper_deployment(
            make_clean_environment(),
            tracking_tags={f"tag-{k}": v for k, v in TWO_TAGS.items()},
            seed=11,
            smoothing=SmoothingSpec(max_age_s=3.0),
        )


class _TwoTagScenario:
    name = "two-tag"
    tracking_tags = TWO_TAGS


class TestInstantResume:
    def test_crash_resume_with_multi_batch_instants_and_outage(
        self, tmp_path
    ):
        # One batch per request: both tags' queries at an instant are
        # two batches. reader-0 is dark from 4 s to 12 s.
        config = ServiceConfig(
            max_batch_size=1, max_latency_s=0.5, request_deadline_s=None,
            query_interval_s=1.0,
            breaker_recovery_timeout_s=4.0,
            vire=VIREConfig(subdivisions=5),
        )
        plan = FaultPlan(
            [ReaderOutageFault("reader-0", start_s=4.0, duration_s=8.0)],
            seed=0,
        )

        def run(**kwargs):
            return _OutageService(config).run(
                _TwoTagScenario(), 16.0, fault_plan=plan, **kwargs
            )

        baseline = run()
        summary = baseline.summary
        instants = {r.completed_at_s for r in baseline.results}
        assert summary["batches_flushed"] > len(instants)  # multi-batch
        assert summary["breaker_transitions"] > 0  # the outage bit
        path = tmp_path / "s.ckpt"
        # The last cut before the crash holds reader-0's breaker open.
        with pytest.raises(SimulatedCrash):
            run(checkpoint_path=path, crash_point=CrashPoint(at_s=11.0))
        # verify_replay runs at the flip to live and would raise a
        # CheckpointError on any divergence.
        resumed = run(checkpoint_path=path, resume=True)
        assert resumed.summary["resume_results_restored"] > 0
        assert json.dumps(resumed.witness_document(), sort_keys=True) == (
            json.dumps(baseline.witness_document(), sort_keys=True)
        )


class TestVerifyReplay:
    """Resume compares the rebuilt state with the checkpointed one."""

    def _state(self, pipeline) -> dict:
        pipeline.submit_request("asset", 0.0)
        return json.loads(json.dumps(pipeline.checkpoint_state()))

    def test_matching_state_verifies(self, deployment):
        pipeline = make_pipeline(deployment, calibration=CalibrationPolicy())
        pipeline.verify_replay(self._state(pipeline))

    @pytest.mark.parametrize("tamper, message", [
        (lambda s: s["breakers"].update(ghost=s["breakers"]["reader-0"]),
         "checkpointed breaker for unknown reader 'ghost'"),
        (lambda s: s["breakers"]["reader-1"].update(transitions=7),
         "replay diverged for reader 'reader-1': reconstructed"),
        (lambda s: s["counters"].update(requests=2),
         "replay diverged on requests counter: reconstructed 1.0, "
         "checkpoint 2"),
        (lambda s: s["calibration"].update(armed=True),
         "replay diverged on calibration state"),
    ])
    def test_divergence_is_named(self, deployment, tamper, message):
        pipeline = make_pipeline(deployment, calibration=CalibrationPolicy())
        state = self._state(pipeline)
        tamper(state)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            pipeline.verify_replay(state)

    def test_calibration_state_needs_the_loop(self, deployment):
        with_loop = make_pipeline(deployment, calibration=CalibrationPolicy())
        state = self._state(with_loop)
        without = make_pipeline(deployment)
        without.submit_request("asset", 0.0)
        with pytest.raises(CheckpointError, match="this session has it"):
            without.verify_replay(state)


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


DEGRADED_REASONS = (
    "empty_intersection", "deadline", "no_reading", "partial_readers",
    "quorum_unmet",
)

#: Every cell of the degradation ladder: how to reach it, then the
#: answer (or ``None``: a counted failure) and the ``service.serve``
#: span it must produce. ``allow`` keeps that many readers admitted
#: (the rest look breaker-blocked, so the snapshot is masked); ``thin``
#: masks every reference column but one reader's, below the quorum;
#: ``empty`` makes VIRE refuse on an empty intersection; ``late`` puts
#: the request past its deadline; ``refuse_landmarc`` makes the LANDMARC
#: pass refuse too; ``history`` seeds a last-known answer.
LADDER = {
    "full_vire": (
        dict(), ("VIRE", False, None), dict(level=1)),
    "masked_vire": (
        dict(allow=3),
        ("VIRE", True, "partial_readers"), dict(level=2)),
    "empty_intersection": (
        dict(empty=True),
        ("LANDMARC", True, "empty_intersection"), dict(level=3)),
    "quorum_unmet": (
        dict(thin=True),
        ("LANDMARC", True, "quorum_unmet"), dict(level=3)),
    "deadline": (
        dict(late=True), ("LANDMARC", True, "deadline"), dict(level=3)),
    "deadline_landmarc_refused": (
        dict(late=True, refuse_landmarc=True, history=True),
        ("last-known", True, "no_reading"), dict(level=4)),
    "no_reading_last_known": (
        dict(tag="ghost", history=True),
        ("last-known", True, "no_reading"), dict(level=4)),
    "no_reading_no_history": (
        dict(tag="ghost"), None, dict(failed=True)),
}


class TestLadderTable:
    """One request per cell: its answer, its span and its counters."""

    @pytest.mark.parametrize("cell", list(LADDER))
    def test_cell(self, deployment, monkeypatch, cell):
        setup, want, want_span = LADDER[cell]
        changes = {"request_deadline_s": 1.0}
        if setup.get("empty"):
            changes["vire"] = VIREConfig(
                subdivisions=5, threshold_mode="fixed",
                fixed_threshold_db=1e-9,
            )
        pipeline = make_pipeline(deployment, **changes)
        if "allow" in setup:
            kept = list(pipeline.middleware.reader_ids)[: setup["allow"]]
            monkeypatch.setattr(
                pipeline.health, "allowed_readers", lambda now_s: kept
            )
        if setup.get("thin"):
            snapshot = MiddlewareServer.snapshot

            def thin(middleware, tag_id, now_s, **kwargs):
                reading = snapshot(middleware, tag_id, now_s, **kwargs)
                ref = reading.reference_rssi.copy()
                ref[1:] = np.nan
                return dataclasses.replace(
                    reading, reference_rssi=ref, masked=True
                )

            monkeypatch.setattr(MiddlewareServer, "snapshot", thin)
        if setup.get("refuse_landmarc"):
            monkeypatch.setattr(
                BatchLandmarc, "estimate_outcomes",
                lambda self, readings: [
                    EstimationError("nothing to rank") for _ in readings
                ],
            )
        tag = setup.get("tag", "asset")
        if setup.get("history"):
            pipeline.transfer_last_estimate(tag, (1.0, 2.0))
        now = deployment.simulator.now
        pipeline.submit_request(tag, now - 5.0 if setup.get("late") else now)
        tracer = Tracer()
        with use_tracer(tracer):
            results = pipeline.drain(now)

        if want is None:
            assert results == []
        else:
            (result,) = results
            assert (result.estimator, result.degraded, result.reason) == want
            if setup.get("history"):
                assert result.position == (1.0, 2.0)
        (root,) = tracer.logical_documents()
        (serve,) = [
            c for c in root["children"] if c["name"] == "service.serve"
        ]
        attrs = dict(serve["attrs"])
        assert attrs.pop("tag") == tag
        if want is None:
            assert attrs == {"failed": True, "reason": "no_reading"}
        else:
            estimator, degraded, reason = want
            expected = dict(
                want_span, estimator=estimator, degraded=degraded
            )
            if reason is not None:
                expected["reason"] = reason
            assert attrs == expected

        metrics = pipeline.metrics
        reason = None if want is None else want[2]
        for name in DEGRADED_REASONS:
            counter = metrics.get(f"service_degraded_{name}_total")
            assert counter.value == (1 if name == reason else 0), name
        assert metrics.get("service_degraded_total").value == (
            0 if reason is None else 1
        )
        assert metrics.get("service_requests_failed_total").value == (
            1 if want is None else 0
        )
        assert metrics.get("service_results_total").value == len(results)


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


class TestFrameAccounting:
    def test_frames_count_up_to_the_moment_they_are_read(self, deployment):
        # Frames are counted on the readers; the registry and the summary
        # read those counts, so frames received after the last serving
        # instant count too (here there was no instant at all).
        pipeline = make_pipeline(deployment)
        middleware = deployment.simulator.middleware

        def received() -> int:
            return sum(st["received"] for st in middleware.frame_stats().values())

        before = received()
        assert before > 0
        assert pipeline.metrics_summary()["frames_received"] == before
        deployment.simulator.run_for(2.0)
        after = received()
        assert after > before
        assert pipeline.metrics_summary()["frames_received"] == after
        metrics = pipeline.metrics
        assert metrics.get("service_frames_received_total").value == after
        for rid, st in middleware.frame_stats().items():
            name = f"service_frames_received_{metric_safe(rid)}_total"
            assert metrics.get(name).value == st["received"]


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(request_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(query_interval_s=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_batches_per_tick=0)
        assert ServiceConfig(max_batches_per_tick=None).max_batches_per_tick \
            is None
        assert ServiceConfig(max_batches_per_tick=2).max_batches_per_tick == 2

    @pytest.mark.parametrize("field_name, value", [
        ("query_interval_s", math.nan),
        ("max_latency_s", math.nan),
        ("request_deadline_s", math.nan),
        ("queue_capacity", math.nan),
        ("query_interval_s", math.inf),
        ("max_latency_s", -math.inf),
        ("request_deadline_s", math.inf),
        ("max_batch_size", 2.0),
        ("queue_capacity", True),
        ("max_batches_per_tick", math.nan),
        ("breaker_recovery_timeout_s", math.nan),
        ("breaker_recovery_timeout_s", math.inf),
        ("breaker_recovery_timeout_s", 0.0),
        ("allow_partial", "no"),
        ("allow_partial", 1),
        ("vire", "x"),
        ("vire", None),
    ])
    def test_non_finite_and_non_integer_values_rejected(
        self, field_name, value
    ):
        # Each of these used to construct: NaN intervals served too few
        # answers (or none), a NaN queue capacity raised a raw
        # ValueError mid-run, a NaN or infinite breaker timeout kept an
        # opened breaker from ever probing its reader again, and
        # allow_partial="no" served partial snapshots, and vire="x" failed
        # with a raw AttributeError when the pipeline was built.
        with pytest.raises(ConfigurationError, match=field_name):
            ServiceConfig(**{field_name: value})

    @given(
        field_name=st.sampled_from([
            "query_interval_s", "max_latency_s", "request_deadline_s",
            "queue_capacity", "max_batch_size",
            "breaker_recovery_timeout_s", "allow_partial",
        ]),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-3, 10_000),
            st.booleans(),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_config_either_validates_or_raises(self, field_name, value):
        try:
            config = ServiceConfig(**{field_name: value})
        except ConfigurationError:
            return
        # Accepted values are stored untouched and are usable.
        stored = getattr(config, field_name)
        assert stored is value
        if field_name == "allow_partial":
            assert isinstance(stored, bool)
            return
        assert not isinstance(stored, bool)
        if field_name in ("queue_capacity", "max_batch_size"):
            assert isinstance(stored, int) and stored >= 1
        else:
            assert math.isfinite(stored) and stored > 0

    def test_fields_are_the_knobs_a_caller_sets(self):
        # Quorum, breaker threshold and freshness floor run at their
        # components' defaults; salvage, checkpoint cadence and the
        # stream step are not knobs. A new field needs a caller that
        # sets it.
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "queue_capacity", "queue_overflow", "max_batch_size",
            "max_latency_s", "max_batches_per_tick", "request_deadline_s",
            "query_interval_s", "vire", "allow_partial",
            "breaker_recovery_timeout_s", "calibration",
        ]
