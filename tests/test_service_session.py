"""End-to-end tests for LocalizationService sessions.

The claims under test:

1. A streamed session (records delivered through the session's
   ingestion queue, one tick at a time) produces *exactly* the estimates the batch path would compute from an
   identically-seeded world — the service machinery (queueing, batching,
   caching) must be invisible to the math.
2. Caching changes throughput, never answers.
3. An engineered empty-intersection scenario degrades gracefully for a
   whole session: every answer is a flagged LANDMARC result, nothing
   raises.
4. A tick is served at its own time: the simulator never runs ahead of
   the tick being served, so a tick's spans carry the tick's time.
5. A report's ``errors_m``, computed over all results at once, has the
   bits of the per-result ``estimation_error``.
"""

from __future__ import annotations

import pytest

from repro import VIREConfig, VIREEstimator, build_paper_deployment
from repro.cli import main
from repro.exceptions import SimulationError
from repro.service import (
    LocalizationService,
    ServiceConfig,
    ServicePipeline,
    SessionReport,
)
from repro.service.session import ServiceSession
from repro.types import estimation_error

from .conftest import make_clean_environment

TRACKING = {"asset": (1.3, 1.7), "cart": (2.4, 0.9)}


def make_scenario_deployment(seed: int):
    return build_paper_deployment(
        make_clean_environment(),
        tracking_tags={f"tag-{label}": pos for label, pos in TRACKING.items()},
        seed=seed,
    )


def service_config(**changes) -> ServiceConfig:
    base = ServiceConfig(
        max_batch_size=4,
        max_latency_s=0.5,
        request_deadline_s=None,
        query_interval_s=1.0,
        vire=VIREConfig(subdivisions=5),
    )
    return base.with_(**changes) if changes else base


class StubScenario:
    """Minimal scenario stand-in: the service reads only tracking_tags."""

    name = "stub"
    tracking_tags = TRACKING


class SessionService(LocalizationService):
    """LocalizationService bound to a deterministic stub deployment."""

    def __init__(self, seed: int, config: ServiceConfig):
        super().__init__(config)
        self._seed = seed

    def build_deployment(self, scenario):  # noqa: ARG002 - fixed world
        return make_scenario_deployment(self._seed)


class TestStreamedMatchesBatch:
    def test_streamed_estimates_match_batch_path_exactly(self):
        config = service_config()
        service = SessionService(seed=21, config=config)
        report = service.run(StubScenario(), duration_s=6.0)
        assert report.results, "session produced no results"

        # Twin world: identical seed, records delivered the ordinary way
        # (straight into the middleware, no queue, no batcher).
        twin = make_scenario_deployment(21)
        estimator = VIREEstimator(
            twin.grid, config.vire.with_(empty_fallback="error")
        )
        for result in sorted(report.results, key=lambda r: r.completed_at_s):
            if result.degraded:
                continue
            dt = result.completed_at_s - twin.simulator.now
            if dt > 0:
                twin.simulator.run_for(dt)
            reading = twin.simulator.middleware.snapshot(
                result.tag_id, result.completed_at_s
            )
            expected = estimator.estimate(reading)
            assert result.position == expected.position  # bitwise equality

    def test_report_summary_shape(self):
        service = SessionService(seed=21, config=service_config())
        report = service.run(StubScenario(), duration_s=4.0)
        assert isinstance(report, SessionReport)
        summary = report.summary
        assert summary["results"] == len(report.results)
        assert summary["session_duration_s"] == pytest.approx(4.0)
        assert summary["records_streamed"] > 0
        assert summary["localizations_per_s"] > 0
        assert report.errors_m, "expected per-result errors vs ground truth"
        assert report.mean_error_m < 2.0
        assert "repro_service_results_total" in report.render_prometheus()

    def test_on_result_callback_sees_every_result(self):
        service = SessionService(seed=7, config=service_config())
        seen = []
        report = service.run(StubScenario(), duration_s=4.0,
                             on_result=seen.append)
        assert seen == list(report.results)


class TestDegradedSession:
    def test_empty_intersection_session_never_raises(self):
        config = service_config(
            vire=VIREConfig(
                subdivisions=5,
                threshold_mode="fixed",
                fixed_threshold_db=1e-9,
            ),
        )
        report = SessionService(seed=3, config=config).run(
            StubScenario(), duration_s=4.0
        )
        assert report.results, "degraded session still answers"
        for result in report.results:
            assert result.degraded
            assert result.reason == "empty_intersection"
            assert result.estimator == "LANDMARC"
        assert report.summary["degraded_fraction"] == 1.0


class TestTickCausality:
    def test_tick_spans_are_stamped_with_their_own_time(self):
        """Every ``service.tick`` span — and every span under it — is
        stamped with the tick's own simulation time, never later."""
        from repro.obs import Tracer

        tracer = Tracer()
        SessionService(seed=3, config=service_config()).run(
            StubScenario(), duration_s=4.0, tracer=tracer
        )

        def latest(doc) -> float:
            return max(
                [doc["t"]] + [latest(c) for c in doc.get("children", [])]
            )

        ticks = [
            d for d in tracer.logical_documents() if d["name"] == "service.tick"
        ]
        assert len(ticks) == 8
        assert any(t.get("children") for t in ticks), "no tick served"
        for tick in ticks:
            assert tick["t"] == tick["attrs"]["tick_s"]
            assert latest(tick) <= tick["attrs"]["tick_s"]


def per_result_errors(results, truth) -> list[str]:
    """``estimation_error`` of each result with ground truth, as hex."""
    return [
        estimation_error(r.position, truth[r.tag_id]).hex()
        for r in results
        if r.tag_id in truth
    ]


class TestReportErrors:
    """``errors_m`` has the bits of the per-result ``estimation_error``."""

    def _session(self, seed: int) -> ServiceSession:
        deployment = make_scenario_deployment(seed)
        pipeline = ServicePipeline(
            deployment.grid, deployment.simulator.middleware,
            service_config(),
        )
        session = ServiceSession(
            deployment, pipeline, sorted(deployment.tracking_truth)
        )
        session.start(4.0, header={})
        return session

    def test_bit_for_bit_with_last_known_and_truthless_answers(self):
        session = self._session(seed=21)
        while session.step() is not None:
            pass
        # Every series stale: last-known answers for the tracked tags and
        # for a visitor the deployment holds no ground truth for.
        pipeline = session.pipeline
        truth = session.deployment.tracking_truth
        pipeline.transfer_last_estimate("visitor", (0.7, 2.9))
        later = session.simulator.now + 1e6
        for tag in (*sorted(truth), "visitor"):
            pipeline.submit_request(tag, later)
        stale = pipeline.drain(later)
        assert [r.estimator for r in stale] == ["last-known"] * 3
        report = session.finish()

        assert "visitor" not in truth
        assert len(report.errors_m) == len(report.results) - 1
        assert [e.hex() for e in report.errors_m] == per_result_errors(
            report.results, truth
        )
        assert all(type(e) is float for e in report.errors_m)

    def test_no_results_no_errors(self):
        session = self._session(seed=3)
        report = session.report()
        session.abort()
        assert report.results == ()
        assert report.errors_m == ()

    def test_load_test_errors_bit_for_bit(self):
        from repro.loadtest import LoadProfile, run_load_test
        from repro.zones import ZoneWorker, scaled_site_plan

        profile = LoadProfile(name="errors", process="burst", duration_s=4.0,
                              rate_per_s=8.0, seed=5)
        config = service_config(request_deadline_s=1.0)
        report = run_load_test(profile, config=config)
        spec = scaled_site_plan(profile.environment, 1, seed=profile.seed)
        truth = ZoneWorker(spec.zones[0], config).deployment.tracking_truth
        assert report.errors_m
        assert [e.hex() for e in report.errors_m] == per_result_errors(
            report.results, truth
        )


class TestWarmupFailure:
    def test_no_warmup_budget_raises_simulation_error(self, monkeypatch):
        from repro.service import session

        monkeypatch.setattr(session, "WARMUP_MAX_S", 0.0)  # no time for coverage
        service = SessionService(seed=1, config=service_config())
        with pytest.raises(SimulationError, match="after 0.0s of warm-up"):
            service.run(StubScenario(), duration_s=1.0)


class TestServeCLI:
    def test_serve_command_prints_acceptance_lines(self, capsys):
        rc = main(
            ["serve", "--duration", "4", "--seed", "0",
             "--query-interval", "1.0", "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for needle in (
            "batches flushed",
            "degraded requests",
            "latency p50",
            "latency p99",
        ):
            assert needle in out, f"missing {needle!r} in serve output"

    def test_serve_prometheus_flag(self, capsys):
        rc = main(
            ["serve", "--duration", "2", "--seed", "1", "--quiet",
             "--prometheus"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
