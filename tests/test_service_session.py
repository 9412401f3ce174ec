"""End-to-end tests for LocalizationService sessions.

The claims under test:

1. A streamed session (records delivered via the async ingestion loop)
   produces *exactly* the estimates the batch path would compute from an
   identically-seeded world — the service machinery (queueing, batching,
   caching) must be invisible to the math.
2. Caching changes throughput, never answers.
3. An engineered empty-intersection scenario degrades gracefully for a
   whole session: every answer is a flagged LANDMARC result, nothing
   raises.
"""

from __future__ import annotations

import pytest

from repro import VIREConfig, VIREEstimator, build_paper_deployment
from repro.cli import main
from repro.exceptions import SimulationError
from repro.service import LocalizationService, ServiceConfig, SessionReport

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
        stream_step_s=0.5,
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


class TestWarmupFailure:
    def test_no_warmup_budget_raises_simulation_error(self):
        service = SessionService(seed=1, config=service_config())
        service.warmup_max_s = 0.0  # no time to achieve coverage
        with pytest.raises(SimulationError):
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
