"""Crash-recovery tests: the determinism witness.

The contract under test (docs/RUNTIME.md): a checkpointed session that
is killed at an arbitrary tick — hard (``SimulatedCrash``) or graceful
(``KeyboardInterrupt``) — and then resumed produces a
:meth:`SessionReport.witness_document` **byte-identical** to the same
seeded session run uninterrupted. Checkpointing itself must also be
invisible: attaching a write-ahead log never changes a single answer.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro import VIREConfig, build_paper_deployment
from repro.cli import _graceful_sigterm, main
from repro.exceptions import CheckpointError, ConfigurationError
from repro.faults import CrashPoint, SimulatedCrash
from repro.obs import Tracer, stage_statistics
from repro.runtime.checkpoint import load_checkpoint
from repro.service import LocalizationService, ServiceConfig, ServicePipeline

from .conftest import make_clean_environment

TRACKING = {"asset": (1.3, 1.7), "cart": (2.4, 0.9)}
DURATION_S = 8.0


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

    def __init__(self, seed: int, config: ServiceConfig | None = None):
        super().__init__(config or service_config())
        self._seed = seed

    def build_deployment(self, scenario):  # noqa: ARG002 - fixed world
        return make_scenario_deployment(self._seed)


def witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def run_baseline(seed: int = 11):
    return SessionService(seed).run(StubScenario(), DURATION_S)


def mid_session_time(report) -> float:
    """A kill time strictly inside the live window, tick-deterministic."""
    times = sorted(r.completed_at_s for r in report.results)
    return times[len(times) // 2]


# -- checkpointing is invisible ----------------------------------------------

class TestWitnessIdentity:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        baseline = run_baseline()
        ckpt = SessionService(11).run(
            StubScenario(), DURATION_S,
            checkpoint_path=tmp_path / "s.ckpt",
        )
        assert witness(ckpt) == witness(baseline)
        assert ckpt.summary["checkpoint_results_logged"] == len(ckpt.results)
        assert ckpt.summary["checkpoint_snapshots"] >= 2  # initial + final

    def test_hard_crash_then_resume_is_byte_identical(self, tmp_path):
        baseline = run_baseline()
        path = tmp_path / "s.ckpt"
        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S,
                checkpoint_path=path,
                crash_point=CrashPoint(at_s=mid_session_time(baseline)),
            )
        resumed = SessionService(11).run(
            StubScenario(), DURATION_S, checkpoint_path=path, resume=True
        )
        assert witness(resumed) == witness(baseline)
        assert resumed.summary["resumed"] == 1.0
        assert resumed.summary["resume_results_restored"] > 0

    def test_graceful_interrupt_then_resume_is_byte_identical(self, tmp_path):
        baseline = run_baseline()
        path = tmp_path / "s.ckpt"
        cutoff = len(baseline.results) // 2
        seen: list = []

        def interrupt_midway(result) -> None:
            seen.append(result)
            if len(seen) >= cutoff:
                raise KeyboardInterrupt

        interrupted = SessionService(11).run(
            StubScenario(), DURATION_S,
            on_result=interrupt_midway, checkpoint_path=path,
        )
        assert interrupted.summary["interrupted"] == 1.0
        assert len(interrupted.results) < len(baseline.results)

        resumed = SessionService(11).run(
            StubScenario(), DURATION_S, checkpoint_path=path, resume=True
        )
        assert witness(resumed) == witness(baseline)

    def test_double_crash_double_resume(self, tmp_path):
        baseline = run_baseline()
        path = tmp_path / "s.ckpt"
        times = sorted(r.completed_at_s for r in baseline.results)
        first, second = times[len(times) // 4], times[3 * len(times) // 4]

        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                crash_point=CrashPoint(at_s=first),
            )
        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                resume=True, crash_point=CrashPoint(at_s=second),
            )
        resumed = SessionService(11).run(
            StubScenario(), DURATION_S, checkpoint_path=path, resume=True
        )
        assert witness(resumed) == witness(baseline)


# -- a sealed log ------------------------------------------------------------

def result_lines(path) -> int:
    return sum(
        json.loads(line)["type"] == "result"
        for line in path.read_text().splitlines()
    )


class TestSealedLogResume:
    """A log a normal finish sealed already holds the drained tail.

    Resuming it must replay the drain, not serve it again: the witness
    stays the uninterrupted run's and no result line is appended.
    """

    @staticmethod
    def _service() -> SessionService:
        # Requests of the last query ticks are still pending at the
        # session end, so the drain serves a tail.
        return SessionService(
            11, service_config(max_batch_size=8, max_latency_s=2.0)
        )

    def _baseline(self):
        tracer = Tracer()
        report = self._service().run(StubScenario(), DURATION_S, tracer=tracer)
        (drain,) = [
            doc for doc in tracer.logical_documents()
            if doc["name"] == "service.drain"
        ]
        assert drain["attrs"]["n_drained"] > 0
        return report

    def test_finished_log_resumes_to_the_same_witness(self, tmp_path):
        baseline = self._baseline()
        path = tmp_path / "s.ckpt"
        self._service().run(StubScenario(), DURATION_S, checkpoint_path=path)
        assert load_checkpoint(path).sealed
        logged = result_lines(path)
        for _ in range(2):
            resumed = self._service().run(
                StubScenario(), DURATION_S, checkpoint_path=path, resume=True
            )
            assert witness(resumed) == witness(baseline)
            assert result_lines(path) == logged
            assert load_checkpoint(path).sealed

    def test_crash_resume_then_resume_again(self, tmp_path):
        baseline = self._baseline()
        path = tmp_path / "s.ckpt"
        with pytest.raises(SimulatedCrash):
            self._service().run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                crash_point=CrashPoint(at_s=mid_session_time(baseline)),
            )
        for _ in range(2):
            resumed = self._service().run(
                StubScenario(), DURATION_S, checkpoint_path=path, resume=True
            )
            assert witness(resumed) == witness(baseline)

    def test_interrupted_log_is_not_sealed(self, tmp_path):
        path = tmp_path / "s.ckpt"

        def interrupt(result) -> None:
            raise KeyboardInterrupt

        SessionService(11).run(
            StubScenario(), DURATION_S, on_result=interrupt,
            checkpoint_path=path,
        )
        assert not load_checkpoint(path).sealed

    def test_zoned_finished_logs_resume_to_the_same_output(
        self, tmp_path, capsys
    ):
        argv = ["serve", "--env", "Env1", "--zones", "2", "--duration", "6",
                "--seed", "0", "--query-interval", "1.0", "--json"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        ckpt = ["--checkpoint-dir", str(tmp_path)]
        assert main(argv + ckpt) == 0
        assert capsys.readouterr().out == baseline
        logged = {p.name: result_lines(p) for p in tmp_path.iterdir()}
        assert sorted(logged) == ["z0.ckpt", "z1.ckpt"]
        for _ in range(2):
            assert main(argv + ckpt + ["--resume"]) == 0
            assert capsys.readouterr().out == baseline
            assert {
                p.name: result_lines(p) for p in tmp_path.iterdir()
            } == logged


# -- resume guard rails -------------------------------------------------------

class TestResumeGuards:
    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            SessionService(11).run(StubScenario(), DURATION_S, resume=True)

    def test_resume_from_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            SessionService(11).run(
                StubScenario(), DURATION_S,
                checkpoint_path=tmp_path / "absent.ckpt", resume=True,
            )

    def test_header_mismatch_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                crash_point=CrashPoint(at_s=0.0),
            )
        other = SessionService(
            11, service_config(query_interval_s=2.0)
        )
        with pytest.raises(CheckpointError, match="header mismatch"):
            other.run(
                StubScenario(), DURATION_S, checkpoint_path=path, resume=True
            )


# -- checkpoint file shape ----------------------------------------------------

class TestCheckpointFileShape:
    @staticmethod
    def _lines(path):
        return [json.loads(s) for s in path.read_text().splitlines()]

    def test_clean_run_ends_with_end_marker(self, tmp_path):
        path = tmp_path / "s.ckpt"
        SessionService(11).run(
            StubScenario(), DURATION_S, checkpoint_path=path
        )
        lines = self._lines(path)
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "end"
        assert lines[-1]["interrupted"] is False

    def test_hard_crash_leaves_no_end_marker(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                crash_point=CrashPoint(at_s=0.0),
            )
        types = [d["type"] for d in self._lines(path)]
        assert "end" not in types  # kill -9 semantics: no polite footer

    def test_resume_writes_resume_marker(self, tmp_path):
        path = tmp_path / "s.ckpt"
        with pytest.raises(SimulatedCrash):
            SessionService(11).run(
                StubScenario(), DURATION_S, checkpoint_path=path,
                crash_point=CrashPoint(at_s=0.0),
            )
        SessionService(11).run(
            StubScenario(), DURATION_S, checkpoint_path=path, resume=True
        )
        types = [d["type"] for d in self._lines(path)]
        assert types.count("resume") == 1
        assert types[-1] == "end"


# -- crash point semantics ----------------------------------------------------

class TestCrashPoint:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashPoint(at_s=-1.0)

    def test_due_and_fire(self):
        point = CrashPoint(at_s=2.0)
        assert not point.due(1.9)
        point.fire(1.9)  # not due: no-op
        assert point.due(2.0)
        with pytest.raises(SimulatedCrash, match="t=2"):
            point.fire(2.0)


# -- serving path: every engine pass is salvaged -------------------------------

class TestSupervisedServing:
    def _pipeline(self, config: ServiceConfig | None = None):
        deployment = make_scenario_deployment(5)
        deployment.simulator.warm_up()
        return ServicePipeline(
            deployment.grid, deployment.simulator.middleware, config
        ), deployment

    def test_poisoned_estimator_degrades_not_raises(self):
        pipeline, deployment = self._pipeline(service_config())
        real = pipeline.vire.estimate_outcomes

        def poisoned(readings):
            if len(readings) > 0:
                raise RuntimeError("estimator pass blew up")
            return real(readings)

        pipeline.vire.estimate_outcomes = poisoned  # type: ignore[method-assign]
        now = deployment.simulator.now
        pipeline.submit_request("tag-asset", now)
        results = pipeline.drain(now)
        assert len(results) == 1
        assert results[0].degraded
        assert results[0].estimator == "LANDMARC"
        assert (
            pipeline.metrics.counter(
                "runtime_shard_salvages_total", ""
            ).value >= 1.0
        )

    def test_default_pipeline_answers_with_landmarc_when_vire_raises(self):
        # No config at all: salvage is not a switch, so a VIRE pass that
        # raises degrades to LANDMARC instead of crashing the session.
        pipeline, deployment = self._pipeline()

        def poisoned(readings):
            raise RuntimeError("estimator pass blew up")

        pipeline.vire.estimate_outcomes = poisoned  # type: ignore[method-assign]
        now = deployment.simulator.now
        pipeline.submit_request("tag-asset", now)
        results = pipeline.drain(now)
        assert [r.estimator for r in results] == ["LANDMARC"]
        assert results[0].reason == "empty_intersection"

    def test_clean_default_session_has_no_runtime_trail(self):
        tracer = Tracer()
        report = SessionService(11, ServiceConfig()).run(
            StubScenario(), DURATION_S, tracer=tracer
        )
        assert report.results
        prometheus = report.render_prometheus()
        assert "runtime_" not in prometheus
        names = set(stage_statistics([root.document() for root in tracer.roots]))
        assert "service.vire_pass" in names
        assert not [n for n in names if n.startswith("runtime.")]


# -- CLI: serve --kill-at / --resume / --json ---------------------------------

class TestServeCli:
    ARGS = ["serve", "--env", "Env1", "--duration", "8", "--seed", "3",
            "--query-interval", "1.0"]

    def test_kill_resume_json_byte_identical(self, tmp_path, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        baseline = capsys.readouterr().out

        path = str(tmp_path / "s.ckpt")
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--checkpoint", path, "--kill-at", "4",
                              "--quiet"])
        assert exc.value.code == 17
        captured = capsys.readouterr()
        assert "simulated crash" in captured.err

        assert main(self.ARGS + ["--checkpoint", path, "--resume",
                                 "--json"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == baseline

    def test_json_is_valid_and_carries_identity(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["env"] == "Env1"
        assert doc["seed"] == 3
        assert doc["n_results"] == len(doc["results"])


# -- SIGTERM translation ------------------------------------------------------

class TestGracefulSigterm:
    def test_sigterm_becomes_keyboard_interrupt_and_restores(self):
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _graceful_sigterm():
                assert signal.getsignal(signal.SIGTERM) is not previous
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(1.0)  # signal delivery preempts the sleep
                pytest.fail("SIGTERM was not delivered")
        assert signal.getsignal(signal.SIGTERM) is previous
