"""Tests for repro.zones.worker: the safety rail, checkpoints, metrics."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
)
from repro.experiments.scenarios import paper_scenario
from repro.faults.crash import CrashPoint, SimulatedCrash
from repro.faults.plan import chaos_preset
from repro.service.pipeline import ServiceConfig
from repro.service.session import LocalizationService
from repro.zones import ZoneWorker, scaled_site_plan, slice_fault_plan

from .conftest import single_zone_plan


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def _config(**kw) -> ServiceConfig:
    kw.setdefault("query_interval_s", 1.0)
    return ServiceConfig(**kw)


class TestSafetyRail:
    """A single-zone worker is bitwise identical to the unzoned service."""

    def test_single_zone_witness_matches_the_service(self):
        scenario = paper_scenario("Env1", n_trials=1, base_seed=3)
        config = _config()
        baseline = LocalizationService(config).run(scenario, 8.0)
        plan = single_zone_plan(scenario)
        zoned = ZoneWorker(plan.zones[0], config).run(8.0)
        assert _witness(zoned) == _witness(baseline)

    def test_safety_rail_holds_under_a_fault_plan(self):
        scenario = paper_scenario("Env1", n_trials=1, base_seed=3)
        config = _config()
        faults = chaos_preset("moderate", seed=5)
        baseline = LocalizationService(config).run(
            scenario, 8.0, fault_plan=faults
        )
        plan = single_zone_plan(scenario)
        zoned = ZoneWorker(
            plan.zones[0],
            config,
            fault_plan=slice_fault_plan(faults, "z0"),
        ).run(8.0)
        assert _witness(zoned) == _witness(baseline)


class TestZoneMetrics:
    def test_worker_metrics_carry_the_zone_namespace(self):
        plan = scaled_site_plan("Env1", 2, seed=0)
        worker = ZoneWorker(plan.zone("z0"), _config())
        names = [m.name for m in worker.metrics]
        assert names
        assert all(n.startswith("repro_zone_z0_") for n in names)

    def test_two_zones_render_without_name_collisions(self):
        plan = scaled_site_plan("Env1", 2, seed=0)
        w0 = ZoneWorker(plan.zone("z0"), _config())
        w1 = ZoneWorker(plan.zone("z1"), _config())
        names0 = {m.name for m in w0.metrics}
        names1 = {m.name for m in w1.metrics}
        assert not names0 & names1
        merged = w0.metrics.render_prometheus() + "\n" + \
            w1.metrics.render_prometheus()
        assert "repro_zone_z0_service_requests_total" in merged
        assert "repro_zone_z1_service_requests_total" in merged


class TestZoneCheckpoints:
    def test_resuming_another_zones_checkpoint_fails_loudly(self, tmp_path):
        plan = scaled_site_plan("Env1", 2, seed=0)
        path = tmp_path / "z0.ckpt"
        ZoneWorker(
            plan.zone("z0"), _config(), checkpoint_path=path
        ).run(4.0)
        thief = ZoneWorker(
            plan.zone("z1"), _config(), checkpoint_path=path, resume=True
        )
        with pytest.raises(CheckpointError, match="zone"):
            thief.run(4.0)

    @pytest.mark.slow
    def test_crash_and_resume_witness_matches_uninterrupted(self, tmp_path):
        plan = scaled_site_plan("Env1", 1, seed=0)
        config = _config()
        uninterrupted = ZoneWorker(plan.zone("z0"), config).run(8.0)

        path = tmp_path / "z0.ckpt"
        with pytest.raises(SimulatedCrash):
            ZoneWorker(
                plan.zone("z0"), config,
                checkpoint_path=path, crash_point=CrashPoint(4.0),
            ).run(8.0)
        resumed = ZoneWorker(
            plan.zone("z0"), config, checkpoint_path=path, resume=True
        ).run(8.0)
        assert _witness(resumed) == _witness(uninterrupted)
        assert resumed.summary["resumed"] == 1.0


class TestWorkerMisuse:
    def test_step_before_start_is_an_error(self):
        plan = scaled_site_plan("Env1", 1, seed=0)
        worker = ZoneWorker(plan.zone("z0"), _config())
        with pytest.raises(SimulationError, match="not started"):
            worker.step()

    def test_resume_requires_a_checkpoint_path(self):
        plan = scaled_site_plan("Env1", 1, seed=0)
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            ZoneWorker(plan.zone("z0"), _config(), resume=True)

    def test_roaming_labels_may_not_shadow_static_tags(self):
        plan = scaled_site_plan("Env1", 1, seed=0)
        spec = plan.zone("z0")
        label = next(iter(spec.tracking_tags))
        with pytest.raises(ConfigurationError, match="collide"):
            ZoneWorker(
                spec, _config(), roaming_tags={str(label): (1.0, 1.0)}
            )

    def test_activating_an_unhosted_tag_is_an_error(self):
        plan = scaled_site_plan("Env1", 1, seed=0)
        worker = ZoneWorker(plan.zone("z0"), _config())
        with pytest.raises(ConfigurationError, match="hosts no tag"):
            worker.activate_tag("ghost")
