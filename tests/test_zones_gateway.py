"""Tests for repro.zones.gateway: determinism, handoff, CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments.scenarios import paper_scenario
from repro.faults.models import ReaderOutageFault
from repro.faults.plan import FaultPlan
from repro.obs import Tracer
from repro.service.pipeline import ServiceConfig
from repro.zones import (
    RoamingTag,
    ZoneGateway,
    ZoneWorker,
    scaled_site_plan,
    single_zone_plan,
)


def _config(**kw) -> ServiceConfig:
    kw.setdefault("query_interval_s", 1.0)
    return ServiceConfig(**kw)


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


class TestGatewayDeterminism:
    def test_single_zone_gateway_matches_the_service(self):
        from repro.service.session import LocalizationService

        scenario = paper_scenario("Env1", n_trials=1, base_seed=3)
        config = _config()
        baseline = LocalizationService(config).run(scenario, 6.0)
        report = ZoneGateway(single_zone_plan(scenario), config).run(6.0)
        (zone_report,) = report.zones.values()
        assert json.dumps(
            zone_report.witness_document(), sort_keys=True
        ) == json.dumps(baseline.witness_document(), sort_keys=True)
        assert report.handoffs == ()

    def test_two_zone_repeat_is_byte_identical(self):
        config = _config()
        runs = [
            _witness(
                ZoneGateway(
                    scaled_site_plan("Env1", 2, seed=0), config
                ).run(4.0)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_zones_are_independent_seeded_worlds(self):
        report = ZoneGateway(
            scaled_site_plan("Env1", 2, seed=0), _config()
        ).run(4.0)
        w0 = report.zones["z0"].witness_document()
        w1 = report.zones["z1"].witness_document()
        assert w0["n_results"] > 0
        # Same geometry, different derived seeds: different RSSI worlds.
        assert w0["results"] != w1["results"]

    def test_gateway_summary_totals_the_zones(self):
        report = ZoneGateway(
            scaled_site_plan("Env1", 2, seed=0), _config()
        ).run(4.0)
        assert report.summary["zones"] == 2.0
        assert report.summary["results"] == sum(
            len(r.results) for r in report.zones.values()
        )
        merged = report.render_prometheus()
        assert "repro_zone_z0_service_requests_total" in merged
        assert "repro_zone_z1_service_requests_total" in merged


ROAM_ROUTE = ((0.0, (1.5, 1.5)), (6.0, (6.0, 1.5)))


def _roaming_plan(**kw):
    return scaled_site_plan(
        "Env1", 2, seed=0,
        roaming=(RoamingTag("r0", ROAM_ROUTE),), **kw
    )


class TestHandoff:
    def test_crossing_hands_off_with_a_carried_estimate(self):
        report = ZoneGateway(_roaming_plan(), _config()).run(8.0)
        assert len(report.handoffs) == 1
        (handoff,) = report.handoffs
        assert handoff.tag == "r0"
        assert handoff.from_zone == "z0"
        assert handoff.to_zone == "z1"
        # The route crosses the ownership boundary mid-run, not at the
        # endpoints, and the sender had already localized the tag.
        assert 0.0 < handoff.t_rel_s < 6.0
        assert handoff.carried_estimate is not None
        # Both zones served the tag while they owned it.
        for zid in ("z0", "z1"):
            tags = {r.tag_id for r in report.zones[zid].results}
            assert "tag-r0" in tags

    def test_roaming_run_repeats_byte_identically(self):
        config = _config()
        first = _witness(ZoneGateway(_roaming_plan(), config).run(8.0))
        second = _witness(ZoneGateway(_roaming_plan(), config).run(8.0))
        assert first == second

    def test_handoff_spans_are_traced_on_the_gateway_clock(self):
        tracer = Tracer()
        report = ZoneGateway(_roaming_plan(), _config()).run(
            8.0, tracer=tracer
        )
        assert len(report.handoffs) == 1

        def walk(spans):
            for s in spans:
                yield s
                yield from walk(s.children)

        spans = [
            s for s in walk(tracer.roots) if s.name == "gateway.handoff"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["from_zone"] == "z0"
        assert spans[0].attrs["to_zone"] == "z1"
        assert spans[0].attrs["t_rel_s"] == report.handoffs[0].t_rel_s
        # Handoff spans are stamped with the gateway's relative clock.
        assert spans[0].t == report.handoffs[0].t_rel_s

    @pytest.mark.slow
    def test_handoff_during_sender_degradation(self):
        # The sending zone loses a reader while the tag is crossing:
        # the protocol must still execute (it never consults estimator
        # health) and the receiving zone keeps serving the tag.
        route = ((0.0, (1.5, 1.5)), (20.0, (6.0, 1.5)))
        plan = scaled_site_plan(
            "Env1", 2, seed=0, roaming=(RoamingTag("r0", route),)
        )
        faults = FaultPlan(
            [ReaderOutageFault("z0/reader-0", start_s=0.0, duration_s=60.0)],
            seed=1,
        )
        report = ZoneGateway(plan, _config(), fault_plan=faults).run(30.0)
        assert any(
            h.tag == "r0" and h.from_zone == "z0" and h.to_zone == "z1"
            for h in report.handoffs
        )
        # The outage bit only z0.
        assert report.zones["z0"].summary["fault_records_dropped"] > 0
        assert report.zones["z1"].summary["fault_records_dropped"] == 0
        after = [
            r for r in report.zones["z1"].results if r.tag_id == "tag-r0"
        ]
        assert after, "receiver never served the handed-off tag"

    @pytest.mark.slow
    def test_handoff_into_a_zone_with_an_open_breaker(self):
        # The receiving zone has a permanently dark reader, so its
        # breaker opens; the handoff still lands and the tag is still
        # served there (degraded service beats no service).
        route = ((0.0, (1.5, 1.5)), (20.0, (6.0, 1.5)))
        plan = scaled_site_plan(
            "Env1", 2, seed=0, roaming=(RoamingTag("r0", route),)
        )
        # The dark reader's series cross the 30 s staleness horizon
        # ~30 s into the run, so run long enough for the breaker to
        # accumulate its consecutive-failure threshold after that.
        faults = FaultPlan(
            [ReaderOutageFault("z1/reader-0", start_s=0.0, duration_s=90.0)],
            seed=1,
        )
        report = ZoneGateway(plan, _config(), fault_plan=faults).run(40.0)
        assert any(h.to_zone == "z1" for h in report.handoffs)
        z1 = report.zones["z1"]
        assert z1.summary["breaker_transitions"] > 0
        served = [r for r in z1.results if r.tag_id == "tag-r0"]
        assert served, "open-breaker zone never served the tag"
        # Determinism holds under faults too.
        repeat = ZoneGateway(plan, _config(), fault_plan=faults).run(40.0)
        assert _witness(repeat) == _witness(report)


class TestGatewayGuards:
    def test_resume_requires_a_checkpoint_dir(self):
        gateway = ZoneGateway(scaled_site_plan("Env1", 2), _config())
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            gateway.run(4.0, resume=True)

    def test_checkpoint_dir_gets_one_file_per_zone(self, tmp_path):
        gateway = ZoneGateway(
            scaled_site_plan("Env1", 2, seed=0), _config(),
            checkpoint_dir=str(tmp_path),
        )
        gateway.run(4.0)
        assert (tmp_path / "z0.ckpt").exists()
        assert (tmp_path / "z1.ckpt").exists()


class TestServeZonesCLI:
    def test_json_output_is_deterministic(self, capsys):
        argv = [
            "serve", "--env", "Env1", "--zones", "2",
            "--duration", "4", "--seed", "0", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["zones_requested"] == 2
        assert set(doc["zones"]) == {"z0", "z1"}
        assert doc["n_results"] > 0

    def test_zones_conflicts_with_checkpoint_flags(self, capsys):
        assert main([
            "serve", "--env", "Env1", "--zones", "2",
            "--duration", "2", "--checkpoint", "x.ckpt",
        ]) == 2
        assert "not supported with --zones" in capsys.readouterr().err
