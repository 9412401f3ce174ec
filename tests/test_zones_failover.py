"""Tests for repro.zones.failover: supervision, respawn, admission.

The contract under test (docs/ZONES.md, "Failover"):

* empty fault plan → supervision is invisible (no interim block in the
  witness, every supervision counter at zero);
* zone crash with respawn → byte-identical to the uninterrupted run
  (cold respawn replays the full journal; checkpointed respawn resumes
  from the zone's WAL and replays the gap) — and a respawn that does
  *not* reconverge is caught by the same witness;
* zone permanently down (respawn budget spent) → explicit degradation:
  gateway-interim answers (``reason="zone_down"``), rerouted handoffs,
  availability < 1 — never a silent drop;
* admission control and slow-zone handoff shedding are deterministic
  and counted.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SlowZoneFault,
    WorkerHangFault,
    ZoneCrashFault,
    ZoneLinkLossFault,
    is_zone_fault,
    zone_chaos_preset,
)
from repro.service.pipeline import ServiceConfig
from repro.zones import (
    INTERIM_ESTIMATOR,
    ZONE_DOWN_REASON,
    AdmissionPolicy,
    RoamingTag,
    TokenBucket,
    ZoneGateway,
    scaled_site_plan,
    slice_fault_plan,
)
from repro.zones import failover

from .conftest import load_benchmark


def _config(**kw) -> ServiceConfig:
    kw.setdefault("query_interval_s", 1.0)
    return ServiceConfig(**kw)


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def _roaming_plan(n_zones: int = 2, *, x_end: float = 6.0):
    tag = RoamingTag(
        label="roam-0",
        route=((0.0, (1.5, 1.5)), (6.0, (x_end, 1.5))),
    )
    return dataclasses.replace(
        scaled_site_plan("Env1", n_zones, seed=0), roaming=(tag,)
    )


CRASH_Z0 = FaultPlan(faults=(ZoneCrashFault(zone_id="z0", at_s=3.0),))

#: One crash more than the respawn budget: z0 respawns twice (at 1 s
#: and 2 s), then dies for good at 3 s.
CRASH_LOOP_Z0 = FaultPlan(faults=tuple(
    ZoneCrashFault(zone_id="z0", at_s=t) for t in (1.0, 2.0, 3.0)
))


@pytest.fixture(scope="module")
def baseline_report():
    """Uninterrupted 2-zone roaming run (default supervised gateway)."""
    report = ZoneGateway(_roaming_plan(), _config()).run(6.0)
    assert report.handoffs, "route must cross the zone boundary"
    return report


@pytest.fixture(scope="module")
def baseline_witness(baseline_report) -> str:
    return _witness(baseline_report)


class TestRetryPolicyConsolidation:
    def test_zone_budgets_are_constants(self):
        # The zone path's budgets are fixed: two retries per failed
        # call and two respawns per zone.
        assert failover.ZONE_CALL_RETRIES == 2
        assert failover.MAX_RESPAWNS == 2


class TestZoneFaultModels:
    def test_zone_faults_are_scope_tagged(self):
        for fault in (
            ZoneCrashFault("z0", at_s=1.0),
            WorkerHangFault("z0", at_s=1.0),
            ZoneLinkLossFault("z0", start_s=1.0, duration_s=2.0),
            SlowZoneFault("z0", start_s=1.0, duration_s=2.0),
        ):
            assert is_zone_fault(fault)

    def test_record_injector_rejects_zone_faults(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(CRASH_Z0)

    def test_slice_fault_plan_drops_zone_faults(self):
        assert len(slice_fault_plan(CRASH_Z0, "z0")) == 0

    def test_zone_chaos_presets(self):
        crash = zone_chaos_preset("crash", zone_id="z3", start_s=5.0)
        assert len(crash) == 1
        (fault,) = tuple(crash)
        assert isinstance(fault, ZoneCrashFault)
        assert fault.zone_id == "z3" and fault.at_s == 5.0
        assert len(zone_chaos_preset("none")) == 0
        for name, cls in (
            ("hang", WorkerHangFault),
            ("partition", ZoneLinkLossFault),
            ("brownout", SlowZoneFault),
        ):
            (fault,) = tuple(zone_chaos_preset(name))
            assert isinstance(fault, cls)

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            ZoneCrashFault("", at_s=1.0)
        with pytest.raises(ConfigurationError):
            ZoneCrashFault("z0", at_s=-1.0)
        with pytest.raises(ConfigurationError):
            ZoneLinkLossFault("z0", start_s=0.0, duration_s=0.0)
        with pytest.raises(ConfigurationError):
            SlowZoneFault("z0", start_s=-1.0, duration_s=1.0)

    def test_window_faults_answer_active_at(self):
        for cls in (ZoneLinkLossFault, SlowZoneFault):
            fault = cls("z0", start_s=1.0, duration_s=2.0)
            assert not fault.active_at(0.999)
            assert fault.active_at(1.0)  # closed at the left
            assert fault.active_at(2.999)
            assert not fault.active_at(3.0)  # open at the right

    def test_plan_accepts_zone_faults_without_compile(self):
        plan = FaultPlan(faults=(
            ZoneCrashFault("z0", at_s=1.0),
            SlowZoneFault("z1", start_s=0.0, duration_s=1.0),
        ))
        assert len(plan) == 2
        assert not any(hasattr(f, "compile") for f in plan)


class TestFailoverIdentity:
    """Supervision is invisible unless a fault actually fires."""

    def test_crash_cold_respawn_is_byte_identical(self, baseline_witness):
        report = ZoneGateway(
            _roaming_plan(), _config(), fault_plan=CRASH_Z0
        ).run(6.0)
        assert _witness(report) == baseline_witness
        assert report.summary["zone_crashes"] == 1.0
        assert report.summary["zone_respawns"] == 1.0
        assert report.summary["availability"] == 1.0

    def test_crash_checkpointed_respawn_is_byte_identical(self, tmp_path):
        clean_dir = tmp_path / "clean"
        crash_dir = tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()
        clean = ZoneGateway(
            _roaming_plan(), _config(), checkpoint_dir=str(clean_dir)
        ).run(6.0)
        crashed = ZoneGateway(
            _roaming_plan(), _config(), fault_plan=CRASH_Z0,
            checkpoint_dir=str(crash_dir),
        ).run(6.0)
        assert _witness(crashed) == _witness(clean)
        assert crashed.summary["zone_respawns"] == 1.0

    def test_desynchronised_respawn_breaks_the_witness(
        self, baseline_witness, monkeypatch
    ):
        """The recovery gate can fail: a respawn whose world is seeded
        differently (one zone's RNG out of step) must not reproduce the
        uninterrupted witness."""
        builds: dict[str, int] = {}
        real_worker = failover.ZoneWorker

        def worker(spec, *args, **kwargs):
            builds[spec.zone_id] = builds.get(spec.zone_id, 0) + 1
            if spec.zone_id == "z0" and builds["z0"] > 1:
                spec = spec.with_(seed=spec.seed + 1)
            return real_worker(spec, *args, **kwargs)

        monkeypatch.setattr(failover, "ZoneWorker", worker)
        report = ZoneGateway(
            _roaming_plan(), _config(), fault_plan=CRASH_Z0
        ).run(6.0)
        assert builds["z0"] == 2, "the crash must force a cold respawn"
        assert report.summary["zone_respawns"] == 1.0
        assert _witness(report) != baseline_witness

    def test_hang_times_out_retries_then_respawns(self, baseline_witness):
        plan = FaultPlan(faults=(WorkerHangFault(zone_id="z0", at_s=3.0),))
        report = ZoneGateway(
            _roaming_plan(), _config(), fault_plan=plan
        ).run(6.0)
        assert _witness(report) == baseline_witness
        # The initial call and both retries time out, then the wedged
        # instance is killed and respawned.
        assert report.summary["zone_timeouts"] == 3.0
        assert report.summary["zone_retries"] == 2.0
        assert report.summary["zone_respawns"] == 1.0

    def test_link_loss_catches_up_byte_identical(self, baseline_witness):
        # Window chosen to not overlap the handoff: the zone falls
        # behind the gateway clock, then replays the journaled calls at
        # the chunks they were issued against.
        plan = FaultPlan(faults=(
            ZoneLinkLossFault(zone_id="z0", start_s=0.5, duration_s=1.0),
        ))
        report = ZoneGateway(
            _roaming_plan(), _config(), fault_plan=plan
        ).run(6.0)
        assert _witness(report) == baseline_witness
        assert report.summary["zone_link_failures"] > 0

    def test_link_loss_over_handoff_is_deterministic(self):
        plan = FaultPlan(faults=(
            ZoneLinkLossFault(zone_id="z0", start_s=2.0, duration_s=2.0),
        ))
        runs = [
            _witness(
                ZoneGateway(
                    _roaming_plan(), _config(), fault_plan=plan
                ).run(6.0)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestZoneDownDegradation:
    """Respawn budget spent: explicit interim serving, never silence."""

    @pytest.fixture(scope="class")
    def down_report(self):
        return ZoneGateway(
            _roaming_plan(), _config(), fault_plan=CRASH_LOOP_Z0
        ).run(6.0)

    def test_zone_marked_down_and_availability_drops(self, down_report):
        s = down_report.summary
        assert s["zones_down"] == 1.0
        assert s["zone_crashes"] == 3.0
        assert s["zone_respawns"] == float(failover.MAX_RESPAWNS)
        assert 0.0 < s["availability"] < 1.0

    def test_interim_results_are_explicitly_degraded(self, down_report):
        assert down_report.interim
        for result in down_report.interim:
            assert result.estimator == INTERIM_ESTIMATOR
            assert result.degraded
            assert result.reason == ZONE_DOWN_REASON
        assert down_report.summary["interim_results"] == float(
            len(down_report.interim)
        )

    def test_witness_records_interim_block(self, down_report):
        doc = down_report.witness_document()
        assert doc["n_interim"] == len(down_report.interim)
        assert len(doc["interim"]) == len(down_report.interim)
        assert doc["interim"][0]["reason"] == ZONE_DOWN_REASON

    def test_faultfree_witness_has_no_interim_block(self, baseline_witness):
        doc = json.loads(baseline_witness)
        assert "interim" not in doc
        assert "n_interim" not in doc

    def test_failover_benchmark_gate_fails_on_a_dead_zone(
        self, baseline_report, down_report
    ):
        # bench_zone_failover's acceptance over a zone crashed past its
        # respawn budget: availability drops below the floor and the
        # interim answers change the witness.
        gate = load_benchmark("bench_zone_failover").acceptance
        assert gate(baseline_report, baseline_report) == {
            "availability_floor": 0.99,
            "availability": 1.0,
            "availability_ok": True,
            "recovery_identical": True,
        }
        failed = gate(baseline_report, down_report)
        assert failed["availability"] < 0.99
        assert failed["availability_ok"] is False
        assert failed["recovery_identical"] is False

    def test_roaming_tag_is_rerouted_not_dropped(self, down_report):
        # The tag was activated in z0, which died at t=3 and never came
        # back: ownership must move to z1 with the cached estimate.
        moves = [
            (h.from_zone, h.to_zone, h.carried_source)
            for h in down_report.handoffs
            if h.tag == "roam-0"
        ]
        assert ("z0", "z1", "cache") in moves
        # After the handoff the tag keeps producing *live* results.
        z1_results = [
            r for r in down_report.zones["z1"].results
            if r.tag_id == "tag-roam-0"
        ]
        assert z1_results

    def test_down_zone_report_is_flagged(self, down_report):
        summary = down_report.zones["z0"].summary
        assert summary["zone_down"] == 1.0


class TestSaturationShedding:
    def test_preferred_zone_saturated_reroutes_handoff(self):
        # z0 crash-loops past its respawn budget while z1 — the tag's
        # nearest zone — is browned out: the handoff must land on z2
        # and say why.
        plan3 = dataclasses.replace(
            scaled_site_plan("Env1", 3, seed=0),
            roaming=(RoamingTag(
                label="roam-0",
                route=((0.0, (1.5, 1.5)), (6.0, (5.0, 1.5))),
            ),),
        )
        faults = FaultPlan(faults=(
            *(ZoneCrashFault(zone_id="z0", at_s=t) for t in (1.0, 1.5, 2.0)),
            SlowZoneFault(zone_id="z1", start_s=0.0, duration_s=10.0),
        ))
        report = ZoneGateway(plan3, _config(), fault_plan=faults).run(6.0)
        assert report.summary["zones_down"] == 1.0
        assert report.summary["zone_slow_ticks"] > 0
        rerouted = [h for h in report.handoffs if h.rerouted_from]
        assert rerouted
        assert rerouted[0].to_zone == "z2"
        assert report.summary["handoffs_rerouted"] == float(len(rerouted))
        entry = report.witness_document()["handoffs"][0]
        assert entry["rerouted_from"]
        assert entry["carried_source"] == "cache"


class TestAdmissionControl:
    def test_token_bucket_refills_on_the_sim_clock(self):
        bucket = TokenBucket(AdmissionPolicy(rate_per_s=1.0, burst=2))
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.5)
        assert bucket.try_acquire(1.5)
        # Long idle: the refill caps at the burst size.
        assert bucket.try_acquire(100.0)
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_admission_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(burst=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_per_s", math.nan),
            ("rate_per_s", math.inf),
            ("rate_per_s", True),
            ("burst", math.nan),
            ("burst", math.inf),
            ("burst", True),
            ("burst", 1.5),
        ],
    )
    def test_admission_policy_rejects_non_finite_bool_and_fractional(
        self, field, value
    ):
        with pytest.raises(ConfigurationError, match=field):
            AdmissionPolicy(**{field: value})

    def test_rate_limit_sheds_and_advances_schedule(self):
        policy = AdmissionPolicy(rate_per_s=0.5, burst=1)
        limited = ZoneGateway(
            _roaming_plan(), _config(), admission=policy
        ).run(6.0)
        clean = ZoneGateway(_roaming_plan(), _config()).run(6.0)
        assert limited.summary["requests_shed"] > 0
        assert limited.summary["results"] < clean.summary["results"]
        # Deterministic: same policy, same sheds.
        again = ZoneGateway(
            _roaming_plan(), _config(), admission=policy
        ).run(6.0)
        assert _witness(again) == _witness(limited)

    def test_admission_with_checkpoints_is_rejected(self, tmp_path):
        gateway = ZoneGateway(
            _roaming_plan(), _config(), admission=AdmissionPolicy(),
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(ConfigurationError):
            gateway.run(4.0)


class TestGatewayGuards:
    def test_admission_must_be_an_admission_policy(self):
        for bad in (True, {"rate_per_s": 1.0}, object()):
            with pytest.raises(ConfigurationError, match="AdmissionPolicy"):
                ZoneGateway(_roaming_plan(), _config(), admission=bad)


class TestGatewayMetricsNaming:
    """Satellite regression: queue counters are zone-namespaced and the
    gateway block renders under its own ``repro_gateway_`` namespace."""

    def test_prometheus_names(self):
        report = ZoneGateway(
            scaled_site_plan("Env1", 2, seed=0), _config()
        ).run(3.0)
        prom = report.render_prometheus()
        for zid in ("z0", "z1"):
            assert f"repro_zone_{zid}_ingest_records_dropped_total" in prom
            assert f"repro_zone_{zid}_ingest_records_shed_total" in prom
        assert "repro_gateway_zone_crashes_total" in prom
        assert "repro_gateway_zone_respawns_total" in prom
        assert "repro_gateway_requests_shed_total" in prom
        assert "repro_gateway_availability" in prom
        # No un-namespaced leakage from the gateway registry.
        assert "\nrepro_zone_crashes_total" not in prom

    def test_summary_counters_present(self):
        report = ZoneGateway(
            scaled_site_plan("Env1", 2, seed=0), _config()
        ).run(3.0)
        for key in (
            "availability", "zone_crashes", "zone_respawns",
            "zone_timeouts", "zone_link_failures", "zones_down",
            "requests_shed", "handoffs_rerouted", "interim_results",
        ):
            assert key in report.summary


class TestFailoverCLI:
    def test_kill_zone_run_matches_clean_run(self, capsys, tmp_path):
        from repro.cli import main

        def run(extra):
            main([
                "serve", "--env", "Env1", "--zones", "2",
                "--duration", "4", "--query-interval", "1",
                "--seed", "0", "--json", *extra,
            ])
            return json.loads(capsys.readouterr().out)

        clean = run([])
        killed = run([
            "--kill-zone", "z0@2.0",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ])
        assert killed["failover"]["zone_respawns"] == 1
        assert killed["failover"]["availability"] == 1.0
        # Recovery witness: identical answers; the clean run carries no
        # supervision block at all.
        assert "failover" not in clean
        killed.pop("failover")
        assert killed == clean

    def test_kill_zone_flag_validation(self, capsys):
        from repro.cli import main

        for argv in (
            ["serve", "--kill-zone", "z0@2.0"],  # requires --zones
            ["serve", "--zones", "2", "--kill-zone", "z0"],
            ["serve", "--zones", "2", "--kill-zone", "z0@soon"],
            ["serve", "--zones", "2", "--kill-zone", "z9@1.0"],
            ["serve", "--zones", "2", "--resume"],
            # Zero and empty values are still values: the guards test
            # presence, not truthiness.
            ["serve", "--zones", "2", "--kill-at", "0"],
            ["serve", "--zones", "2", "--checkpoint", ""],
            ["serve", "--kill-zone", ""],
            ["serve", "--checkpoint-dir", ""],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:"), argv

    def test_chaos_zone_flags_require_zones(self, capsys):
        from repro.cli import main

        for extra in (
            ["--zone-preset", "hang", "--zone-id", "z9"],
            ["--zone-preset", "crash"],
            ["--zone-id", "z0"],
            ["--zone-fault-start", "0"],
            ["--zone-fault-duration", "4"],
        ):
            argv = ["chaos", "--env", "Env1", "--duration", "2", "--json",
                    *extra]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "requires --zones" in err

    def test_chaos_zone_flags_default_under_zones(self, capsys):
        from repro.cli import main

        assert main([
            "chaos", "--env", "Env1", "--zones", "2", "--duration", "10",
            "--preset", "none", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        # crash on z0 at 8 s, as before the flags defaulted to None
        assert (doc["zone_preset"], doc["zone_id"]) == ("crash", "z0")
        assert doc["zone_crashes"] == 1

    def test_chaos_zones_json_is_deterministic(self, capsys):
        from repro.cli import main

        def run():
            main([
                "chaos", "--env", "Env1", "--zones", "2",
                "--duration", "6", "--preset", "none",
                "--zone-preset", "crash", "--zone-id", "z0",
                "--zone-fault-start", "3",
                "--json",
            ])
            return capsys.readouterr().out

        first, second = run(), run()
        assert first == second
        doc = json.loads(first)
        assert doc["zone_crashes"] == 1
        assert doc["zone_respawns"] == 1
        assert doc["availability"] == 1.0

    def test_chaos_zones_calibrate_adds_per_zone_witness(self, capsys):
        from repro.cli import main

        def run(*extra):
            main([
                "chaos", "--env", "Env1", "--zones", "1",
                "--duration", "20", "--preset", "drift",
                "--zone-preset", "none", "--json", *extra,
            ])
            return json.loads(capsys.readouterr().out)

        off, on = run(), run("--calibrate")
        assert "calibration" not in off["by_zone"]["z0"]
        cal = on["by_zone"]["z0"]["calibration"]
        assert cal["transitions"] > 0
        # The drift preset's injected biases, from the zone's sliced plan.
        assert cal["bias_table"]["reader-0"]["injected_db"] > 0
        assert cal["bias_table"]["reader-0"]["estimated_db"] > 0
        # The corrector is live, so answers move too.
        assert on["by_zone"]["z0"] != {**off["by_zone"]["z0"],
                                       "calibration": cal}
