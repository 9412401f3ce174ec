"""Tests for repro.loadtest.generator: the open-loop harness.

Includes the ingest-overflow regression suite: shed-newest counters,
admission-control rejections and ``repro_gateway_*`` naming conventions
under sustained burst overload.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import VIREConfig
from repro.exceptions import ConfigurationError
from repro.loadtest import LoadProfile, run_load_test
from repro.service import ServiceConfig


def cheap_config(**overrides) -> ServiceConfig:
    return ServiceConfig(vire=VIREConfig(subdivisions=5), **overrides)


def witness_bytes(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


class TestSingleZone:
    def test_rated_load_serves_every_arrival(self):
        p = LoadProfile(name="rated", duration_s=6.0, rate_per_s=4.0, seed=3)
        r = run_load_test(p, config=cheap_config())
        assert r.offered == len(r.schedule) > 0
        assert r.served == r.offered
        assert r.slo["availability"] == 1.0
        assert r.admission == {"admitted": r.offered, "shed": 0}
        assert set(r.zones) == {"z0"}

    def test_same_seed_witness_is_byte_identical(self):
        p = LoadProfile(name="twice", process="burst", duration_s=6.0,
                        rate_per_s=4.0, seed=7)
        a = run_load_test(p, config=cheap_config())
        b = run_load_test(p, config=cheap_config())
        assert witness_bytes(a) == witness_bytes(b)
        assert a.wall_s != b.wall_s or True  # wall time is NOT compared

    def test_wall_clock_never_leaks_into_the_witness(self):
        p = LoadProfile(name="clock", duration_s=4.0, rate_per_s=3.0)
        r = run_load_test(p, config=cheap_config())
        assert "wall" not in witness_bytes(r)

    def test_witness_is_strict_json(self):
        p = LoadProfile(name="strict", duration_s=4.0, rate_per_s=3.0)
        doc = run_load_test(p, config=cheap_config()).witness_document()
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
        assert json.loads(text) == doc

    def test_capacity_point_has_every_model_feature(self):
        from repro.loadtest.capacity import CAPACITY_FEATURES, CAPACITY_TARGET

        p = LoadProfile(name="feat", duration_s=4.0, rate_per_s=3.0)
        point = run_load_test(p, config=cheap_config()).capacity_point()
        for key in CAPACITY_FEATURES + (CAPACITY_TARGET,):
            assert key in point


def _answer_line(r) -> tuple:
    return (
        r.tag_id, r.position[0].hex(), r.position[1].hex(), r.estimator,
        r.degraded, r.reason, r.requested_at_s.hex(), r.completed_at_s.hex(),
    )


class TestSingleZoneThroughGateway:
    """A 1-zone profile runs through the gateway; its answers must equal
    a lone scheduled :class:`ZoneWorker` driven directly."""

    @pytest.mark.parametrize("admission_rate", [None, 6.0])
    def test_matches_a_direct_zone_worker(self, admission_rate):
        from repro.loadtest import generate_schedule
        from repro.zones import AdmissionPolicy, ZoneWorker, scaled_site_plan
        from repro.zones.failover import ZoneAdmission

        p = LoadProfile(name="diff", process="burst", duration_s=6.0,
                        rate_per_s=8.0, seed=11,
                        admission_rate_per_s=admission_rate,
                        admission_burst=4)
        got = run_load_test(p, config=cheap_config())

        spec = scaled_site_plan(p.environment, 1, seed=p.seed).zones[0]
        worker = ZoneWorker(
            spec, cheap_config(),
            query_schedule=generate_schedule(p).for_zone(spec.zone_id),
        )
        gate = None
        if admission_rate is not None:
            gate = ZoneAdmission(
                AdmissionPolicy(rate_per_s=admission_rate, burst=4)
            )
            worker.set_admission(gate)
        ref = worker.run(p.duration_s)

        assert got.results
        assert [_answer_line(r) for r in got.results] == [
            _answer_line(r) for r in ref.results
        ]
        assert got.errors_m == tuple(float(e) for e in ref.errors_m)
        if gate is None:
            want = {"admitted": int(ref.summary["requests"]), "shed": 0}
        else:
            want = {"admitted": gate.admitted, "shed": gate.shed}
            assert gate.shed > 0
        assert got.admission == want


class TestOverload:
    """A capped executor under open-loop pressure must degrade visibly."""

    @pytest.fixture(scope="class")
    def overloaded(self):
        p = LoadProfile(name="over", duration_s=12.0, rate_per_s=30.0,
                        seed=5, max_batches_per_tick=1)
        return run_load_test(p, config=cheap_config())

    def test_queue_wait_grows_past_the_deadline(self, overloaded):
        latency = overloaded.slo["latency"]
        assert latency["p99_s"] > 5.0  # default request deadline
        assert latency["p99_s"] > latency["p50_s"]

    def test_deadline_descent_reaches_landmarc(self, overloaded):
        assert overloaded.slo["reasons"].get("deadline", 0) > 0
        assert overloaded.slo["levels"].get("landmarc", 0) > 0
        assert overloaded.slo["degraded_fraction"] > 0.0

    def test_open_loop_offers_do_not_shrink(self, overloaded):
        # The schedule is open-loop: offered load equals the schedule
        # regardless of how slowly the capped executor drains it.
        assert overloaded.offered == 360
        assert overloaded.served == overloaded.offered


class TestIngestOverflowRegressions:
    """Satellite regressions: overflow accounting under burst overload."""

    @pytest.fixture(scope="class")
    def shed_run(self):
        config = cheap_config(queue_capacity=64, queue_overflow="shed_newest")
        p = LoadProfile(name="shedq", process="burst", duration_s=8.0,
                        rate_per_s=4.0, seed=2)
        return run_load_test(p, config=config)

    def test_shed_newest_counts_refused_records(self, shed_run):
        z = shed_run.zones["z0"]
        assert z["records_shed"] > 0
        assert z["records_dropped"] == 0  # shed_newest never drops buffered
        assert z["queue_high_watermark"] == 64

    def test_shed_counter_is_exported_under_the_zone_namespace(self, shed_run):
        registry = shed_run.zone_metrics["z0"]
        counter = registry.get("ingest_records_shed_total")
        assert counter.name == "repro_zone_z0_ingest_records_shed_total"
        assert counter.value == shed_run.zones["z0"]["records_shed"]

    def test_admission_rejections_are_counted(self):
        p = LoadProfile(name="adm", duration_s=8.0, rate_per_s=24.0, seed=5,
                        max_batches_per_tick=1, admission_rate_per_s=18.0,
                        admission_burst=8)
        r = run_load_test(p, config=cheap_config())
        assert r.admission["shed"] > 0
        assert r.admission["admitted"] + r.admission["shed"] == r.offered
        registry = r.zone_metrics["z0"]
        admitted = registry.get("admission_requests_admitted_total")
        shed = registry.get("admission_requests_shed_total")
        assert admitted.name.startswith("repro_zone_z0_")
        assert int(admitted.value) == r.admission["admitted"]
        assert int(shed.value) == r.admission["shed"]

    def test_zone_witness_carries_admission_counters(self):
        p = LoadProfile(name="admw", duration_s=6.0, rate_per_s=20.0, seed=1,
                        admission_rate_per_s=6.0, admission_burst=4)
        r = run_load_test(p, config=cheap_config())
        z = r.zones["z0"]
        assert z["admission_admitted"] + z["admission_shed"] == r.offered
        assert z["admission_shed"] > 0


class TestMultiZone:
    @pytest.fixture(scope="class")
    def multi(self):
        p = LoadProfile(name="multi", duration_s=6.0, rate_per_s=4.0,
                        n_zones=3, seed=4, admission_rate_per_s=20.0)
        return run_load_test(p, config=cheap_config())

    def test_every_zone_reports(self, multi):
        assert set(multi.zones) == {"z0", "z1", "z2"}
        assert multi.served == sum(
            z["results"] for z in multi.zones.values()
        )

    def test_same_seed_witness_is_byte_identical(self, multi):
        p = LoadProfile(name="multi", duration_s=6.0, rate_per_s=4.0,
                        n_zones=3, seed=4, admission_rate_per_s=20.0)
        again = run_load_test(p, config=cheap_config())
        assert witness_bytes(multi) == witness_bytes(again)

    def test_gateway_metrics_follow_the_naming_conventions(self, multi):
        registry = multi.gateway_metrics
        assert registry is not None
        names = [m.name for m in registry]
        assert names
        for metric in registry:
            assert metric.name.startswith("repro_gateway_"), metric.name
            assert not metric.name.startswith("repro_gateway_repro_")
            if metric.kind == "counter":
                assert metric.name.endswith("_total"), metric.name
        assert "repro_gateway_requests_shed_total" in names

    def test_gateway_summary_is_kept(self, multi):
        assert multi.gateway_summary["zones"] == 3

    def test_admission_totals_aggregate_across_zones(self, multi):
        z_admitted = sum(
            z.get("admission_admitted", 0) for z in multi.zones.values()
        )
        assert multi.admission["admitted"] == z_admitted


class TestScheduledWorkerGuards:
    def test_unknown_zone_in_schedules_rejected(self):
        from repro.zones import ZoneGateway, scaled_site_plan

        plan = scaled_site_plan("Env1", 2, seed=0)
        with pytest.raises(ConfigurationError, match="z9"):
            ZoneGateway(
                plan, cheap_config(), query_schedules={"z9": ((1.0, "1"),)}
            )
