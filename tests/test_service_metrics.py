"""Tests for repro.service.metrics: primitives, registry, exposition."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.obs.profile import quantile_linear
from repro.service.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        c = Counter("requests_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_rejects_bad_names(self):
        with pytest.raises(ConfigurationError):
            Counter("bad name")
        with pytest.raises(ConfigurationError):
            Counter("9starts_with_digit")
        with pytest.raises(ConfigurationError):
            Counter("")


class TestReadMetric:
    def test_value_is_read_when_asked(self):
        reg = MetricsRegistry()
        box = {"n": 2}
        metric = reg.read("things_total", "Things", lambda: box["n"])
        assert metric.kind == "counter" and metric.value == 2.0
        box["n"] = 5
        assert metric.value == 5.0
        assert "repro_things_total 5\n" in reg.render_prometheus()

    def test_a_name_without_total_is_a_gauge(self):
        reg = MetricsRegistry()
        reg.read("queue_depth", "Depth", lambda: 1.5)
        text = reg.render_prometheus()
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 1.5" in text

    def test_cannot_be_pushed(self):
        reg = MetricsRegistry()
        metric = reg.read("things_total", "Things", lambda: 0)
        for push in (metric.inc, metric.dec, metric.set):
            with pytest.raises(ConfigurationError, match="cannot be pushed"):
                push(1.0)

    def test_a_taken_name_is_refused(self):
        reg = MetricsRegistry()
        reg.counter("things_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.read("things_total", "Things", lambda: 0)
        reg.read("other_total", "Other", lambda: 0)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.read("repro_other_total", "Other", lambda: 0)
        with pytest.raises(ConfigurationError):
            reg.counter("other_total")  # a read is not a pushed counter


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        samples = dict(h.samples())
        assert samples['lat_bucket{le="1"}'] == 1
        assert samples['lat_bucket{le="2"}'] == 2
        assert samples['lat_bucket{le="4"}'] == 3
        assert samples['lat_bucket{le="+Inf"}'] == 4
        assert samples["lat_count"] == 4
        assert samples["lat_sum"] == pytest.approx(105.0)

    def test_boundary_lands_in_its_bucket(self):
        # le= semantics: a value equal to the bound belongs to that bucket.
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)
        samples = dict(h.samples())
        assert samples['lat_bucket{le="1"}'] == 1

    def test_quantiles_exact(self):
        h = Histogram("lat", buckets=(10.0,))
        for v in range(1, 101):
            h.observe(float(v))
        # Type-7 linear interpolation between order statistics.
        assert h.quantile(0.50) == 50.5
        assert h.quantile(0.99) == pytest.approx(99.01)
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram("lat", buckets=(1.0,)).quantile(0.5))

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantile_is_the_shared_type7_estimator(self, values, q):
        h = Histogram("lat", buckets=(1.0,))
        for v in values:
            h.observe(v)
        assert h.quantile(q) == quantile_linear(values, q)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("lat", buckets=())

    def test_rejects_non_finite_observation(self):
        h = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ConfigurationError):
            h.observe(float("nan"))


class TestRegistry:
    def test_idempotent_creation(self):
        reg = MetricsRegistry("svc")
        c1 = reg.counter("hits_total")
        c2 = reg.counter("hits_total")
        assert c1 is c2

    def test_namespace_prefix(self):
        reg = MetricsRegistry("svc")
        assert reg.counter("hits_total").name == "svc_hits_total"

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigurationError):
            reg.histogram("x_total")

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().get("nope")

    def test_prometheus_rendering(self):
        reg = MetricsRegistry("repro")
        reg.counter("requests_total", "Requests served").inc(3)
        reg.read("depth", "", lambda: 1.5)
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP repro_requests_total Requests served" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "repro_depth 1.5" in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")


class TestNamingConventions:
    """Regression tests for the metric naming audit.

    Conventions (enforced here so drift fails loudly): every exported
    name carries the ``repro_`` namespace exactly once; counters end in
    ``_total``; histograms and gauges carry a unit/kind suffix
    (``_seconds``, ``_requests``, ``_ratio``, ``_depth``, ...); and
    re-registration — two pipeline components, or a resumed session
    re-creating its pipeline over the same registry — never mints a
    duplicate or a ``repro_repro_*`` name.
    """

    GAUGE_SUFFIXES = ("_ratio", "_depth", "_requests", "_seconds", "_bytes", "_db")
    HISTOGRAM_SUFFIXES = ("_seconds", "_requests", "_bytes")

    @staticmethod
    def _session_registry():
        from tests.regen_golden import run_chaos_session

        return run_chaos_session().metrics

    def test_every_service_metric_follows_the_conventions(self):
        registry = self._session_registry()
        names = [m.name for m in registry]
        assert names, "the chaos session must register metrics"
        for metric in registry:
            name = metric.name
            assert name.startswith("repro_"), name
            assert not name.startswith("repro_repro_"), name
            if metric.kind == "counter":
                assert name.endswith("_total"), name
            elif metric.kind == "histogram":
                assert name.endswith(self.HISTOGRAM_SUFFIXES), name
            else:
                assert metric.kind == "gauge"
                assert not name.endswith("_total"), name
                assert name.endswith(self.GAUGE_SUFFIXES), name

    def test_exposition_has_no_duplicate_type_lines(self):
        registry = self._session_registry()
        text = registry.render_prometheus()
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE ")
        ]
        assert len(type_lines) == len(set(type_lines))

    def test_prefix_is_applied_exactly_once(self):
        registry = MetricsRegistry()
        plain = registry.counter("service_requests_total")
        # A component re-registering a metric under its *full* name (the
        # session-resume path) must get the same object back, not a
        # repro_repro_* duplicate.
        assert registry.counter("repro_service_requests_total") is plain
        assert [m.name for m in registry] == ["repro_service_requests_total"]

    def test_two_components_share_one_registry_cleanly(self):
        from repro import build_paper_deployment
        from repro.service import ServicePipeline

        from .conftest import make_clean_environment

        deployment = build_paper_deployment(
            make_clean_environment(), tracking_tags={"a": (1.5, 1.5)}, seed=3
        )
        registry = MetricsRegistry()
        args = (deployment.grid, deployment.simulator.middleware)
        ServicePipeline(*args, metrics=registry)
        names = [m.name for m in registry]
        assert len(names) == len(set(names))
        assert "repro_batcher_batch_size_requests" in names
        assert "repro_ingest_queue_depth" in names
        # A second owner's reads over the same registry are refused, never
        # merged into a duplicate or silently shadowed.
        with pytest.raises(ConfigurationError, match="already registered"):
            ServicePipeline(*args, metrics=registry)


class TestCalibrationMetricNaming:
    """The drift corrector's metrics obey the same naming audit."""

    READERS = ("reader-0", "reader-1")
    REFS = ("ref-0", "ref-1", "ref-2", "ref-3")

    def _corrector(self, registry):
        """A corrector plus the reads its owner (the pipeline) registers."""
        from repro.calibration import DriftCorrector
        from repro.service.pipeline import _register_calibration_reads

        corrector = DriftCorrector(self.READERS, self.REFS)
        _register_calibration_reads(registry, corrector)
        return corrector

    def test_registers_the_expected_names(self):
        registry = MetricsRegistry()
        self._corrector(registry)
        by_name = {m.name: m.kind for m in registry}
        assert by_name == {
            "repro_calibration_corrected_readings_total": "counter",
            "repro_calibration_quarantine_transitions_total": "counter",
            "repro_calibration_quarantine_ratio": "gauge",
            "repro_calibration_max_abs_bias_db": "gauge",
            "repro_calibration_bias_reader_0_db": "gauge",
            "repro_calibration_bias_reader_1_db": "gauge",
        }

    def test_names_follow_the_audit_conventions(self):
        registry = MetricsRegistry()
        self._corrector(registry)
        for metric in registry:
            name = metric.name
            assert name.startswith("repro_") and not name.startswith(
                "repro_repro_"
            ), name
            if metric.kind == "counter":
                assert name.endswith("_total"), name
            else:
                assert metric.kind == "gauge"
                assert name.endswith(
                    TestNamingConventions.GAUGE_SUFFIXES
                ), name

    def test_zone_worker_corrector_joins_the_zone_namespace(self):
        registry = MetricsRegistry(zone="z0")
        self._corrector(registry)
        names = {m.name for m in registry}
        assert names == {n for n in names if n.startswith("repro_zone_z0_calibration_")}
        assert "repro_zone_z0_calibration_max_abs_bias_db" in names

    def test_rebuilt_corrector_mints_no_duplicates(self):
        registry = MetricsRegistry()
        self._corrector(registry)
        with pytest.raises(ConfigurationError, match="already registered"):
            self._corrector(registry)  # a second corrector, same registry
        names = [m.name for m in registry]
        assert len(names) == len(set(names))


class TestZoneNamespace:
    def test_zone_widens_the_namespace(self):
        registry = MetricsRegistry(zone="a")
        counter = registry.counter("service_results_total")
        assert counter.name == "repro_zone_a_service_results_total"
        assert registry.namespace == "repro_zone_a"
        assert registry.zone == "a"

    def test_co_resident_zones_never_collide(self):
        a = MetricsRegistry(zone="a")
        b = MetricsRegistry(zone="b")
        a.counter("service_results_total").inc(3)
        b.counter("service_results_total").inc(7)
        names_a = {m.name for m in a}
        names_b = {m.name for m in b}
        assert not names_a & names_b
        merged = a.render_prometheus() + "\n" + b.render_prometheus()
        assert "repro_zone_a_service_results_total 3" in merged
        assert "repro_zone_b_service_results_total 7" in merged

    def test_full_name_reregistration_stays_idempotent(self):
        registry = MetricsRegistry(zone="a")
        plain = registry.counter("service_requests_total")
        # Re-registering under the already-prefixed name (the resume
        # path) returns the same object, not a zone_a_zone_a duplicate.
        assert (
            registry.counter("repro_zone_a_service_requests_total") is plain
        )
        assert [m.name for m in registry] == [
            "repro_zone_a_service_requests_total"
        ]

    def test_zone_ids_are_sanitized_for_prometheus(self):
        registry = MetricsRegistry(zone="floor-2/east")
        gauge = registry.read("service_queue_depth", "Depth", lambda: 0)
        assert gauge.name == "repro_zone_floor_2_east_service_queue_depth"

    def test_unsanitizable_zone_id_is_rejected(self):
        with pytest.raises(ConfigurationError, match="sanitizes to nothing"):
            MetricsRegistry(zone="")

    def test_unzoned_registry_is_unchanged(self):
        registry = MetricsRegistry()
        assert registry.zone is None
        counter = registry.counter("service_requests_total")
        assert counter.name == "repro_service_requests_total"
