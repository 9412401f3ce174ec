"""Tests for repro.loadtest.slo, repro.loadtest.capacity and the figure
registry in repro.analysis.registry."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.registry import (
    build_capacity_report,
    build_figure,
    figure_names,
    get_figure,
    load_sweep,
)
from repro.exceptions import ConfigurationError
from repro.loadtest import (
    LEVEL_NAMES,
    CapacityModel,
    fit_capacity_model,
    quantile_linear,
    result_level,
    slo_summary,
)
from repro.service.pipeline import ServiceResult


def make_result(estimator="VIRE", degraded=False, reason=None,
                requested=0.0, completed=0.5) -> ServiceResult:
    return ServiceResult(
        tag_id="tag-1",
        position=(1.0, 1.0),
        estimator=estimator,
        degraded=degraded,
        reason=reason,
        requested_at_s=requested,
        completed_at_s=completed,
        processing_latency_s=0.001,
    )


class TestQuantileLinear:
    def test_interpolates_between_order_statistics(self):
        values = [float(v) for v in range(1, 101)]
        assert quantile_linear(values, 0.50) == pytest.approx(50.5)
        assert quantile_linear(values, 0.95) == pytest.approx(95.05)
        assert quantile_linear(values, 0.99) == pytest.approx(99.01)
        assert quantile_linear(values, 0.0) == 1.0
        assert quantile_linear(values, 1.0) == 100.0

    def test_two_point_median_is_the_midpoint(self):
        assert quantile_linear([0.0, 1.0], 0.5) == 0.5

    def test_empty_is_nan_and_range_checked(self):
        assert math.isnan(quantile_linear([], 0.5))
        with pytest.raises(ValueError):
            quantile_linear([1.0], 1.5)


class TestResultLevel:
    @pytest.mark.parametrize(
        "estimator,degraded,level",
        [
            ("gateway-interim", True, 0),
            ("VIRE", False, 1),
            ("VIRE", True, 2),
            ("LANDMARC", True, 3),
            ("last-known", True, 4),
        ],
    )
    def test_ladder_mapping(self, estimator, degraded, level):
        r = make_result(estimator=estimator, degraded=degraded)
        assert result_level(r) == level
        assert level in LEVEL_NAMES


class TestSloSummary:
    def test_counts_and_availability(self):
        results = [
            make_result(completed=0.2),
            make_result(estimator="LANDMARC", degraded=True,
                        reason="deadline", completed=6.0),
        ]
        doc = slo_summary(results, offered=4, duration_s=10.0)
        assert doc["offered"] == 4
        assert doc["served"] == 2
        assert doc["availability"] == 0.5
        assert doc["sustained_per_s"] == 0.2
        assert doc["levels"] == {"full_vire": 1, "landmarc": 1}
        assert doc["reasons"] == {"deadline": 1}
        assert doc["degraded"] == 1
        assert doc["latency"]["max_s"] == 6.0

    def test_empty_run_is_well_defined(self):
        doc = slo_summary([], offered=0, duration_s=1.0)
        assert math.isnan(doc["availability"])
        assert doc["degraded_fraction"] == 0.0
        assert math.isnan(doc["latency"]["p99_s"])

    def test_latency_is_queue_wait(self):
        doc = slo_summary(
            [make_result(requested=1.0, completed=4.0)],
            offered=1, duration_s=1.0,
        )
        assert doc["latency"]["p50_s"] == 3.0


class TestCapacityModel:
    def test_recovers_exact_linear_relation(self):
        # y = 2 + 3*batch + 0.5*degraded + 4*zones, exactly.
        def y(b, d, z):
            return 2.0 + 3.0 * b + 0.5 * d + 4.0 * z

        points = []
        grid = [
            (b, d, z)
            for b in (1.0, 4.0, 8.0)
            for d in (0.0, 0.25)
            for z in (1.0, 2.0)
        ]
        for b, d, z in grid:
            points.append({
                "batch_size_mean": b,
                "degraded_fraction": d, "n_zones": z,
                "sustained_per_s": y(b, d, z),
            })
        model = fit_capacity_model(points)
        assert model.intercept == pytest.approx(2.0, abs=1e-5)
        coef = dict(zip(model.features, model.coefficients))
        assert coef["batch_size_mean"] == pytest.approx(3.0, abs=1e-6)
        assert coef["degraded_fraction"] == pytest.approx(0.5, abs=1e-5)
        assert coef["n_zones"] == pytest.approx(4.0, abs=1e-6)
        assert model.r2 == pytest.approx(1.0)
        assert model.predict(points[0]) == pytest.approx(
            points[0]["sustained_per_s"], abs=1e-5
        )

    def test_constant_feature_is_ridge_stabilized(self):
        points = [
            {"batch_size_mean": b,
             "degraded_fraction": 0.0, "n_zones": 1.0,
             "sustained_per_s": 2.0 * b}
            for b in (1.0, 2.0, 4.0, 8.0)
        ]
        model = fit_capacity_model(points)  # must not raise
        coef = dict(zip(model.features, model.coefficients))
        assert coef["batch_size_mean"] == pytest.approx(2.0, abs=1e-3)

    def test_missing_key_and_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_capacity_model([])
        with pytest.raises(ConfigurationError):
            fit_capacity_model([{"batch_size_mean": 1.0}])
        with pytest.raises(ConfigurationError):
            CapacityModel(
                features=("a",), intercept=0.0, coefficients=(1.0,),
                r2=1.0, n_points=1,
            ).predict({"b": 1.0})

    def test_canonical_document_is_json_stable(self):
        points = [
            {"batch_size_mean": float(b),
             "degraded_fraction": 0.0, "n_zones": 1.0,
             "sustained_per_s": 3.0 * b}
            for b in (1, 2, 3)
        ]
        doc = fit_capacity_model(points).canonical_document()
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
        assert json.loads(text) == doc


def _sweep_points() -> list[dict]:
    """Two synthetic witness documents shaped like real sweep points."""
    def point(name, rate, sustained, p99):
        return {
            "profile": {"name": name},
            "offered": int(rate * 10),
            "served": int(sustained * 10),
            "admission": {"admitted": int(sustained * 10), "shed": 0},
            "slo": {
                "levels": {"full_vire": int(sustained * 10)},
                "reasons": {},
                "latency": {"p50_s": 0.2, "p95_s": 0.8, "p99_s": p99,
                            "max_s": p99},
            },
            "zones": {"z0": {"records_dropped": 0, "records_shed": 2}},
            "capacity_point": {
                "offered_rate_per_s": rate,
                "sustained_per_s": sustained,
                "batch_size_mean": 4.0,
                "degraded_fraction": 0.0,
                "n_zones": 1.0,
                "availability": sustained / rate,
                "latency_p99_s": p99,
                "mean_error_m": 0.5,
            },
        }

    return [point("x1", 4.0, 4.0, 0.5), point("x2", 8.0, 7.0, 1.5)]


class TestFigureRegistry:
    def test_expected_figures_are_registered(self):
        assert figure_names() == (
            "accuracy_vs_density",
            "capacity_model",
            "capacity_throughput",
            "latency_percentiles",
            "shed_breakdown",
        )

    def test_artifact_names_are_derived(self):
        for name in figure_names():
            assert get_figure(name).artifact == f"report_{name}.json"

    def test_unknown_figure_raises(self):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            get_figure("nope")

    def test_each_figure_regenerates_in_isolation(self):
        points = _sweep_points()
        for name in figure_names():
            doc = build_figure(name, points)
            assert doc["figure"] == name
            assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_throughput_series_sorted_by_offered_rate(self):
        doc = build_figure("capacity_throughput", _sweep_points())
        rates = [s["offered_rate_per_s"] for s in doc["data"]["series"]]
        assert rates == sorted(rates)
        assert doc["data"]["peak_sustained_per_s"] == 7.0

    def test_shed_breakdown_aggregates_zone_counters(self):
        doc = build_figure("shed_breakdown", _sweep_points())
        assert all(s["records_shed"] == 2 for s in doc["data"]["series"])

    def test_full_report_contains_every_figure(self):
        report = build_capacity_report(_sweep_points(), meta={"k": 1})
        assert set(report["figures"]) == set(figure_names())
        assert report["meta"] == {"k": 1}
        assert report["n_points"] == 2
        with pytest.raises(ConfigurationError):
            build_capacity_report([])

    def test_load_sweep_reads_jsonl(self, tmp_path):
        path = tmp_path / "load_sweep.jsonl"
        points = _sweep_points()
        path.write_text(
            "".join(json.dumps(p, sort_keys=True) + "\n" for p in points)
        )
        assert load_sweep(tmp_path) == points
        with pytest.raises(ConfigurationError):
            load_sweep(tmp_path / "missing")
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "load_sweep.jsonl").write_text("\n")
        with pytest.raises(ConfigurationError):
            load_sweep(tmp_path / "empty")
