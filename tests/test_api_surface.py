"""API-surface tests: exception hierarchy, reprs, exports, multi-tag use."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    BoundaryAwareEstimator,
    ChannelError,
    ConfigurationError,
    EstimationError,
    GeometryError,
    LandmarcEstimator,
    NearestReferenceEstimator,
    ReadingError,
    ReproError,
    SimulationError,
    SmoothingSpec,
    VIREConfig,
    VIREEstimator,
    WeightedCentroidEstimator,
    build_paper_deployment,
    paper_testbed_grid,
)

from .conftest import make_clean_environment


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, GeometryError, ChannelError, ReadingError,
        EstimationError, SimulationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_one_except_clause_catches_everything(self):
        with pytest.raises(ReproError):
            paper_testbed_grid().lattice_from_flat([0.0])
        with pytest.raises(ReproError):
            VIREConfig(subdivisions=0)


class TestReprs:
    """Reprs are part of the debugging UX; they should name the knobs."""

    def test_estimator_reprs_informative(self, grid):
        cases = [
            (LandmarcEstimator(k=4), "k=4"),
            (NearestReferenceEstimator(), "Nearest"),
            (WeightedCentroidEstimator(tau_db=3.0), "3"),
            (VIREEstimator(grid, VIREConfig(subdivisions=5)), "n=5"),
            (BoundaryAwareEstimator(grid), "extension"),
        ]
        for obj, fragment in cases:
            assert fragment in repr(obj), (obj, fragment)

    def test_tag_and_reader_reprs(self):
        from repro import ActiveTag, Reader

        assert "ref" in repr(ActiveTag("a", (0, 0), is_reference=True))
        assert "r0" in repr(Reader("r0", (0, 0)))


class TestPublicExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_every_module_all_resolves(self):
        # A deleted route must take its re-exports with it: a stale
        # ``__all__`` entry only fails on ``from repro.x import *``.
        stale, seen = [], 0
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name == "repro.__main__":  # runs the CLI on import
                continue
            module = importlib.import_module(info.name)
            seen += info.ispkg
            stale += [
                f"{info.name}.{name}"
                for name in getattr(module, "__all__", ())
                if not hasattr(module, name)
            ]
        assert seen >= 17  # every subpackage was walked
        assert stale == []

    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert int(major) >= 1


class TestOneEventChannel:
    """Events are recorded as spans, counters and event trails only."""

    def test_no_module_imports_logging(self):
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "logging" for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize("name", ["log_event", "get_service_logger"])
    def test_service_exports_no_log_helpers(self, name):
        import repro.service
        import repro.service.metrics

        assert name not in repro.service.__all__
        assert not hasattr(repro.service, name)
        assert not hasattr(repro.service.metrics, name)


class TestMultiTagDeployment:
    """Several tracking tags sharing one testbed — the multi-asset case."""

    def test_three_assets_tracked_concurrently(self):
        truth = {
            "asset-a": (0.7, 0.9),
            "asset-b": (1.8, 1.4),
            "asset-c": (2.4, 2.3),
        }
        dep = build_paper_deployment(
            make_clean_environment(),
            tracking_tags=truth,
            seed=2,
            smoothing=SmoothingSpec(window=5),
        )
        dep.simulator.warm_up()
        dep.simulator.run_for(20.0)
        vire = VIREEstimator(dep.grid, VIREConfig(target_total_tags=900))
        for tag_id, pos in truth.items():
            reading = dep.simulator.reading_for(tag_id)
            err = vire.estimate(reading).error_to(pos)
            assert err < 0.35, (tag_id, err)

    def test_assets_do_not_perturb_each_other(self):
        """Adding a second tracking tag must not change the first tag's
        frozen-world mean readings (tags are passive w.r.t. the channel
        unless the interference model is enabled)."""
        env = make_clean_environment()
        solo = build_paper_deployment(
            env, tracking_tags={"a": (1.5, 1.5)}, seed=3
        )
        duo = build_paper_deployment(
            env, tracking_tags={"a": (1.5, 1.5), "b": (2.5, 0.5)}, seed=3
        )
        for dep in (solo, duo):
            dep.simulator.warm_up()
            dep.simulator.run_for(30.0)
        r_solo = solo.simulator.reading_for("a")
        r_duo = duo.simulator.reading_for("a")
        # Means agree to within the residual read scatter; exact equality
        # is not expected because the shared RNG consumes different draws.
        np.testing.assert_allclose(
            r_solo.tracking_rssi, r_duo.tracking_rssi, atol=0.5
        )
