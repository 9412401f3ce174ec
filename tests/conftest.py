"""Shared fixtures: the paper testbed, clean/noisy channels, readings."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    EnvironmentSpec,
    LogDistancePathLoss,
    MultipathSpec,
    ReferenceGrid,
    RFChannel,
    ShadowingSpec,
    TrackingReading,
    corner_reader_positions,
    paper_testbed_grid,
)
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.geometry.rooms import rectangular_room
from repro.rf.fading import NoFading, RicianFading
from repro.zones import ZonePlan, ZoneSpec


@pytest.fixture
def grid() -> ReferenceGrid:
    """The paper's 4x4, 1 m reference grid."""
    return paper_testbed_grid()


@pytest.fixture
def readers(grid) -> np.ndarray:
    """Corner readers 1 m outside the grid (SW, SE, NW, NE)."""
    return corner_reader_positions(grid)


def make_clean_environment(**overrides) -> EnvironmentSpec:
    """An environment with no stochastic impairments at all.

    Pure log-distance propagation in a big open room: readings are exactly
    the deterministic path loss, which makes estimator behaviour checkable
    to numerical precision.
    """
    defaults = dict(
        name="clean",
        room=rectangular_room(
            30.0, 30.0, origin=(-12.0, -12.0), reflectivity=0.0,
            attenuation_db=0.0, name="clean-room",
        ),
        path_loss=LogDistancePathLoss(rssi_at_reference=-45.0, gamma=2.0),
        shadowing=ShadowingSpec(sigma_db=0.0, correlation_length_m=2.0),
        multipath=MultipathSpec(max_reflections=0),
        rician_k=1e6,  # negligible per-reading fading
        noise_sigma_db=0.0,
        reference_tag_offset_sigma_db=0.0,
        tracking_tag_offset_sigma_db=0.0,
    )
    defaults.update(overrides)
    return EnvironmentSpec(**defaults)


def fading_free_channel(
    env: EnvironmentSpec, reader_positions, seed: int = 0
) -> RFChannel:
    """``env.build_channel`` without fast fading: the same frozen world,
    whose readings differ from the mean field by receiver noise only."""
    return RFChannel(
        env.room,
        reader_positions,
        path_loss=env.path_loss,
        shadowing=env.shadowing,
        multipath=env.multipath,
        fading=NoFading(),
        noise_sigma_db=env.noise_sigma_db,
        seed=seed,
    )


def real_tag_mask(vgrid) -> np.ndarray:
    """Lattice mask of a ``VirtualGrid``'s points that sit on real tags:
    whole fractional indices inside the real grid."""
    fi, fj = vgrid.fractional_indices()
    rows, cols = vgrid.grid.rows, vgrid.grid.cols
    on_row = np.isclose(fi % 1.0, 0.0) & (fi >= -1e-9) & (fi <= rows - 1 + 1e-9)
    on_col = np.isclose(fj % 1.0, 0.0) & (fj >= -1e-9) & (fj <= cols - 1 + 1e-9)
    return on_row[:, np.newaxis] & on_col[np.newaxis, :]


def single_zone_plan(scenario) -> ZonePlan:
    """A scenario as a one-zone plan: environment, grid, tags and seed
    verbatim at origin (0, 0), so a gateway run of it is bitwise
    identical to ``LocalizationService().run(scenario, ...)``."""
    spec = ZoneSpec(
        zone_id="z0",
        environment=scenario.environment,
        grid=scenario.grid,
        origin=(0.0, 0.0),
        tracking_tags=scenario.tracking_tags,
        seed=scenario.base_seed,
    )
    return ZonePlan((spec,), seed=scenario.base_seed)


@pytest.fixture
def clean_environment() -> EnvironmentSpec:
    return make_clean_environment()


@pytest.fixture
def clean_sampler(clean_environment, grid) -> TrialSampler:
    """Deterministic sampler over the clean environment."""
    return TrialSampler(
        clean_environment,
        grid,
        seed=0,
        measurement=MeasurementSpec(n_reads=1),
    )


@pytest.fixture
def clean_reading(clean_sampler) -> TrackingReading:
    """One deterministic reading of a tag at (1.3, 1.7)."""
    return clean_sampler.reading_for((1.3, 1.7))


def make_reading(
    reference_rssi: np.ndarray,
    tracking_rssi: np.ndarray,
    grid: ReferenceGrid | None = None,
) -> TrackingReading:
    """Assemble a reading over the paper grid from raw RSSI arrays."""
    g = grid or paper_testbed_grid()
    return TrackingReading(
        reference_rssi=np.asarray(reference_rssi, dtype=np.float64),
        tracking_rssi=np.asarray(tracking_rssi, dtype=np.float64),
        reference_positions=g.tag_positions(),
    )


@pytest.fixture
def rician() -> RicianFading:
    return RicianFading(k_factor=6.0)


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark(name: str):
    """A ``benchmarks/`` module, imported as its standalone run imports
    it (``_interleave`` as a top-level module)."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs, as an import would: a dataclass looks
    # its own module up there.
    sys.modules[name] = module
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module
