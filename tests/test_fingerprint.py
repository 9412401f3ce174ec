"""Tests for the offline fingerprinting baseline and its drift ablation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FingerprintEstimator,
    VIREConfig,
    VIREEstimator,
    paper_testbed_grid,
)
from repro.exceptions import EstimationError, ReadingError
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.rf import env3
from repro.utils.rng import derive_rng

from .conftest import make_clean_environment


@pytest.fixture
def calibrated(grid, readers):
    env = make_clean_environment()
    channel = env.build_channel(readers, seed=0)
    est = FingerprintEstimator(resolution=10)
    est.calibrate(channel, grid, derive_rng(0, "calibration"))
    return est


def clean_reading_at(position, seed=0):
    sampler = TrialSampler(
        make_clean_environment(),
        paper_testbed_grid(),
        seed=seed,
        measurement=MeasurementSpec(n_reads=3),
    )
    return sampler.reading_for(position)


class TestFingerprint:
    def test_uncalibrated_raises(self, grid):
        est = FingerprintEstimator()
        with pytest.raises(EstimationError, match="calibrate"):
            est.estimate(clean_reading_at((1.0, 1.0)))

    def test_calibrate_reports_point_count(self, calibrated):
        assert calibrated.calibrated
        diag = calibrated.estimate(clean_reading_at((1.0, 1.0))).diagnostics
        assert diag["map_points"] == 100

    def test_accurate_with_fresh_map(self, calibrated):
        for pos in [(1.5, 1.5), (0.6, 2.4), (2.7, 0.9)]:
            err = calibrated.estimate(clean_reading_at(pos)).error_to(pos)
            assert err < 0.3, pos

    def test_reader_count_mismatch_rejected(self, calibrated):
        reading = clean_reading_at((1.0, 1.0)).subset_readers([0, 1])
        with pytest.raises(ReadingError, match="calibrated with"):
            calibrated.estimate(reading)

    def test_resolution_improves_accuracy(self, grid, readers):
        env = make_clean_environment()
        channel = env.build_channel(readers, seed=0)
        errs = {}
        for resolution in (3, 12):
            est = FingerprintEstimator(resolution=resolution)
            est.calibrate(channel, grid, derive_rng(0, "cal"))
            errs[resolution] = est.estimate(
                clean_reading_at((1.3, 1.7))
            ).error_to((1.3, 1.7))
        assert errs[12] < errs[3]

    @pytest.mark.slow
    def test_drift_ablation_vire_wins_when_world_changes(self, grid, readers):
        """Fingerprinting beats VIRE when the map is fresh, but a changed
        environment (new frozen world) invalidates the offline map while
        VIRE's live reference tags keep it calibrated — the core argument
        for reference-tag localization."""
        env = env3()
        cal_channel = env.build_channel(readers, seed=100)
        fingerprint = FingerprintEstimator(resolution=12)
        fingerprint.calibrate(cal_channel, grid, derive_rng(0, "cal"))
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))

        probe_points = [(1.3, 1.7), (2.2, 0.8), (0.7, 2.3), (1.8, 2.1)]

        def mean_errors(world_seed: int) -> tuple[float, float]:
            errs_fp, errs_vire = [], []
            for trial in range(4):
                sampler = TrialSampler(env, grid, seed=world_seed + trial)
                for pos in probe_points:
                    reading = sampler.reading_for(pos)
                    errs_fp.append(fingerprint.estimate(reading).error_to(pos))
                    errs_vire.append(vire.estimate(reading).error_to(pos))
            return float(np.mean(errs_fp)), float(np.mean(errs_vire))

        # Fresh map: same worlds the calibration saw.
        fp_fresh, _ = mean_errors(world_seed=100)
        # Drifted: entirely different frozen worlds.
        fp_drift, vire_drift = mean_errors(world_seed=500)

        assert fp_drift > fp_fresh          # the map went stale
        assert vire_drift < fp_drift        # live references keep VIRE good
