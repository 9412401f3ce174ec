"""Tests for the mobility layer: trajectories, filters, tracker."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LandmarcEstimator,
    VIREConfig,
    VIREEstimator,
    paper_testbed_grid,
)
from repro.exceptions import ConfigurationError
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.tracking import (
    AlphaBetaFilter,
    KalmanFilter2D,
    MovingAverageFilter,
    NoFilter,
    TagTracker,
    Trajectory,
    evaluate_track,
)

from .conftest import make_clean_environment


class TestTrajectory:
    def test_position_interpolated(self):
        traj = Trajectory(times_s=(0.0, 10.0), waypoints=((0.0, 0.0), (10.0, 0.0)))
        assert traj.position_at(5.0) == pytest.approx((5.0, 0.0))

    def test_clamped_outside_time_range(self):
        traj = Trajectory(times_s=(5.0, 10.0), waypoints=((1.0, 1.0), (2.0, 2.0)))
        assert traj.position_at(0.0) == (1.0, 1.0)
        assert traj.position_at(20.0) == (2.0, 2.0)

    def test_length(self):
        traj = Trajectory(
            times_s=(0.0, 1.0, 2.0),
            waypoints=((0.0, 0.0), (3.0, 0.0), (3.0, 4.0)),
        )
        assert traj.length_m == pytest.approx(7.0)

    def test_constant_speed_builder(self):
        traj = Trajectory.constant_speed(
            [(0.0, 0.0), (4.0, 0.0)], speed_mps=2.0, start_time_s=1.0
        )
        assert traj.times_s == (1.0, 3.0)
        assert traj.position_at(2.0) == pytest.approx((2.0, 0.0))

    def test_sample_interval(self):
        traj = Trajectory(times_s=(0.0, 2.0), waypoints=((0.0, 0.0), (2.0, 0.0)))
        samples = traj.sample(1.0)
        assert [t for t, _ in samples] == [0.0, 1.0, 2.0]

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ConfigurationError):
            Trajectory(times_s=(0.0, 0.0), waypoints=((0.0, 0.0), (1.0, 0.0)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Trajectory(times_s=(0.0,), waypoints=((0.0, 0.0), (1.0, 0.0)))

    def test_evaluate_track_perfect(self):
        traj = Trajectory(times_s=(0.0, 10.0), waypoints=((0.0, 0.0), (10.0, 0.0)))
        fixes = [(t, traj.position_at(t)) for t in (0.0, 2.5, 5.0, 10.0)]
        err = evaluate_track(traj, fixes)
        assert err.rmse_m == pytest.approx(0.0)
        assert err.n_fixes == 4

    def test_evaluate_track_offset(self):
        traj = Trajectory(times_s=(0.0, 1.0), waypoints=((0.0, 0.0), (0.0, 1.0)))
        fixes = [(0.0, (1.0, 0.0)), (1.0, (1.0, 1.0))]
        err = evaluate_track(traj, fixes)
        assert err.mean_m == pytest.approx(1.0)

    def test_evaluate_empty_rejected(self):
        traj = Trajectory(times_s=(0.0, 1.0), waypoints=((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ConfigurationError):
            evaluate_track(traj, [])


class TestFilters:
    def test_no_filter_passthrough(self):
        f = NoFilter()
        assert f.update(0.0, None) is None
        assert f.update(1.0, (1.0, 2.0)) == (1.0, 2.0)
        assert f.update(2.0, None) == (1.0, 2.0)  # holds last

    def test_moving_average(self):
        f = MovingAverageFilter(window=2)
        f.update(0.0, (0.0, 0.0))
        out = f.update(1.0, (2.0, 2.0))
        assert out == pytest.approx((1.0, 1.0))

    def test_moving_average_window_drop(self):
        f = MovingAverageFilter(window=2)
        f.update(0.0, (0.0, 0.0))
        f.update(1.0, (2.0, 0.0))
        out = f.update(2.0, (4.0, 0.0))
        assert out == pytest.approx((3.0, 0.0))

    def test_alpha_beta_tracks_constant_velocity(self):
        f = AlphaBetaFilter(alpha=0.6, beta=0.3)
        # Target moves at 1 m/s along x; after convergence the filter
        # should predict well during a dropout.
        for t in range(12):
            f.update(float(t), (float(t), 0.0))
        coasted = f.update(13.0, None)
        assert coasted == pytest.approx((13.0, 0.0), abs=0.5)

    def test_alpha_beta_rejects_backwards_time(self):
        f = AlphaBetaFilter()
        f.update(1.0, (0.0, 0.0))
        with pytest.raises(ConfigurationError):
            f.update(0.5, (0.0, 0.0))

    def test_kalman_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        truth = [(float(t), 0.0) for t in range(60)]
        noisy = [(x + rng.normal(0, 0.5), y + rng.normal(0, 0.5))
                 for x, y in truth]
        # The true motion is exactly constant-velocity, so a small
        # process noise is the matched model and filters hardest.
        f = KalmanFilter2D(measurement_sigma_m=0.5, process_accel=0.05)
        errs_raw, errs_filt = [], []
        for t, (z, true) in enumerate(zip(noisy, truth)):
            out = f.update(float(t), z)
            errs_raw.append(np.hypot(z[0] - true[0], z[1] - true[1]))
            errs_filt.append(np.hypot(out[0] - true[0], out[1] - true[1]))
        # Ignore the convergence transient.
        assert np.mean(errs_filt[10:]) < 0.6 * np.mean(errs_raw[10:])

    def test_kalman_velocity_estimate(self):
        f = KalmanFilter2D(measurement_sigma_m=0.1, process_accel=0.5)
        for t in range(20):
            f.update(float(t), (2.0 * t, 0.0))
        # Coasting one second ahead moves the estimate by the velocity.
        at_19 = f.update(19.0, None)
        vx, vy = np.subtract(f.update(20.0, None), at_19)
        assert vx == pytest.approx(2.0, abs=0.3)
        assert abs(vy) < 0.2

    def test_kalman_coasts_through_dropout(self):
        f = KalmanFilter2D(measurement_sigma_m=0.1, process_accel=0.3)
        for t in range(15):
            f.update(float(t), (float(t), 0.0))
        coasted = f.update(17.0, None)
        assert coasted == pytest.approx((17.0, 0.0), abs=0.6)

    def test_kalman_none_before_first_measurement(self):
        f = KalmanFilter2D()
        assert f.update(0.0, None) is None

    def test_reset(self):
        for f in (NoFilter(), MovingAverageFilter(), AlphaBetaFilter(),
                  KalmanFilter2D()):
            f.update(0.0, (1.0, 1.0))
            f.reset()
            assert f.update(1.0, None) is None

    @given(st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=30,
    ))
    @settings(max_examples=25, deadline=None)
    def test_filters_always_return_finite(self, measurements):
        for f in (MovingAverageFilter(3), AlphaBetaFilter(), KalmanFilter2D()):
            for t, m in enumerate(measurements):
                out = f.update(float(t), m)
                assert out is not None
                assert np.isfinite(out).all()


class TestTagTracker:
    def _sampler(self):
        return TrialSampler(
            make_clean_environment(),
            paper_testbed_grid(),
            seed=0,
            measurement=MeasurementSpec(n_reads=1),
        )

    def test_tracks_static_tag(self):
        sampler = self._sampler()
        grid = paper_testbed_grid()
        tracker = TagTracker(VIREEstimator(grid, VIREConfig(target_total_tags=900)))
        pos = (1.5, 1.5)
        for t in range(3):
            point = tracker.ingest(float(t), sampler.reading_for(pos))
            assert point.raw is not None
        fixes = tracker.fixes()
        assert len(fixes) == 3
        for _, (x, y) in fixes:
            assert np.hypot(x - 1.5, y - 1.5) < 0.3

    def test_dropout_handling(self):
        tracker = TagTracker(LandmarcEstimator(), MovingAverageFilter(2))
        sampler = self._sampler()
        tracker.ingest(0.0, sampler.reading_for((1.0, 1.0)))
        point = tracker.ingest(1.0, None)
        assert point.dropout
        assert point.filtered is not None  # moving average holds
        assert tracker.dropout_count == 1

    def test_ingest_from_converts_reading_error(self):
        from repro.exceptions import ReadingError

        def failing_snapshot():
            raise ReadingError("no fresh reading")

        tracker = TagTracker(LandmarcEstimator())
        point = tracker.ingest_from(0.0, failing_snapshot)
        assert point.dropout

    def test_fixes_raw_vs_filtered(self):
        tracker = TagTracker(LandmarcEstimator(), MovingAverageFilter(4))
        sampler = self._sampler()
        for t, x in enumerate((0.5, 1.0, 1.5)):
            tracker.ingest(float(t), sampler.reading_for((x, 1.0)))
        raw = tracker.fixes(filtered=False)
        filt = tracker.fixes(filtered=True)
        assert len(raw) == len(filt) == 3
        assert raw[-1] != filt[-1]  # smoothing changed the last fix

    def test_reset(self):
        tracker = TagTracker(LandmarcEstimator(), KalmanFilter2D())
        sampler = self._sampler()
        tracker.ingest(0.0, sampler.reading_for((1.0, 1.0)))
        tracker.reset()
        assert tracker.history == []
        assert tracker.dropout_count == 0
