"""Tests for the log-distance path loss model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.rf.propagation import MIN_DISTANCE_M, LogDistancePathLoss


class TestLogDistance:
    def test_reference_anchor(self):
        m = LogDistancePathLoss(rssi_at_reference=-45.0, gamma=2.0)
        assert m.rssi(1.0) == pytest.approx(-45.0)

    def test_inverse_square_decade(self):
        m = LogDistancePathLoss(rssi_at_reference=-45.0, gamma=2.0)
        assert m.rssi(10.0) == pytest.approx(-65.0)  # 20 dB per decade

    def test_gamma_scales_slope(self):
        m = LogDistancePathLoss(rssi_at_reference=-45.0, gamma=4.0)
        assert m.rssi(10.0) == pytest.approx(-85.0)

    def test_vectorized(self):
        m = LogDistancePathLoss()
        out = m.rssi(np.array([1.0, 2.0, 4.0]))
        assert out.shape == (3,)
        # Equal ratios -> equal dB steps.
        assert out[0] - out[1] == pytest.approx(out[1] - out[2])

    def test_clamps_tiny_distance(self):
        m = LogDistancePathLoss()
        assert np.isfinite(m.rssi(0.0))
        assert m.rssi(0.0) == m.rssi(MIN_DISTANCE_M)

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss().rssi(-1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(Exception):
            LogDistancePathLoss(gamma=0.0)

    @given(st.floats(0.1, 100), st.floats(0.1, 100))
    def test_monotone_decreasing(self, d1, d2):
        m = LogDistancePathLoss()
        lo, hi = sorted((d1, d2))
        assert m.rssi(hi) <= m.rssi(lo) + 1e-9
