"""Golden-value regression tests.

The whole reproduction rests on frozen worlds being deterministic
functions of the seed. These tests pin down concrete numbers for fixed
seeds; if any of them moves, either the RNG stream layout or a model
changed — both require a deliberate decision (and an EXPERIMENTS.md
refresh), not an accidental drive-by.

If a change is intentional, update the constants below and re-run the
figure benches to refresh EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro import (
    LandmarcEstimator,
    VIREConfig,
    VIREEstimator,
    corner_reader_positions,
    paper_testbed_grid,
)
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.rf import env1, env3


@pytest.fixture(scope="module")
def grid():
    return paper_testbed_grid()


class TestFrozenWorldGolden:
    def test_env3_mean_rssi_golden(self, grid):
        channel = env3().build_channel(corner_reader_positions(grid), seed=0)
        value = channel.mean_rssi(0, [(1.5, 1.5)])[0]
        assert value == pytest.approx(-63.629, abs=0.01)

    def test_env1_mean_rssi_golden(self, grid):
        channel = env1().build_channel(corner_reader_positions(grid), seed=0)
        value = channel.mean_rssi(2, [(2.0, 1.0)])[0]
        assert value == pytest.approx(-60.568, abs=0.01)

    def test_reading_matrix_golden(self, grid):
        sampler = TrialSampler(
            env3(), grid, seed=7, measurement=MeasurementSpec(n_reads=5)
        )
        reading = sampler.reading_for((1.45, 1.55))
        assert reading.tracking_rssi[0] == pytest.approx(-61.025, abs=0.01)
        assert reading.reference_rssi[2, 5] == pytest.approx(-49.154, abs=0.01)

    def test_estimates_golden(self, grid):
        sampler = TrialSampler(
            env3(), grid, seed=7, measurement=MeasurementSpec(n_reads=5)
        )
        reading = sampler.reading_for((1.45, 1.55))
        lm = LandmarcEstimator().estimate(reading)
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900)).estimate(
            reading
        )
        assert lm.position == pytest.approx((1.9468, 1.1118), abs=1e-3)
        assert vire.position == pytest.approx((1.7403, 0.8053), abs=1e-3)


def _refresh_golden() -> None:  # pragma: no cover - developer utility
    """Print the current values for updating the constants above."""
    grid = paper_testbed_grid()
    channel3 = env3().build_channel(corner_reader_positions(grid), seed=0)
    print("env3 mean:", channel3.mean_rssi(0, [(1.5, 1.5)])[0])
    channel1 = env1().build_channel(corner_reader_positions(grid), seed=0)
    print("env1 mean:", channel1.mean_rssi(2, [(2.0, 1.0)])[0])
    sampler = TrialSampler(
        env3(), grid, seed=7, measurement=MeasurementSpec(n_reads=5)
    )
    reading = sampler.reading_for((1.45, 1.55))
    print("trk[0]:", reading.tracking_rssi[0])
    print("ref[2,5]:", reading.reference_rssi[2, 5])
    print("landmarc:", LandmarcEstimator().estimate(reading).position)
    print(
        "vire:",
        VIREEstimator(grid, VIREConfig(target_total_tags=900))
        .estimate(reading)
        .position,
    )


if __name__ == "__main__":  # pragma: no cover
    _refresh_golden()
