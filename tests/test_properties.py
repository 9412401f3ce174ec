"""Cross-module property-based tests (hypothesis).

These complement the per-module property tests by checking invariants
that span the whole pipeline: estimator outputs stay inside sensible
hulls for *arbitrary* readings, the channel responds linearly to
attenuation, elimination behaves monotonically under reader subsets,
and the VIRE weighting keeps the estimate a convex combination.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import (
    LandmarcEstimator,
    TrackingReading,
    VIREConfig,
    VIREEstimator,
    WeightedCentroidEstimator,
    paper_testbed_grid,
)
from repro.core.elimination import eliminate
from repro.core.proximity import build_proximity_maps, rssi_deviations

GRID = paper_testbed_grid()
REF_POSITIONS = GRID.tag_positions()

rssi_values = st.floats(-100.0, -40.0, allow_nan=False, allow_infinity=False)


def reading_strategy(k: int = 4):
    """Arbitrary (but valid) readings over the paper grid."""
    return st.tuples(
        arrays(np.float64, (k, 16), elements=rssi_values),
        arrays(np.float64, (k,), elements=rssi_values),
    ).map(
        lambda t: TrackingReading(
            reference_rssi=t[0],
            tracking_rssi=t[1],
            reference_positions=REF_POSITIONS,
        )
    )


class TestEstimatorHullInvariants:
    @given(reading_strategy())
    @settings(max_examples=40, deadline=None)
    def test_landmarc_inside_grid_hull(self, reading):
        res = LandmarcEstimator().estimate(reading)
        xmin, ymin, xmax, ymax = GRID.bounds
        assert xmin - 1e-9 <= res.x <= xmax + 1e-9
        assert ymin - 1e-9 <= res.y <= ymax + 1e-9

    @given(reading_strategy())
    @settings(max_examples=25, deadline=None)
    def test_vire_inside_virtual_hull(self, reading):
        vire = VIREEstimator(GRID, VIREConfig(subdivisions=5))
        res = vire.estimate(reading)
        xmin, ymin, xmax, ymax = GRID.bounds
        assert xmin - 1e-9 <= res.x <= xmax + 1e-9
        assert ymin - 1e-9 <= res.y <= ymax + 1e-9

    @given(reading_strategy())
    @settings(max_examples=25, deadline=None)
    def test_soft_centroid_inside_grid_hull(self, reading):
        res = WeightedCentroidEstimator().estimate(reading)
        xmin, ymin, xmax, ymax = GRID.bounds
        assert xmin <= res.x <= xmax
        assert ymin <= res.y <= ymax

    @given(reading_strategy())
    @settings(max_examples=25, deadline=None)
    def test_estimates_always_finite(self, reading):
        for est in (
            LandmarcEstimator(),
            VIREEstimator(GRID, VIREConfig(subdivisions=4)),
        ):
            res = est.estimate(reading)
            assert np.isfinite(res.x) and np.isfinite(res.y)


class TestShiftInvariance:
    @given(reading_strategy(), st.floats(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_common_shift_leaves_landmarc_unchanged(self, reading, shift):
        """Adding the same constant to every RSSI (reference AND
        tracking) leaves RSSI-space distances, hence the estimate,
        unchanged."""
        res = LandmarcEstimator().estimate(reading)
        shifted = TrackingReading(
            reference_rssi=reading.reference_rssi + shift,
            tracking_rssi=reading.tracking_rssi + shift,
            reference_positions=REF_POSITIONS,
        )
        res2 = LandmarcEstimator().estimate(shifted)
        assert res.position == pytest.approx(res2.position, abs=1e-9)

    @example(
        # Near tie: the virtual cells between ref[0, 0] and its
        # neighbours sit exactly on the adaptive threshold (2.5 dB), and
        # rounding of the shifted lattice drops two of them: the
        # estimate moves 1.75 cm.
        reading=TrackingReading(
            reference_rssi=np.vstack(
                [np.r_[-40.0, np.full(15, -42.0)], np.full((3, 16), -42.0)]
            ),
            tracking_rssi=np.full(4, -43.0),
            reference_positions=REF_POSITIONS,
        ),
        shift=-9.991,
    )
    @given(reading_strategy(), st.floats(-10.0, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_common_shift_leaves_vire_unchanged(self, reading, shift):
        """A common shift leaves VIRE unchanged up to the elimination
        boundary.

        Deviations are shift-invariant in exact arithmetic, but
        ``interp(ref + s)`` is not ``interp(ref) + s`` bit for bit, so a
        virtual cell whose worst deviation ties the threshold may flip
        in or out of the selection. Same selection: same estimate.
        Different selection: every flipped cell sits on the threshold
        to within float rounding, in both runs.
        """
        vire = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        shifted = TrackingReading(
            reference_rssi=reading.reference_rssi + shift,
            tracking_rssi=reading.tracking_rssi + shift,
            reference_positions=REF_POSITIONS,
        )
        flipped = vire.selection_mask(reading) != vire.selection_mask(shifted)
        if not flipped.any():
            res, res2 = vire.estimate(reading), vire.estimate(shifted)
            assert res.position == pytest.approx(res2.position, abs=1e-9)
            return
        for r in (reading, shifted):
            deviations = rssi_deviations(
                vire.interpolate_reading(r), r.tracking_rssi
            )
            worst = deviations.max(axis=0)[flipped]
            threshold = vire.select_threshold(deviations)
            assert worst == pytest.approx(threshold, abs=1e-9)


class TestEliminationMonotonicity:
    @given(
        arrays(np.float64, (4, 6, 6), elements=st.floats(0.0, 12.0)),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_fewer_votes_never_shrinks_selection(self, deviations, votes):
        maps = build_proximity_maps(deviations, 3.0)
        stricter = eliminate(maps, min_votes=min(votes + 1, 4))
        looser = eliminate(maps, min_votes=votes)
        assert np.all(looser[stricter])

    @given(arrays(np.float64, (3, 5, 5), elements=st.floats(0.0, 12.0)))
    @settings(max_examples=40, deadline=None)
    def test_dropping_a_reader_never_shrinks_selection(self, deviations):
        all_maps = build_proximity_maps(deviations, 3.0)
        subset_maps = build_proximity_maps(deviations[:2], 3.0)
        full = eliminate(all_maps)
        subset = eliminate(subset_maps)
        assert np.all(subset[full])


class TestReaderPermutationInvariance:
    @given(reading_strategy())
    @settings(max_examples=20, deadline=None)
    def test_vire_invariant_under_reader_order(self, reading):
        """Shuffling the reader rows must not change the estimate (the
        intersection and the weights are symmetric in readers)."""
        vire = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        res = vire.estimate(reading)
        perm = [2, 0, 3, 1]
        shuffled = TrackingReading(
            reference_rssi=reading.reference_rssi[perm],
            tracking_rssi=reading.tracking_rssi[perm],
            reference_positions=REF_POSITIONS,
        )
        res2 = vire.estimate(shuffled)
        assert res.position == pytest.approx(res2.position, abs=1e-9)

    @given(reading_strategy())
    @settings(max_examples=20, deadline=None)
    def test_landmarc_invariant_under_reader_order(self, reading):
        res = LandmarcEstimator().estimate(reading)
        res2 = LandmarcEstimator().estimate(reading.subset_readers([3, 2, 1, 0]))
        assert res.position == pytest.approx(res2.position, abs=1e-9)
