"""Property tests of the batch engine's bitwise-identity contract.

The claim under test (see :mod:`repro.engine.kernels` for the argument
*why* it holds): for **any** valid batch of readings — random tag
counts, NaN-masked references, permuted reader order, any threshold
mode or fallback policy — ``estimate_batch`` produces outputs bitwise
identical to the scalar ``estimate`` loop, and per-reading failures come
out as exactly the exception the scalar call would raise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import LandmarcEstimator, TrackingReading, VIREConfig, VIREEstimator
from repro import paper_testbed_grid
from repro.engine import kernels
from repro.exceptions import ConfigurationError, ReproError
from repro.geometry.grid import ReferenceGrid

GRID = paper_testbed_grid()
REF_POSITIONS = GRID.tag_positions()

rssi_values = st.floats(-100.0, -40.0, allow_nan=False, allow_infinity=False)
#: RSSI with NaN holes allowed — the masked-reading regime.
rssi_or_nan = st.one_of(rssi_values, st.just(float("nan")))


def _reading(reference, tracking, masked=False) -> TrackingReading:
    return TrackingReading(
        reference_rssi=reference,
        tracking_rssi=tracking,
        reference_positions=REF_POSITIONS,
        masked=masked,
    )


def reading_strategy(k: int = 4):
    return st.tuples(
        arrays(np.float64, (k, 16), elements=rssi_values),
        arrays(np.float64, (k,), elements=rssi_values),
    ).map(lambda t: _reading(t[0], t[1]))


def masked_reading_strategy(k: int = 4):
    """Readings whose reference matrix may contain NaN holes."""
    return st.tuples(
        arrays(np.float64, (k, 16), elements=rssi_or_nan),
        arrays(np.float64, (k,), elements=rssi_values),
    ).map(lambda t: _reading(t[0], t[1], masked=True))


def batch_strategy(min_size=1, max_size=6, masked=False):
    base = masked_reading_strategy() if masked else reading_strategy()
    return st.lists(base, min_size=min_size, max_size=max_size)


CONFIGS = [
    VIREConfig(subdivisions=4),
    VIREConfig(subdivisions=4, empty_fallback="landmarc"),
    VIREConfig(subdivisions=4, empty_fallback="error"),
    VIREConfig(subdivisions=4, threshold_mode="fixed", fixed_threshold_db=2.0),
    VIREConfig(subdivisions=4, w1_mode="paper-literal", connectivity=8),
    VIREConfig(subdivisions=4, w1_mode="uniform", use_w2=False, min_votes=3),
    # Tiny fixed thresholds empty the intersection for some tags but not
    # others — batches then mix dead (fallback/error) and live tags in
    # one vectorized group, the regime that once broke the w2
    # placeholder (a dead tag's zero weight row poisoned group
    # normalization; see fig8's sweep).
    VIREConfig(
        subdivisions=4,
        threshold_mode="fixed",
        fixed_threshold_db=0.25,
        empty_fallback="landmarc",
    ),
    VIREConfig(
        subdivisions=4,
        threshold_mode="fixed",
        fixed_threshold_db=0.25,
        empty_fallback="error",
    ),
]
config_strategy = st.sampled_from(CONFIGS)


def scalar_outcomes(est, readings):
    out = []
    for reading in readings:
        try:
            out.append(est.estimate(reading))
        except ReproError as exc:
            out.append(exc)
    return out


def assert_outcomes_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for s, b in zip(scalar, batch):
        if isinstance(s, ReproError):
            assert type(b) is type(s), (s, b)
            assert str(b) == str(s)
        else:
            assert not isinstance(b, ReproError), (s, b)
            # Tuple equality on floats is bitwise up to +0.0/-0.0; make
            # the byte-level claim explicit via hex.
            assert [x.hex() for x in b.position] == [
                x.hex() for x in s.position
            ]
            assert b.diagnostics == s.diagnostics


class TestBatchEqualsScalar:
    @given(batch_strategy(), config_strategy)
    @settings(max_examples=25, deadline=None)
    def test_clean_batches(self, readings, config):
        est = VIREEstimator(GRID, config)
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            est.estimate_outcomes(readings),
        )

    @given(batch_strategy(masked=True), config_strategy)
    @settings(max_examples=25, deadline=None)
    def test_masked_batches(self, readings, config):
        """NaN holes: quorum trimming, imputation, infeasible thresholds
        and per-reading refusals all come out exactly as scalar."""
        est = VIREEstimator(GRID, config)
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            est.estimate_outcomes(readings),
        )

    @given(
        batch_strategy(min_size=2),
        st.permutations(range(4)),
        config_strategy,
    )
    @settings(max_examples=15, deadline=None)
    def test_reader_permutation(self, readings, perm, config):
        """Permuting every reading's reader order batch-wide is still
        bitwise scalar-equivalent (the batch axis cannot leak into the
        per-reader reductions)."""
        permuted = [r.subset_readers(list(perm)) for r in readings]
        est = VIREEstimator(GRID, config)
        assert_outcomes_identical(
            scalar_outcomes(est, permuted),
            est.estimate_outcomes(permuted),
        )

    @given(batch_strategy(min_size=2, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_mixed_reader_counts(self, readings):
        """Batches mixing different reader subsets group correctly."""
        mixed = [
            r if i % 2 == 0 else r.subset_readers(list(range(2 + i % 3)))
            for i, r in enumerate(readings)
        ]
        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        assert_outcomes_identical(
            scalar_outcomes(est, mixed),
            est.estimate_outcomes(mixed),
        )

    @given(batch_strategy(masked=True, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_landmarc_batches(self, readings):
        from repro.engine.batch import BatchLandmarc

        est = LandmarcEstimator()
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            BatchLandmarc(est).estimate_outcomes(readings),
        )

    @given(batch_strategy(max_size=5), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_sharding_is_transparent(self, readings, shard_size):
        """Splitting a batch into contiguous slices changes nothing.

        The service's micro-batches are cut by arrival, so a reading's
        answer must not depend on which other readings share its batch.
        """
        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        whole = est.estimate_outcomes(readings)
        sharded = []
        for lo in range(0, len(readings), shard_size):
            sharded.extend(est.estimate_outcomes(readings[lo:lo + shard_size]))
        assert_outcomes_identical(whole, sharded)


def _shared_reference(readings, share: bool):
    """With ``share``, every reading gets a copy of the first reading's
    reference block: one snapshot as distinct array objects."""
    if not share:
        return readings
    ref = readings[0].reference_rssi
    return [replace(r, reference_rssi=ref.copy()) for r in readings]


class TestNonLinearSchemes:
    """Polynomial and spline surfaces have no sparse operator: the
    engine interpolates each unique lattice with the scheme itself.
    That route must be scalar-exact too, under every empty-intersection
    policy; the tight fixed threshold makes the policy fire."""

    schemes = pytest.mark.parametrize("scheme", ["polynomial", "spline"])
    fallbacks = pytest.mark.parametrize(
        "fallback", ["relax", "landmarc", "error"]
    )
    thresholds = st.sampled_from(
        [{}, {"threshold_mode": "fixed", "fixed_threshold_db": 0.25}]
    )

    @staticmethod
    def _check(readings, scheme, fallback, threshold):
        config = VIREConfig(
            subdivisions=4,
            interpolation=scheme,
            empty_fallback=fallback,
            **threshold,
        )
        est = VIREEstimator(GRID, config)
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            est.estimate_outcomes(readings),
        )

    @schemes
    @fallbacks
    @given(batch_strategy(), st.booleans(), thresholds)
    @settings(max_examples=30, deadline=None)
    def test_clean_batches(self, scheme, fallback, readings, share, threshold):
        readings = _shared_reference(readings, share)
        self._check(readings, scheme, fallback, threshold)

    @schemes
    @fallbacks
    @given(batch_strategy(masked=True), st.booleans(), thresholds)
    @settings(max_examples=30, deadline=None)
    def test_masked_batches(self, scheme, fallback, readings, share, threshold):
        readings = _shared_reference(readings, share)
        self._check(readings, scheme, fallback, threshold)


def _translated_world(readings, dx: int, dy: int):
    """The same readings in a rigidly translated room.

    Whole-metre offsets keep every coordinate (and every coordinate
    *difference* the interpolation kernels take) exactly representable,
    so the logical pipeline — thresholds, proximity maps, vote counts —
    must be **bitwise** unchanged; only the final centroid moves.
    """
    grid = ReferenceGrid(
        rows=4, cols=4, spacing_x=1.0, spacing_y=1.0,
        origin=(float(dx), float(dy)),
    )
    positions = grid.tag_positions()
    moved = [replace(r, reference_positions=positions) for r in readings]
    return grid, moved


class TestMetamorphicInvariance:
    """Physics-level invariances of the estimators themselves.

    Metamorphic relations (no oracle needed): localizing in a rigidly
    translated room must translate the answer and nothing else, and the
    answer cannot depend on which reader is called "reader 0". Both are
    checked on the scalar path *and* the batch engine — an invariance
    that held scalar-side but broke in a vectorized reduction would be
    exactly the kind of silent regression this suite exists to catch.
    """

    @given(
        batch_strategy(max_size=4),
        st.integers(-12, 12),
        st.integers(-12, 12),
        config_strategy,
    )
    @settings(max_examples=12, deadline=None)
    def test_vire_translation_equivariance(self, readings, dx, dy, config):
        d = np.array([float(dx), float(dy)])
        grid_t, moved = _translated_world(readings, dx, dy)
        est = VIREEstimator(GRID, config)
        est_t = VIREEstimator(grid_t, config)
        base = scalar_outcomes(est, readings)
        shifted = scalar_outcomes(est_t, moved)
        shifted_batch = est_t.estimate_outcomes(moved)
        for b, s, sb in zip(base, shifted, shifted_batch):
            if isinstance(b, ReproError):
                # The failure mode is part of the physics: it must not
                # depend on where the room sits.
                assert type(s) is type(b)
                assert type(sb) is type(b)
                continue
            for other in (s, sb):
                assert not isinstance(other, ReproError)
                # Logical path bitwise unchanged...
                assert (
                    other.diagnostics["threshold_db"]
                    == b.diagnostics["threshold_db"]
                )
                assert (
                    other.diagnostics["n_selected"]
                    == b.diagnostics["n_selected"]
                )
                # ...and the centroid rides along with the room.
                assert np.allclose(
                    np.asarray(other.position) - d,
                    np.asarray(b.position),
                    atol=1e-9,
                )

    @given(
        batch_strategy(masked=True, max_size=4),
        st.integers(-12, 12),
        st.integers(-12, 12),
    )
    @settings(max_examples=10, deadline=None)
    def test_landmarc_translation_equivariance(self, readings, dx, dy):
        from repro.engine.batch import BatchLandmarc

        d = np.array([float(dx), float(dy)])
        _, moved = _translated_world(readings, dx, dy)
        est = LandmarcEstimator()
        base = scalar_outcomes(est, readings)
        shifted = scalar_outcomes(est, moved)
        shifted_batch = BatchLandmarc(est).estimate_outcomes(moved)
        for b, s, sb in zip(base, shifted, shifted_batch):
            if isinstance(b, ReproError):
                assert type(s) is type(b)
                assert type(sb) is type(b)
                continue
            for other in (s, sb):
                assert not isinstance(other, ReproError)
                assert np.allclose(
                    np.asarray(other.position) - d,
                    np.asarray(b.position),
                    atol=1e-9,
                )

    @given(batch_strategy(max_size=4), st.permutations(range(4)), config_strategy)
    @settings(max_examples=12, deadline=None)
    def test_vire_reader_relabeling_invariance(self, readings, perm, config):
        """Relabeling readers is a no-op: proximity maps intersect over
        an unordered reader set, so thresholds and vote counts must be
        bitwise identical, and the centroid equal to reduction-order
        rounding."""
        est = VIREEstimator(GRID, config)
        base = scalar_outcomes(est, readings)
        relabeled = [r.subset_readers(list(perm)) for r in readings]
        permuted = scalar_outcomes(est, relabeled)
        permuted_batch = est.estimate_outcomes(relabeled)
        for b, p, pb in zip(base, permuted, permuted_batch):
            if isinstance(b, ReproError):
                assert type(p) is type(b)
                assert type(pb) is type(b)
                continue
            for other in (p, pb):
                assert not isinstance(other, ReproError)
                assert (
                    other.diagnostics["threshold_db"]
                    == b.diagnostics["threshold_db"]
                )
                assert (
                    other.diagnostics["n_selected"]
                    == b.diagnostics["n_selected"]
                )
                assert np.allclose(
                    np.asarray(other.position),
                    np.asarray(b.position),
                    atol=1e-9,
                )

    @given(batch_strategy(masked=True, max_size=4), st.permutations(range(4)))
    @settings(max_examples=10, deadline=None)
    def test_landmarc_reader_relabeling_invariance(self, readings, perm):
        from repro.engine.batch import BatchLandmarc

        est = LandmarcEstimator()
        base = scalar_outcomes(est, readings)
        relabeled = [r.subset_readers(list(perm)) for r in readings]
        permuted = scalar_outcomes(est, relabeled)
        permuted_batch = BatchLandmarc(est).estimate_outcomes(relabeled)
        for b, p, pb in zip(base, permuted, permuted_batch):
            if isinstance(b, ReproError):
                assert type(p) is type(b)
                assert type(pb) is type(b)
                continue
            for other in (p, pb):
                assert not isinstance(other, ReproError)
                assert np.allclose(
                    np.asarray(other.position),
                    np.asarray(b.position),
                    atol=1e-9,
                )


class TestKernelValidation:
    """The batched kernels reject malformed tensors with clear errors."""

    def test_deviation_shape_checks(self):
        with pytest.raises(ConfigurationError):
            kernels.batch_rssi_deviations(np.zeros((2, 3, 4)), np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            kernels.batch_rssi_deviations(
                np.zeros((2, 3, 4, 4)), np.zeros((3, 2))
            )

    def test_threshold_validation(self):
        dev = np.zeros((2, 3, 4, 4))
        with pytest.raises(ConfigurationError):
            kernels.batch_minimal_feasible_threshold(dev, min_cells=0)
        with pytest.raises(ConfigurationError):
            kernels.batch_minimal_feasible_threshold(dev, min_cells=17)
        bad = dev.copy()
        bad[0, 0, 0, 0] = -1.0
        with pytest.raises(ConfigurationError):
            kernels.batch_minimal_feasible_threshold(bad)

    def test_infeasible_tags_get_nan_not_error(self):
        dev = np.zeros((2, 2, 2, 2))
        dev[1] = np.nan
        out = kernels.batch_minimal_feasible_threshold(dev)
        assert out[0] == 0.0
        assert np.isnan(out[1])

    def test_eliminate_vote_bounds(self):
        masks = np.ones((2, 3, 2, 2), dtype=bool)
        with pytest.raises(ConfigurationError, match="1..3"):
            kernels.batch_eliminate(masks, np.array([1, 4]))

    def test_positions_is_scalar_gemv(self):
        """The final contraction reuses the scalar dot product per tag."""
        rng = np.random.default_rng(0)
        w = rng.random((3, 4, 4))
        w /= w.reshape(3, -1).sum(axis=1)[:, None, None]
        pos = rng.random((16, 2))
        batched = kernels.batch_positions(w, pos)
        for t in range(3):
            scalar = w[t].ravel() @ pos
            assert batched[t, 0].hex() == scalar[0].hex()
            assert batched[t, 1].hex() == scalar[1].hex()

    def test_landmarc_distance_ord_validation(self):
        with pytest.raises(ConfigurationError):
            kernels.batch_landmarc_distances(
                np.zeros((1, 2)), np.zeros((1, 2, 3)), ord=np.inf
            )
        with pytest.raises(ConfigurationError):
            kernels.batch_landmarc_distances(
                np.zeros((1, 2)), np.zeros((2, 2, 3))
            )
