"""Property tests of the grouped interpolation path (`repro.engine.grouping`).

The grouped path's claims, each pinned by a hypothesis property:

* **operator extraction is exact** — ``SparseBilinearOperator.apply``
  is bit-for-bit ``BilinearInterpolator.interpolate`` per lattice, for
  any finite lattice stack (compared as uint64 bit patterns), and its
  explicit CSR form agrees numerically;
* **content keys are collision-free by construction** — keys differ
  whenever the lattice bytes differ (including NaN payloads and the
  ±0.0 sign bit) or the masked flag differs, so two readings with
  different lattice structure can never be merged;
* **grouping is invisible** — batch outcomes are invariant (bitwise)
  under permutation of the batch, and a singleton batch equals the
  scalar call, so no observable behaviour depends on which readings
  happened to share a sub-batch;
* **slots are byte-equality classes** — ``LatticeTable.slots_for``
  partitions rows into exactly the byte-equality classes, and a block
  already seen (equal bytes, any array object) gets its first slot
  vector *object* back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.core.interpolation import (
    BilinearInterpolator,
    SparseBilinearOperator,
)
from repro.core.virtual_grid import VirtualGrid
from repro.engine import BatchEngine
from repro.engine.grouping import LatticeTable, operator_for

from .test_engine_properties import (
    assert_outcomes_identical,
    batch_strategy,
    config_strategy,
    scalar_outcomes,
)

GRID = paper_testbed_grid()

lattice_values = st.floats(-120.0, 0.0, allow_nan=False, allow_infinity=False)


def virtual_grid_strategy():
    return st.integers(2, 7).map(lambda s: VirtualGrid(GRID, subdivisions=s))


# -- operator extraction ------------------------------------------------------


class TestSparseOperatorBitwise:
    @given(
        virtual_grid_strategy(),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_apply_equals_scalar_interpolate_bitwise(self, vgrid, m, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-120.0, 0.0, size=(m, GRID.rows, GRID.cols))
        op = SparseBilinearOperator(vgrid)
        scalar = BilinearInterpolator()
        batch = op.apply(stack)
        for i in range(m):
            expected = scalar.interpolate(stack[i], vgrid)
            assert (
                batch[i].view(np.uint64) == expected.view(np.uint64)
            ).all(), "operator diverged from the scalar interpolator"

    def test_operator_for_only_linear(self):
        linear = VIREEstimator(GRID, VIREConfig())
        assert isinstance(operator_for(linear), SparseBilinearOperator)
        spline = VIREEstimator(GRID, VIREConfig(interpolation="spline"))
        assert operator_for(spline) is None


# -- content keys -------------------------------------------------------------


def _row_slots(rows, masked=False) -> np.ndarray:
    """Slots of ``rows`` registered as one reading's reader lattices."""
    from .test_engine_differential import _reading

    est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
    reading = _reading(
        np.stack(rows), np.full(len(rows), -55.0), masked=masked
    )
    return LatticeTable(est).slots_for(reading)


def _block_key(reading) -> tuple:
    ref = reading.reference_rssi
    return (reading.masked, ref.shape, ref.dtype.str, ref.tobytes())


class TestContentKeys:
    @given(
        arrays(np.float64, 16, elements=lattice_values),
        arrays(np.float64, 16, elements=lattice_values),
    )
    @settings(max_examples=60, deadline=None)
    def test_keys_differ_unless_bytes_equal(self, a, b):
        same_bytes = a.tobytes() == b.tobytes()
        slots = _row_slots([a, b])
        assert (slots[0] == slots[1]) == same_bytes

    def test_masked_flag_always_keys_apart(self):
        from .test_engine_differential import _reading

        row = np.linspace(-90.0, -50.0, 16)
        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        table = LatticeTable(est)
        tracking = np.full(1, -55.0)
        plain = table.slots_for(_reading(row[np.newaxis], tracking))
        masked = table.slots_for(
            _reading(row[np.newaxis], tracking, masked=True)
        )
        assert plain is not masked
        assert plain[0] != masked[0]
        assert len(table) == 2

    def test_nan_payloads_and_zero_signs_stay_distinct(self):
        base = np.zeros(16)
        neg = base.copy()
        neg[3] = -0.0
        slots = _row_slots([base, neg])
        assert slots[0] != slots[1]
        nan1, nan2 = base.copy(), base.copy()
        nan1[0] = np.nan
        nan2[0] = np.uint64(0x7FF8000000000001).view(np.float64)
        slots = _row_slots([nan1, nan2], masked=True)
        assert slots[0] != slots[1]

    @given(batch_strategy(min_size=2, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_reading_key_equality_implies_identical_outcomes(self, readings):
        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        outcomes = BatchEngine(est).estimate_outcomes(readings)
        for i, a in enumerate(readings):
            for j, b in enumerate(readings):
                if _block_key(a) == _block_key(b) and (
                    a.tracking_rssi.tobytes() == b.tracking_rssi.tobytes()
                ):
                    assert_outcomes_identical([outcomes[i]], [outcomes[j]])


# -- grouping invisibility ----------------------------------------------------


class TestGroupingInvisible:
    @given(batch_strategy(max_size=6), config_strategy, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_batch_order_permutation_invariance(self, readings, config, rnd):
        est = VIREEstimator(GRID, config)
        engine = BatchEngine(est)
        baseline = engine.estimate_outcomes(readings)
        order = list(range(len(readings)))
        rnd.shuffle(order)
        permuted = engine.estimate_outcomes([readings[i] for i in order])
        assert_outcomes_identical([baseline[i] for i in order], permuted)

    @given(batch_strategy(min_size=1, max_size=1), config_strategy)
    @settings(max_examples=40, deadline=None)
    def test_singleton_batch_equals_scalar(self, readings, config):
        est = VIREEstimator(GRID, config)
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)

    @given(batch_strategy(max_size=4, masked=True), config_strategy)
    @settings(max_examples=30, deadline=None)
    def test_masked_batches_identical_too(self, readings, config):
        est = VIREEstimator(GRID, config)
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)


# -- block and row dedup -----------------------------------------------------


class TestBlockDedup:
    @given(
        st.lists(
            arrays(np.float64, (3, 16), elements=lattice_values),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_slots_partition_rows_into_byte_classes(self, refs, seed):
        from .test_engine_differential import _reading

        rng = np.random.default_rng(seed)
        # Force some sharing: duplicate a few rows and whole blocks.
        pool = np.concatenate(refs, axis=0)
        for ref in refs:
            if rng.random() < 0.5:
                ref[rng.integers(ref.shape[0])] = pool[
                    rng.integers(pool.shape[0])
                ]
        for i in range(1, len(refs)):
            if rng.random() < 0.3:
                refs[i] = refs[rng.integers(i)].copy()
        readings = [
            _reading(ref, rng.uniform(-90.0, -50.0, ref.shape[0]))
            for ref in refs
        ]
        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        table = LatticeTable(est)
        slot_arrays = [table.slots_for(r) for r in readings]

        # Two rows share a slot iff they share bytes, and the slots
        # number exactly the byte classes.
        rows = [row.tobytes() for ref in refs for row in ref]
        flat = np.concatenate(slot_arrays)
        assert len(table) == len(set(rows))
        for i in range(len(rows)):
            same_bytes = np.array([row == rows[i] for row in rows])
            assert ((flat == flat[i]) == same_bytes).all()
        # A repeated block gets the first slot vector object back.
        for i, ref in enumerate(refs):
            for j in range(i):
                if ref.tobytes() == refs[j].tobytes():
                    assert slot_arrays[i] is slot_arrays[j]

    @pytest.mark.parametrize("masked", [False, True])
    def test_equal_blocks_share_one_slot_vector(self, masked):
        from .test_engine_differential import _reading, nan_masked_batch

        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        base = nan_masked_batch(3, 1)[0].reference_rssi
        if not masked:
            base = np.nan_to_num(base, nan=-70.0)
        readings = [
            _reading(base.copy(), np.full(4, level), masked=masked)
            for level in (-50.0, -60.0, -70.0)
        ]
        table = LatticeTable(est)
        slots = [table.slots_for(r) for r in readings]
        assert slots[1] is slots[0] and slots[2] is slots[0]
        assert len(table) == 4
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            BatchEngine(est).estimate_outcomes(readings),
        )

    def test_non_float64_block_is_prepared_like_scalar(self):
        from .test_engine_differential import _reading

        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        rng = np.random.default_rng(5)
        reading = _reading(rng.uniform(-90.0, -50.0, (4, 16)), np.full(4, -55.0))
        single = reading.reference_rssi.astype(np.float32)
        odd = _reading(single.astype(np.float64), np.full(4, -55.0))
        object.__setattr__(odd, "reference_rssi", single)
        readings = [reading, odd]
        table = LatticeTable(est)
        slots = [table.slots_for(r) for r in readings]
        assert set(slots[0]).isdisjoint(slots[1])
        assert_outcomes_identical(
            scalar_outcomes(est, readings),
            BatchEngine(est).estimate_outcomes(readings),
        )


# -- non-finite lattices through the grouped routes ---------------------------


class TestNonFiniteLattices:
    """`TrackingReading` validates unmasked refs at construction, so a
    non-finite lattice can only reach the grouped interpolate through a
    bypass-constructed reading — exactly what a future reading type with
    laxer validation would look like. The table must then record the
    scalar path's exact `ConfigurationError`, per reading, without
    poisoning the rest of the batch, in plain and mixed masked/plain
    batches alike."""

    @staticmethod
    def _bad_reading():
        from .test_engine_differential import _reading

        reading = _reading(np.full((4, 16), -60.0), np.full(4, -55.0))
        ref = reading.reference_rssi.copy()
        ref[1, 5] = np.nan
        object.__setattr__(reading, "reference_rssi", ref)
        return reading

    @staticmethod
    def _good_reading(level: float):
        from .test_engine_differential import _reading

        return _reading(np.full((4, 16), level), np.full(4, level + 4.0))

    def test_plain_batch_matches_scalar(self):
        from repro.exceptions import ConfigurationError

        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        readings = [self._good_reading(-58.0), self._bad_reading()]
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)
        assert isinstance(batch[1], ConfigurationError)

    def test_mixed_masked_batch_matches_scalar(self):
        from repro.exceptions import ConfigurationError

        from .test_engine_differential import nan_masked_batch

        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        readings = [
            nan_masked_batch(0, 1)[0],
            self._bad_reading(),
            self._good_reading(-62.0),
        ]
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)
        assert isinstance(batch[1], ConfigurationError)

    def test_all_errored_batch_matches_scalar(self):
        from .test_engine_differential import _reading

        est = VIREEstimator(GRID, VIREConfig(subdivisions=4))
        all_dark = _reading(
            np.full((4, 16), np.nan), np.full(4, -55.0), masked=True
        )
        readings = [all_dark, all_dark]
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)
