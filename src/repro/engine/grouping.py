"""Content-keyed sub-batch grouping for the batch engine.

The original batch engine shared interpolation only between readings
that carried the *same reference array object* — T tags against one
middleware snapshot. Independent-path batches (distinct readings per
tag, i.e. most real traffic) got none of that win: every reading paid
K scalar interpolation calls.

This module closes that gap in two moves:

* **content keys** — each (reading, reader) lattice is keyed by the
  bytes of its lattice-relevant slice (the reader's reference-RSSI row
  plus the masked flag). Readings that share lattice *content* — not
  object identity — share interpolation work, and readings with
  different lattice structure can never be merged (the key is the full
  byte content, so a collision would require bit-identical inputs,
  which by definition *are* the same lattice).
* **precomputed sparse operators** — for the linear (bilinear) scheme
  the interpolation of a fixed ``(grid, virtual_grid)`` pair is one
  sparse matrix (four non-zeros per row; see
  :class:`~repro.core.interpolation.SparseBilinearOperator`). All
  unique lattices of a batch are stacked and pushed through the
  operator in a single vectorized pass, replacing T*K Python-level
  interpolation calls with one gather + multiply-add.

Both moves preserve the engine's bitwise-identity contract: the content
key dedups only bit-identical inputs of a pure function, and the
operator's arithmetic matches the scalar interpolator operation for
operation. Errors keep their scalar semantics too — a lattice that the
scalar path would reject (reshape failure, masked fill below the
coverage floor, non-finite input) records the exact exception, and each
reading reports the first error among its readers in reader order,
precisely where the scalar loop would have raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.interpolation import (
    SparseBilinearOperator,
    fill_masked_lattice,
)
from ..exceptions import ConfigurationError, ReproError
from ..types import TrackingReading

__all__ = [
    "LatticeTable",
    "lattice_content_key",
    "reading_content_key",
    "operator_for",
]

#: The exact message :func:`repro.core.interpolation.check_lattice`
#: raises for a non-finite lattice — the grouped path's vectorized
#: finiteness check must reproduce it verbatim.
_NON_FINITE_MSG = "RSSI lattice contains non-finite values"


def lattice_content_key(row: np.ndarray, masked: bool) -> tuple:
    """Content key of one (reading, reader) lattice-relevant slice.

    Two slices share interpolation work iff their keys are equal:
    bit-identical reference-RSSI bytes (NaN payloads included — distinct
    NaN patterns stay distinct) and the same masked flag (masked rows
    run the hole-filling pass first, so a byte-identical finite row is
    still keyed apart — conservative, never wrong).
    """
    arr = np.ascontiguousarray(row)
    return (bool(masked), arr.dtype.str, arr.tobytes())


def reading_content_key(reading: TrackingReading) -> tuple:
    """Content key of a whole reading's lattice-relevant slice.

    Readings with equal keys see identical per-reader lattices, hence
    identical interpolation structure — the sub-batch grouping unit.
    """
    arr = np.ascontiguousarray(reading.reference_rssi)
    return (bool(reading.masked), arr.shape, arr.dtype.str, arr.tobytes())


def operator_for(estimator) -> SparseBilinearOperator | None:
    """The estimator's precomputed interpolation operator, if one exists.

    Only the paper's linear scheme is a precomputable sparse operator;
    polynomial/spline estimators return ``None`` and the engine falls
    back to (content-deduped) per-lattice interpolation calls.
    """
    if getattr(estimator._interpolator, "name", None) != "linear":
        return None
    return SparseBilinearOperator(estimator.virtual_grid)


@dataclass
class _Slot:
    """One unique lattice of a batch: its filled form or its error."""

    lattice: np.ndarray | None = None
    error: ReproError | None = None
    surface: np.ndarray | None = None


@dataclass
class LatticeTable:
    """Batch-wide dedup table of unique (reading, reader) lattices.

    Built once per ``estimate_outcomes`` call on the grouped path:
    :meth:`slots_for` registers a reading's K lattices and returns their
    slot indices; :meth:`interpolate` then computes every unique surface
    in one vectorized operator pass (or one per-lattice call for
    non-linear schemes); :meth:`virtual_for` assembles a reading's
    ``(K, v_rows, v_cols)`` tensor — or the first per-reader error, in
    reader order, exactly as the scalar loop would raise it.
    """

    estimator: object
    _index: dict = field(default_factory=dict)
    _slots: list = field(default_factory=list)
    # Operator path: one (n_valid, v_rows, v_cols) block of surfaces
    # plus a slot -> block-row map (-1 = errored slot).
    _surfaces: np.ndarray | None = None
    _rows: np.ndarray | None = None
    # Block path (from_block): the (n_unique, rows, cols) unique-lattice
    # stack; _slots holds per-slot placeholders (None = no error).
    _block: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._slots)

    @classmethod
    def from_block(cls, estimator, readings):
        """Bulk-register a block of plain readings in one vectorized pass.

        When every reading is unmasked with a C-layout float64
        ``(n_readers, grid.n_tags)`` reference array, the per-row dedup
        reduces to byte equality of fixed-width rows: all rows are
        concatenated, viewed as opaque byte records and deduped with one
        ``np.unique`` — the same bit-identical grouping the per-reading
        dict loop produces, minus the Python-level iteration (slot
        *numbering* differs, which nothing observes). Returns
        ``(table, slot_arrays)`` or ``None`` when any reading needs the
        scalar preparation path (masked, wrong width, non-float64).
        """
        grid = estimator.grid
        width = grid.n_tags
        refs = []
        for reading in readings:
            ref = reading.reference_rssi
            if (
                reading.masked
                or not isinstance(ref, np.ndarray)
                or ref.ndim != 2
                or ref.dtype != np.float64
                or ref.shape[1] != width
                or ref.shape[0] != reading.n_readers
            ):
                return None
            refs.append(ref)
        if not refs:
            return None
        block = np.ascontiguousarray(
            np.concatenate(refs, axis=0) if len(refs) > 1 else refs[0]
        )
        records = block.view([("", f"V{8 * width}")]).ravel()
        uniq, inverse = np.unique(records, return_inverse=True)
        table = cls(estimator)
        table._block = (
            np.ascontiguousarray(uniq)
            .view(np.float64)
            .reshape(-1, grid.rows, grid.cols)
        )
        table._slots = [None] * len(uniq)
        slots = []
        start = 0
        for ref in refs:
            k = ref.shape[0]
            slots.append(inverse[start : start + k])
            start += k
        return table, slots

    def slots_for(self, reading: TrackingReading) -> np.ndarray:
        """Register every reader lattice of ``reading``; return slots."""
        est = self.estimator
        masked = bool(reading.masked)
        ref = np.ascontiguousarray(reading.reference_rssi)
        index = self._index
        n_readers = reading.n_readers
        slots = np.empty(n_readers, dtype=np.intp)
        if ref.ndim == 2 and ref.shape[0] == n_readers:
            # Hot path: one buffer serialization per reading, sliced per
            # row (rows of a C-contiguous 2-D array are contiguous byte
            # runs, so the slices equal the per-row ``tobytes``), and —
            # when the row already is a valid float64 lattice vector —
            # a plain reshape instead of ``lattice_from_flat``'s
            # asarray + shape-check + reshape (bit-identical: asarray
            # of a float64 row is the row itself).
            grid = est.grid
            plain = (
                not masked
                and ref.dtype == np.float64
                and ref.shape[1] == grid.n_tags
            )
            rows, cols = grid.rows, grid.cols
            blob = ref.tobytes()
            row_nbytes = ref.shape[1] * ref.itemsize
            dt = ref.dtype.str
            for i in range(n_readers):
                key = (masked, dt, blob[i * row_nbytes : (i + 1) * row_nbytes])
                slot = index.get(key)
                if slot is None:
                    slot = len(self._slots)
                    index[key] = slot
                    if plain:
                        self._slots.append(
                            _Slot(lattice=ref[i].reshape(rows, cols))
                        )
                    else:
                        self._slots.append(self._prepare(est, ref[i], masked))
                slots[i] = slot
            return slots
        for i in range(n_readers):
            row = reading.reference_rssi[i]
            key = lattice_content_key(row, masked)
            slot = index.get(key)
            if slot is None:
                slot = len(self._slots)
                index[key] = slot
                self._slots.append(self._prepare(est, row, masked))
            slots[i] = slot
        return slots

    @staticmethod
    def _prepare(est, row: np.ndarray, masked: bool) -> _Slot:
        """Reshape + (masked) hole-fill one lattice, scalar-exact.

        Mirrors the prefix of the scalar
        :meth:`~repro.core.estimator.VIREEstimator.interpolate_reading`
        loop body; a failure records the exact scalar exception.
        """
        try:
            lattice = est.grid.lattice_from_flat(row)
            if masked:
                lattice = fill_masked_lattice(lattice)
            return _Slot(lattice=lattice)
        except ReproError as exc:
            return _Slot(error=exc)

    def interpolate(self, operator: SparseBilinearOperator | None) -> None:
        """Compute every unique pending surface.

        With an operator every valid lattice is finiteness-checked in
        one vectorized pass (``lattice_from_flat`` already guarantees
        the grid shape, so finiteness is the only rejection
        :func:`~repro.core.interpolation.check_lattice` can still
        raise — non-finite slots record that exact error) and the
        survivors go through one vectorized ``apply``. Without one,
        each unique lattice takes a single scalar interpolation call —
        content dedup is still the win over the per-reading loop.
        """
        if self._block is not None:
            # Block route (from_block): the unique lattices are already
            # stacked; finiteness-check and interpolate in two
            # vectorized passes.
            lattices = self._block
            finite = np.isfinite(lattices).all(axis=(1, 2))
            rows = np.full(len(self._slots), -1, dtype=np.intp)
            if finite.all():
                self._surfaces = operator.apply(lattices)
                rows[:] = np.arange(len(self._slots))
            else:
                for i in np.flatnonzero(~finite):
                    self._slots[i] = _Slot(
                        error=ConfigurationError(_NON_FINITE_MSG)
                    )
                valid = np.flatnonzero(finite)
                if valid.size:
                    self._surfaces = operator.apply(lattices[finite])
                    rows[valid] = np.arange(valid.size)
            self._rows = rows
            return
        est = self.estimator
        pending = [
            i
            for i, slot in enumerate(self._slots)
            if slot.error is None and slot.surface is None
        ]
        if not pending:
            if operator is not None:
                self._rows = np.full(len(self._slots), -1, dtype=np.intp)
            return
        if operator is None:
            for i in pending:
                slot = self._slots[i]
                try:
                    slot.surface = est._interpolator.interpolate(
                        slot.lattice, est.virtual_grid
                    )
                except ReproError as exc:
                    slot.error = exc
            return
        stack = np.stack([self._slots[i].lattice for i in pending])
        finite = np.isfinite(stack).all(axis=(1, 2))
        rows = np.full(len(self._slots), -1, dtype=np.intp)
        if finite.all():
            self._surfaces = operator.apply(stack)
            rows[pending] = np.arange(len(pending))
        else:
            for i, ok in zip(pending, finite):
                if not ok:
                    self._slots[i].error = ConfigurationError(_NON_FINITE_MSG)
            valid = [i for i, ok in zip(pending, finite) if ok]
            if valid:
                self._surfaces = operator.apply(stack[finite])
                rows[valid] = np.arange(len(valid))
        self._rows = rows

    def gather(self, slot_matrix: np.ndarray) -> np.ndarray:
        """Stack a whole group's virtual tensors in one fancy gather.

        ``slot_matrix`` is ``(T, K)`` slot indices for T readings that
        all resolved without error (callers must check
        :attr:`n_errors` / :meth:`virtual_for` first). Returns the
        ``(T, K, v_rows, v_cols)`` tensor the per-reading
        :meth:`virtual_for` stack would produce, in one copy.
        """
        return self._surfaces[self._rows[slot_matrix]]

    def error_for(self, slots: np.ndarray) -> ReproError:
        """The first per-reader error in reader order — exactly the one
        the scalar interpolation loop would raise for this reading."""
        for slot in slots:
            entry = self._slots[slot]
            if entry is not None and entry.error is not None:
                return entry.error
        raise AssertionError(  # pragma: no cover - table misuse
            "error_for on a reading without errors"
        )

    def virtual_for(self, slots: np.ndarray) -> np.ndarray | ReproError:
        """One reading's ``(K, v_rows, v_cols)`` tensor or first error."""
        rows = self._rows
        if rows is not None:
            # Operator path: one fancy gather from the surface block.
            block_rows = rows[slots]
            if (block_rows >= 0).all():
                return self._surfaces[block_rows]
            return self.error_for(slots)
        for slot in slots:
            err = self._slots[slot].error
            if err is not None:
                return err
        return np.stack([self._slots[slot].surface for slot in slots])

    @property
    def n_errors(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot is not None and slot.error is not None
        )
