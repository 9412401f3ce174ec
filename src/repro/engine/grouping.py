"""Content-keyed lattice dedup for the batch engine.

Every (reading, reader) lattice of a batch is registered in one
:class:`LatticeTable` keyed by its *content*, and every unique lattice
is interpolated once:

* **content keys** — a whole reference block is keyed by its masked
  flag, shape, dtype and bytes, and each of its rows by the row bytes
  (plus the masked flag and dtype for rows that are not plain float64
  lattice vectors). Readings that share lattice content — not object
  identity — share interpolation work, and readings with different
  lattice structure can never be merged: the key is the full byte
  content, so a collision requires bit-identical inputs, which by
  definition *are* the same lattice.
* **one interpolation pass** — all unique lattices are stacked once.
  For the linear (bilinear) scheme the interpolation of a fixed
  ``(grid, virtual_grid)`` pair is one sparse matrix (four non-zeros
  per row; see :class:`~repro.core.interpolation.SparseBilinearOperator`)
  applied to the whole stack in one vectorized gather + multiply-add;
  polynomial and spline surfaces come from one scheme call per unique
  lattice.

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

__all__ = ["LatticeTable", "operator_for"]

#: The exact message :func:`repro.core.interpolation.check_lattice`
#: raises for a non-finite lattice — the operator pass's vectorized
#: finiteness check must reproduce it verbatim.
_NON_FINITE_MSG = "RSSI lattice contains non-finite values"


def operator_for(estimator) -> SparseBilinearOperator | None:
    """The estimator's precomputed interpolation operator, if one exists.

    Only the paper's linear scheme is a precomputable sparse operator;
    polynomial/spline estimators return ``None`` and the table calls
    the scheme once per unique lattice.
    """
    if getattr(estimator._interpolator, "name", None) != "linear":
        return None
    return SparseBilinearOperator(estimator.virtual_grid)


@dataclass
class LatticeTable:
    """Batch-wide dedup table of unique (reading, reader) lattices.

    Built once per ``estimate_outcomes`` call: :meth:`slots_for`
    registers a reading's K lattices and returns their slot indices;
    :meth:`interpolate` then computes every unique surface in one pass;
    :meth:`gather` assembles a group's virtual tensor and
    :meth:`error_for` the first per-reader error, in reader order,
    exactly as the scalar loop would raise it.
    """

    estimator: object
    # Whole-block key -> that block's slot vector (returned as the same
    # object on every hit).
    _blocks: dict = field(default_factory=dict)
    # Row key -> slot.
    _index: dict = field(default_factory=dict)
    # Pending lattices as (m, n_tags) pieces, and the slot of each row.
    _pieces: list = field(default_factory=list)
    _pending: list = field(default_factory=list)
    _errors: dict = field(default_factory=dict)
    # After interpolate: one (n_valid, v_rows, v_cols) block of surfaces
    # plus a slot -> block-row map (-1 = errored slot).
    _surfaces: np.ndarray | None = None
    _rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._index)

    def slots_for(self, reading: TrackingReading) -> np.ndarray:
        """Register every reader lattice of ``reading``; return slots.

        A block seen before returns that block's slot vector *object*,
        which :meth:`BatchEngine._estimate_group` reads as "one set of
        K surfaces, broadcast over the group" (T tags of one middleware
        snapshot). A new block's rows are deduped by row bytes (row ``i``
        of the block's C-order ``tobytes`` is that row's ``tobytes``).
        A plain row — unmasked, already a float64 lattice vector — is
        pending as a view of the block (bit-identical to
        ``lattice_from_flat``'s asarray + reshape) and keyed by its
        bytes alone; any other row is keyed with its masked flag and
        dtype and goes through :meth:`_prepare`.
        """
        masked = bool(reading.masked)
        ref = reading.reference_rssi
        blob = ref.tobytes()  # C order, whatever the array's strides
        block_key = (masked, ref.shape, ref.dtype, blob)
        slots = self._blocks.get(block_key)
        if slots is not None:
            return slots
        n_readers, width = ref.shape
        step = width * ref.itemsize
        plain = (
            not masked
            and ref.dtype == np.float64
            and width == self.estimator.grid.n_tags
        )
        index = self._index
        n_old = len(index)
        # A new key takes the next slot number, so new slots are
        # numbered in order of their first row.
        if plain:
            slots = [
                index.setdefault(blob[i * step : (i + 1) * step], len(index))
                for i in range(n_readers)
            ]
        else:
            slots = [
                index.setdefault(
                    (masked, ref.dtype, blob[i * step : (i + 1) * step]),
                    len(index),
                )
                for i in range(n_readers)
            ]
        new_slots = range(n_old, len(index))
        if len(new_slots) == n_readers:
            first_rows = range(n_readers)
        else:
            first_rows = [slots.index(slot) for slot in new_slots]
        if not plain:
            for slot, i in zip(new_slots, first_rows):
                self._prepare(slot, ref[i], masked)
        elif new_slots:
            self._pieces.append(
                ref if len(new_slots) == n_readers else ref[first_rows]
            )
            self._pending.extend(new_slots)
        slots = np.fromiter(slots, np.intp, n_readers)
        self._blocks[block_key] = slots
        return slots

    def _prepare(self, slot: int, row: np.ndarray, masked: bool) -> None:
        """Reshape + (masked) hole-fill one lattice, scalar-exact.

        Mirrors the prefix of the scalar
        :meth:`~repro.core.estimator.VIREEstimator.interpolate_reading`
        loop body; a failure records the exact scalar exception.
        """
        try:
            lattice = self.estimator.grid.lattice_from_flat(row)
            if masked:
                lattice = fill_masked_lattice(lattice)
        except ReproError as exc:
            self._errors[slot] = exc
            return
        self._pieces.append(lattice.reshape(1, -1))
        self._pending.append(slot)

    def interpolate(self, operator: SparseBilinearOperator | None) -> None:
        """Compute every unique pending surface in one pass.

        With an operator the stack is finiteness-checked in one
        vectorized pass (``lattice_from_flat`` already guarantees the
        grid shape, so finiteness is the only rejection
        :func:`~repro.core.interpolation.check_lattice` can still raise
        — non-finite slots record that exact error) and the survivors go
        through one vectorized ``apply``. Without one, each unique
        lattice takes a single scheme call, recording its exact error.
        """
        rows = np.full(len(self), -1, dtype=np.intp)
        self._rows = rows
        if not self._pieces:
            return
        stack = (
            np.concatenate(self._pieces)
            if len(self._pieces) > 1
            else self._pieces[0]
        )
        pending = np.asarray(self._pending, dtype=np.intp)
        if operator is not None:
            finite = np.isfinite(stack).all(axis=1)
            if not finite.all():
                for slot in pending[~finite]:
                    self._errors[slot] = ConfigurationError(_NON_FINITE_MSG)
                stack, pending = stack[finite], pending[finite]
            if pending.size:
                self._surfaces = operator.apply(stack)
        else:
            est = self.estimator
            shape = (est.grid.rows, est.grid.cols)
            surfaces, kept = [], []
            for lattice, slot in zip(stack, pending):
                try:
                    surfaces.append(
                        est._interpolator.interpolate(
                            lattice.reshape(shape), est.virtual_grid
                        )
                    )
                    kept.append(slot)
                except ReproError as exc:
                    self._errors[slot] = exc
            pending = np.asarray(kept, dtype=np.intp)
            if surfaces:
                self._surfaces = np.stack(surfaces)
        rows[pending] = np.arange(pending.size)

    def gather(self, slot_matrix: np.ndarray) -> np.ndarray:
        """Stack a whole group's virtual tensors in one fancy gather.

        ``slot_matrix`` is ``(T, K)`` slot indices for T readings that
        all resolved without error. Returns their
        ``(T, K, v_rows, v_cols)`` virtual tensor in one copy.
        """
        return self._surfaces[self._rows[slot_matrix]]

    def error_for(self, slots: np.ndarray) -> ReproError | None:
        """The first per-reader error in reader order — exactly the one
        the scalar interpolation loop would raise for this reading — or
        ``None`` when every reader's surface exists."""
        if (self._rows[slots] >= 0).all():
            return None
        return next(
            self._errors[slot] for slot in slots if slot in self._errors
        )

    @property
    def n_errors(self) -> int:
        return len(self._errors)
