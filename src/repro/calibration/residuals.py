"""NaN-safe robust statistics over reference-tag residual windows.

The self-healing calibration loop (:mod:`repro.calibration.corrector`)
works on *residual matrices*: per-(reader, reference-tag) differences
between the RSSI the middleware currently reports and the clean baseline
captured at the end of warm-up. Reference tags sit at known positions,
so under perfect calibration every residual is zero-mean noise; a
drifting reader shifts a whole *row*, a decaying reference tag shifts a
whole *column*.

Everything here must be NaN-safe by construction: masked partial frames,
quorum-trimmed snapshots and stale middleware series all surface as NaN
cells, and a window observed during a total outage can be entirely NaN
(or entirely empty, for a deployment with zero reference tags). None of
the helpers may emit numpy's all-NaN-slice warnings — they filter finite
values explicitly and return NaN when there is no evidence at all.

All outputs are pure functions of their inputs (no RNG, no wall-clock),
which is what lets the corrector's state replay bit-identically from a
checkpoint.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ResidualWindow",
    "decompose_residuals",
]

#: Consistency constant turning a MAD into a Gaussian-comparable sigma.
MAD_SIGMA = 1.4826


def _mad_of_sorted(values: list[float]) -> float:
    """The MAD of a non-empty ascending list of finite floats, bit for
    bit what two ``np.median`` calls give.

    The deviations of a sorted list form one falling and one rising run,
    so the second ``sorted`` is a merge. A median of two middle entries
    is their sum over two, as ``np.median`` computes it; where that sum
    is ``-0.0`` numpy gives ``+0.0``, and either sign yields the same
    absolute deviations.
    """
    n = len(values)
    half = n // 2
    center = values[half] if n % 2 else (values[half - 1] + values[half]) / 2.0
    deviations = sorted([abs(v - center) for v in values])
    if n % 2:
        return deviations[half]
    return (deviations[half - 1] + deviations[half]) / 2.0


@functools.lru_cache(maxsize=None)
def _middle_pairs(width: int) -> np.ndarray:
    """Per NaN count ``0..width`` of a sorted row: the offsets of the
    middle pair of its non-NaN prefix (``(0, 0)`` for an all-NaN row,
    whose entry 0 is NaN). Read-only; a table lookup is ~7 µs a median
    cheaper than the same offsets computed per call."""
    count = width - np.arange(width + 1)
    pairs = np.stack((np.maximum(count - 1, 0) >> 1, count >> 1), axis=1)
    pairs.flags.writeable = False
    return pairs


def _nanmedian(a: np.ndarray, axis: tuple[int, int]) -> np.ndarray:
    """``np.nanmedian(a, axis=axis)`` of a 3-d array, bit for bit.

    numpy's own route for small arrays goes through masked arrays and
    costs ~0.6 ms on a ``(7, 4, 16)`` window. This is the same
    arithmetic without it: lay the reduced axes out as numpy does (kept
    axis first, reduced axes flattened in order), one NaN-last sort of
    each row, one gather of the middle pair of each row's non-NaN prefix
    (the same entry twice for an odd count; entry 0, a NaN, for an
    all-NaN row, so all-NaN slices give NaN, silently) and the pair
    summed over two with the reduction numpy's median uses. Equal values
    may leave a sort in any order, and only ``0.0`` and ``-0.0`` are
    equal with different bits; that reduction sums any two zeros to
    ``+0.0``, so the order never reaches the result.
    """
    kept = 3 - axis[0] - axis[1]  # the axis not reduced
    rows, width = a.shape[kept], a.shape[axis[0]] * a.shape[axis[1]]
    if width == 0:
        return np.full(rows, np.nan)
    flat = np.array(a.swapaxes(0, kept), order="C").reshape(rows, width)
    flat.sort(axis=1)
    middle = _middle_pairs(width)[np.add.reduce(np.isnan(flat), axis=1)]
    pair = flat.take(middle + np.arange(0, rows * width, width)[:, np.newaxis])
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, as in numpy
        return np.add.reduce(pair, axis=1) / 2.0  # what pair.sum(axis=1) runs


class ResidualWindow:
    """A sim-clock sliding window of residual matrices.

    ``push(now_s, residuals)`` appends one ``(K, n_refs)`` observation
    and drops every entry older than ``window_s`` (strictly: entries
    with ``now_s - t > window_s``). Time is the simulation clock, so the
    window contents — and everything estimated from them — are a pure
    function of the seeded record stream.

    The entries live in one ``(capacity, K, n_refs)`` array: the window
    is the rows ``[start, end)``. A push writes row ``end``; expiry moves
    ``start``. When ``end`` reaches the capacity the live rows move to
    the front, into an array twice as large if they fill half of it.
    """

    def __init__(self, window_s: float):
        self.window_s = float(window_s)
        self._rows: np.ndarray | None = None
        self._times: list[float] = []  # one per row of ``_rows``
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def push(self, now_s: float, residuals: np.ndarray) -> None:
        """Append one observation and expire everything out of window.

        Raises :class:`ValueError` when ``residuals`` has another shape
        than the entries still in the window.
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        rows = self._rows
        if rows is None or rows.shape[1:] != residuals.shape:
            if len(self):
                raise ValueError(
                    f"residuals of shape {residuals.shape} pushed onto a "
                    f"window of shape {rows.shape[1:]}"
                )
            rows = self._rows = np.empty((8, *residuals.shape))
            self._times = [0.0] * 8
            self._start = self._end = 0
        elif self._end == len(rows):
            live = len(self)
            if 2 * live > len(rows):
                grown = np.empty((2 * len(rows), *rows.shape[1:]))
                grown[:live] = rows[self._start:self._end]
                self._times.extend([0.0] * len(rows))
                rows = self._rows = grown
            else:
                rows[:live] = rows[self._start:self._end]
            self._times[:live] = self._times[self._start:self._end]
            self._start, self._end = 0, live
        now_s = float(now_s)
        rows[self._end] = residuals
        self._times[self._end] = now_s
        self._end += 1
        horizon = now_s - self.window_s
        times = self._times
        while self._start < self._end and times[self._start] < horizon:
            self._start += 1

    def stacked(self) -> np.ndarray:
        """The window as one read-only ``(T, K, n_refs)`` array (``T`` may
        be 0), valid until the next :meth:`push` or :meth:`clear`."""
        if not len(self):
            return np.empty((0, 0, 0))
        view = self._rows[self._start:self._end]
        view.flags.writeable = False
        return view

    def clear(self) -> None:
        self._start = self._end = 0


def decompose_residuals(
    stacked: np.ndarray,
    *,
    trusted_columns: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Median-polish a residual window into reader and tag components.

    Parameters
    ----------
    stacked:
        ``(T, K, n_refs)`` residual window (NaN = no evidence).
    trusted_columns:
        Optional boolean mask of length ``n_refs``; only these columns
        feed the per-reader bias estimate (quarantined tags must not
        contaminate the very estimate used to judge them). All columns
        are always scored.

    Returns
    -------
    ``(reader_bias, tag_scores, scale)`` where ``reader_bias`` has shape
    ``(K,)`` (NaN when a reader has no finite evidence), ``tag_scores``
    has shape ``(n_refs,)`` — each tag's median residual *after* the
    per-reader bias is removed — and ``scale`` is the
    :data:`MAD_SIGMA`-normalized MAD of the tag scores (NaN when fewer
    than two tags have evidence).

    The decomposition order encodes the physical failure modes: a
    drifting reader moves a whole row (captured first, robust to a few
    bad tags), a decaying tag moves what is left of its column across
    every reader.

    Each median is ``np.nanmedian`` over numpy's layout of the reduced
    axes, bit for bit: reader ``k``'s row lists ``stacked[t, k, j]``
    with ``t`` outer, tag ``j``'s row lists ``stacked[t, k, j]`` with
    ``k`` outer.
    """
    if stacked.ndim != 3:
        raise ValueError(f"expected (T, K, n_refs) residuals, got shape {stacked.shape}")
    n_ticks, n_readers, n_refs = stacked.shape
    if n_ticks == 0 or n_refs == 0:
        # No evidence at all: NaN biases, NaN scores, NaN scale.
        return (
            np.full(n_readers, np.nan),
            np.full(n_refs, np.nan),
            float("nan"),
        )
    trusted = stacked if trusted_columns is None else stacked[:, :, trusted_columns]
    # All-NaN slices legitimately mean "no evidence": the NaN flows
    # through.
    reader_bias = _nanmedian(trusted, (0, 2))
    centered_bias = np.where(np.isfinite(reader_bias), reader_bias, 0.0)
    tag_scores = _nanmedian(stacked - centered_bias[:, np.newaxis], (0, 1))
    finite = sorted([x for x in tag_scores.tolist() if math.isfinite(x)])
    scale = float("nan")
    if len(finite) >= 2:
        scale = MAD_SIGMA * _mad_of_sorted(finite)
    return reader_bias, tag_scores, scale
