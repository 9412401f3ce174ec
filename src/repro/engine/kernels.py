"""NumPy-vectorized batch kernels over ``(T, K, v_rows, v_cols)`` tensors.

Every kernel here is the batched twin of a scalar kernel in
:mod:`repro.core` and is **bitwise identical** to running the scalar
kernel per tag. That guarantee is not an accident — each kernel is built
only from operations whose result cannot depend on the batch dimension:

* elementwise arithmetic/comparisons (``abs``, ``-``, ``<=``) are
  applied per element either way;
* reductions run over the *same axis length in the same order* — numpy
  reduces ``(T, K, r, c)`` over the K axis exactly as it reduces
  ``(K, r, c)`` over its leading axis (slice-sequential), and pairwise
  summation blocking depends only on the reduction length;
* order statistics (``partition``) select a value that is unique
  regardless of the partition algorithm;
* connected-component sizes are integers (exact in float64).

The one operation where BLAS could reorder sums — the final
``weights @ positions`` contraction — is deliberately looped per tag so
the scalar dot-product code path is reused verbatim. The equivalence is
enforced by golden traces and hypothesis property tests
(``tests/test_engine_properties.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from ..exceptions import ConfigurationError, EstimationError

__all__ = [
    "batch_rssi_deviations",
    "batch_minimal_feasible_threshold",
    "batch_proximity_masks",
    "batch_map_areas",
    "batch_eliminate",
    "batch_w1",
    "batch_w2",
    "batch_combine_weights",
    "batch_positions",
    "batch_landmarc_distances",
]

_EPS_DB = 1e-6  # mirrors repro.core.weighting._EPS_DB


def _check_batch(dev: np.ndarray, name: str = "deviations") -> np.ndarray:
    arr = np.asarray(dev, dtype=np.float64)
    if arr.ndim != 4:
        raise ConfigurationError(
            f"{name} must have shape (T, K, v_rows, v_cols), got {arr.shape}"
        )
    return arr


def batch_rssi_deviations(
    virtual_rssi: np.ndarray, tracking_rssi: np.ndarray
) -> np.ndarray:
    """``|virtual - tracking|`` for T tags at once.

    Parameters
    ----------
    virtual_rssi:
        ``(T, K, v_rows, v_cols)`` stacked per-tag interpolation output
        (tags sharing a snapshot share the same K surfaces — the caller
        may pass one set broadcast over T; the subtraction is
        elementwise, so the result is the same either way).
    tracking_rssi:
        ``(T, K)`` tracking-tag RSSI.
    """
    v = _check_batch(virtual_rssi, "virtual_rssi")
    t = np.asarray(tracking_rssi, dtype=np.float64)
    if t.shape != v.shape[:2]:
        raise ConfigurationError(
            f"tracking_rssi shape {t.shape} mismatches batch {v.shape[:2]}"
        )
    out = np.subtract(v, t[:, :, np.newaxis, np.newaxis])
    return np.abs(out, out=out)


def batch_minimal_feasible_threshold(
    deviations: np.ndarray, *, min_cells: int = 1
) -> np.ndarray:
    """Per-tag minimal feasible threshold, shape ``(T,)``.

    The batched closed form of paper §4.3 (see
    :func:`repro.core.threshold.minimal_feasible_threshold`): the
    ``min_cells``-th smallest per-cell maximum deviation, per tag.
    Infeasible tags (fewer than ``min_cells`` fully-known cells) get
    ``NaN`` — the caller decides whether that is an error.
    """
    dev = _check_batch(deviations)
    if min_cells < 1:
        raise ConfigurationError(f"min_cells must be >= 1, got {min_cells}")
    n_tags = dev.shape[0]
    cells = dev.shape[2] * dev.shape[3]
    if min_cells > cells:
        raise ConfigurationError(
            f"min_cells={min_cells} exceeds the {cells} lattice cells"
        )
    # fmin/fmax skip NaN, so one min and one max pass find any infinity
    # or finite negative without two boolean temporaries.
    if dev.size and (
        np.fmin.reduce(dev, axis=None) < 0
        or np.fmax.reduce(dev, axis=None) == np.inf
    ):
        raise ConfigurationError("deviations must be non-negative (NaN = unknown)")
    # max over the K axis: slice-sequential maximum, identical per tag.
    worst = dev.max(axis=1).reshape(n_tags, cells)
    nan_cells = np.isnan(worst)
    if nan_cells.any():
        worst = np.where(nan_cells, np.inf, worst)
    idx = min_cells - 1
    out = np.partition(worst, idx, axis=1)[:, idx]
    return np.where(np.isfinite(out), out, np.nan)


def batch_proximity_masks(
    deviations: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Boolean candidate masks ``(T, K, v_rows, v_cols)``.

    ``thresholds`` is one shared threshold per tag, shape ``(T,)``. NaN
    deviations are never candidates (masked/degraded inputs).
    """
    dev = _check_batch(deviations)
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.shape != (dev.shape[0],):
        raise ConfigurationError(
            f"thresholds shape {thr.shape} mismatches batch of {dev.shape[0]}"
        )
    if (thr < 0).any():
        raise ConfigurationError("thresholds must be non-negative")
    with np.errstate(invalid="ignore"):
        mask = dev <= thr[:, np.newaxis, np.newaxis, np.newaxis]
    # NaN <= t is already False, but make the contract explicit.
    mask &= np.isfinite(dev)
    return mask


def batch_map_areas(masks: np.ndarray) -> np.ndarray:
    """Per-reader proximity-map areas, shape ``(T, K)`` (int)."""
    if masks.ndim != 4:
        raise ConfigurationError(
            f"masks must have shape (T, K, v_rows, v_cols), got {masks.shape}"
        )
    return masks.sum(axis=(2, 3))


def batch_eliminate(
    masks: np.ndarray, min_votes: np.ndarray | None = None
) -> np.ndarray:
    """Batched intersection of the per-reader maps → ``(T, v_rows, v_cols)``.

    ``min_votes`` is per tag (``None`` = all K readers, the paper's
    strict intersection).
    """
    if masks.ndim != 4:
        raise ConfigurationError(
            f"masks must have shape (T, K, v_rows, v_cols), got {masks.shape}"
        )
    n_tags, k = masks.shape[:2]
    if min_votes is None:
        needed = np.full(n_tags, k, dtype=np.int64)
    else:
        needed = np.asarray(min_votes, dtype=np.int64)
        if needed.shape != (n_tags,):
            raise ConfigurationError(
                f"min_votes shape {needed.shape} mismatches batch of {n_tags}"
            )
    bad = (needed < 1) | (needed > k)
    if bad.any():
        raise ConfigurationError(
            f"min_votes must be within 1..{k}, got {int(needed[bad][0])}"
        )
    if masks.dtype == bool and (needed == k).all():
        # Every reader must vote (the paper's strict intersection): the
        # boolean AND over readers is ``votes >= k`` without the vote count.
        return masks.all(axis=1)
    votes = masks.sum(axis=1, dtype=np.int64)
    return votes >= needed[:, np.newaxis, np.newaxis]


def batch_w1(
    deviations: np.ndarray,
    selected: np.ndarray,
    *,
    mode: str = "inverse",
    virtual_rssi: np.ndarray | None = None,
) -> np.ndarray:
    """Batched discrepancy factor — twin of
    :func:`repro.core.weighting.compute_w1`, shape ``(T, v_rows, v_cols)``.
    """
    dev = _check_batch(deviations)
    sel = np.asarray(selected, dtype=bool)
    if sel.shape != (dev.shape[0], *dev.shape[2:]):
        raise ConfigurationError(
            f"selection shape {sel.shape} mismatches deviations {dev.shape}"
        )
    out = np.zeros(sel.shape)
    if mode == "uniform":
        out[sel] = 1.0
        return out
    if mode == "inverse":
        mean_dev = dev.mean(axis=1)
        out[sel] = 1.0 / (mean_dev[sel] + _EPS_DB)
        return out
    if mode == "paper-literal":
        if virtual_rssi is None:
            raise ConfigurationError(
                "paper-literal w1 requires the interpolated virtual_rssi"
            )
        v = _check_batch(virtual_rssi, "virtual_rssi")
        if v.shape != dev.shape:
            raise ConfigurationError(
                f"virtual_rssi shape {v.shape} mismatches deviations {dev.shape}"
            )
        literal = (dev / np.maximum(np.abs(v), _EPS_DB)).mean(axis=1)
        out[sel] = 1.0 / (literal[sel] + _EPS_DB)
        return out
    raise ConfigurationError(f"unknown w1 mode {mode!r}")


def _label_structure(connectivity: int) -> np.ndarray:
    if connectivity == 4:
        return np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if connectivity == 8:
        return np.ones((3, 3))
    raise ConfigurationError(f"connectivity must be 4 or 8, got {connectivity}")


def batch_w2(selected: np.ndarray, *, connectivity: int = 4) -> np.ndarray:
    """Batched cluster-density factor — twin of
    :func:`repro.core.weighting.compute_w2`.

    All T masks are labelled in **one** ``scipy.ndimage.label`` call:
    the masks are stacked into a tall ``(T*(rows+1), cols)`` plane with a
    blank separator row between consecutive tags. One blank row is
    enough for both 4- and 8-connectivity (rows of adjacent tags end up
    two apart), so components never bridge tags. Component sizes are
    exact integers, hence bitwise identical to per-tag labelling.
    """
    sel = np.asarray(selected, dtype=bool)
    if sel.ndim != 3:
        raise ConfigurationError(
            f"selected must have shape (T, v_rows, v_cols), got {sel.shape}"
        )
    structure = _label_structure(connectivity)
    n_tags, rows, cols = sel.shape
    stacked = np.zeros(((rows + 1) * n_tags, cols), dtype=bool)
    # View the stack as (T, rows+1, cols): tag t fills the first `rows`
    # rows of its block, the last row stays blank (separator).
    stacked.reshape(n_tags, rows + 1, cols)[:, :rows, :] = sel
    labels, n = ndimage.label(stacked, structure=structure)
    if n == 0:
        return np.zeros(sel.shape)
    # Label 0 (background) maps to 0.0, so one gather of the size table
    # replaces the masked scatter into a zero array.
    sizes = np.bincount(labels.ravel(), minlength=n + 1).astype(np.float64)
    sizes[0] = 0.0
    return sizes.take(labels.reshape(n_tags, rows + 1, cols)[:, :rows, :])


def batch_combine_weights(w1: np.ndarray, w2: np.ndarray | None) -> np.ndarray:
    """Normalize ``w = w1 * w2`` per tag — twin of
    :func:`repro.core.weighting.combine_weights`.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.ndim != 3:
        raise ConfigurationError(
            f"w1 must have shape (T, v_rows, v_cols), got {w1.shape}"
        )
    w = w1 if w2 is None else w1 * np.asarray(w2, dtype=np.float64)
    if (w < 0).any():
        raise ConfigurationError("weights must be non-negative")
    n_tags = w.shape[0]
    totals = w.reshape(n_tags, -1).sum(axis=1)
    if (totals <= 0).any():
        raise EstimationError("no surviving cells to weight")
    return w / totals[:, np.newaxis, np.newaxis]


def batch_landmarc_distances(
    tracking: np.ndarray, references: np.ndarray, *, ord: float = 2.0
) -> np.ndarray:
    """RSSI-space distances for T readings at once, shape ``(T, n_refs)``.

    Batched twin of :func:`repro.baselines.landmarc.rssi_space_distances`
    (finite positive ``ord`` only — the norms the estimator uses). The
    scalar function sums per-reader contributions in canonical (sorted)
    order; sorting each column of a ``(T, K, n_refs)`` tensor along the K
    axis yields the same sorted sequences, and the axis-1 reduction adds
    the K slices in the same sequential order as the scalar axis-0
    reduction — hence bitwise identity per tag. For fully present
    readings the coverage rescale is exactly ``K/K = 1.0`` and
    ``1.0 * sums`` is bitwise ``sums``, so one formula covers the scalar
    function's masked and unmasked branches alike.

    Parameters
    ----------
    tracking:
        ``(T, K)`` tracking-tag RSSI.
    references:
        ``(T, K, n_refs)`` reference-tag RSSI (NaN = masked hole).
    """
    t = np.asarray(tracking, dtype=np.float64)
    r = np.asarray(references, dtype=np.float64)
    if r.ndim != 3 or t.shape != r.shape[:2]:
        raise ConfigurationError(
            f"expected tracking (T, K) and references (T, K, n_refs), got "
            f"{t.shape} and {r.shape}"
        )
    if not np.isfinite(ord) or ord <= 0:
        raise ConfigurationError(
            f"batched distances require a finite positive ord, got {ord}"
        )
    diff = r - t[:, :, np.newaxis]
    present = np.isfinite(diff)
    k = diff.shape[1]
    counts = present.sum(axis=1)  # (T, n_refs)
    contrib = np.sort(np.abs(np.where(present, diff, 0.0)) ** ord, axis=1)
    sums = contrib.sum(axis=1)
    out = np.full(sums.shape, np.inf)
    has_any = counts > 0
    out[has_any] = (k / counts[has_any] * sums[has_any]) ** (1.0 / ord)
    return out


def batch_positions(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Weighted centroid per tag, shape ``(T, 2)``.

    Looped per tag on purpose: ``w.ravel() @ positions`` is exactly the
    scalar estimator's contraction (BLAS gemv); a batched gemm could
    re-order the partial sums and break bitwise equivalence.
    """
    w = np.asarray(weights, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    if w.ndim != 3:
        raise ConfigurationError(
            f"weights must have shape (T, v_rows, v_cols), got {w.shape}"
        )
    if pos.shape != (w.shape[1] * w.shape[2], 2):
        raise ConfigurationError(
            f"positions shape {pos.shape} mismatches lattice {w.shape[1:]}"
        )
    out = np.empty((w.shape[0], 2))
    for t in range(w.shape[0]):
        out[t] = w[t].ravel() @ pos
    return out
