"""RSSI interpolation onto the virtual lattice (paper §4.2 and §6).

Given one reader's RSSI at the real reference tags — a ``(rows, cols)``
lattice — produce RSSI values for every virtual tag. Three schemes:

* :class:`BilinearInterpolator` — the paper's linear interpolation. The
  paper interpolates along horizontal then vertical lines; composed, that
  is exactly separable bilinear interpolation over each physical cell,
  which is how we implement it (vectorized in one shot).
* :class:`PolynomialInterpolator` — §6's "polynomial relation" future
  work: a separable global polynomial through all the row/column samples
  (Newton/Vandermonde form). Exact at the real tags; prone to Runge
  oscillation on large grids, which is precisely the §6 caveat —
  the ablation bench quantifies it.
* :class:`SplineInterpolator` — the practical nonlinear variant: a
  :class:`scipy.interpolate.RectBivariateSpline` (cubic where the grid
  permits), exact at the real tags, without the Runge pathology.

All interpolators share the signature
``interpolate(lattice, virtual_grid) -> (v_rows, v_cols) array`` and are
exact at virtual positions that coincide with real tags. Outside the real
grid (``extension_cells > 0``) they extrapolate — linearly for the
bilinear scheme (edge-cell gradients), natively for the others.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from scipy.interpolate import RectBivariateSpline

from ..exceptions import ConfigurationError
from .virtual_grid import VirtualGrid

__all__ = [
    "GridInterpolator",
    "BilinearInterpolator",
    "PolynomialInterpolator",
    "SplineInterpolator",
    "SparseBilinearOperator",
    "make_interpolator",
    "fill_masked_lattice",
    "check_lattice",
]


def fill_masked_lattice(
    lattice: np.ndarray,
    *,
    min_coverage: float = 0.25,
) -> np.ndarray:
    """Impute NaN holes in an RSSI lattice from surviving real tags.

    Degraded deployments (dead reference tags, lossy reader links)
    produce lattices with missing entries; the interpolators require
    finite input, so masked estimation first *fills* the holes: missing
    cells adjacent (4-neighbourhood) to known cells take the mean of
    their known neighbours, then the frontier advances until the lattice
    is full. The fill is deterministic (Jacobi-style synchronous sweeps:
    each wave is computed from the previous wave only, so fill order
    cannot matter) and exact at every surviving real tag.

    Parameters
    ----------
    lattice:
        ``(rows, cols)`` RSSI lattice, NaN where the value is missing.
    min_coverage:
        Minimum fraction of present values required; below this the
        surface is guesswork and a
        :class:`~repro.exceptions.ConfigurationError` is raised.

    Returns
    -------
    A fully finite lattice. Already-finite input is returned unchanged
    (same object), preserving bit-identical behaviour on healthy data.
    """
    arr = np.asarray(lattice, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"lattice must be 2-D, got shape {arr.shape}"
        )
    finite = np.isfinite(arr)
    if finite.all():
        return arr
    coverage = float(finite.mean())
    if coverage < min_coverage:
        raise ConfigurationError(
            f"masked lattice coverage {coverage:.2f} below the "
            f"{min_coverage:.2f} floor — too few surviving reference tags"
        )
    filled = np.where(finite, arr, 0.0)
    known = finite.copy()
    while not known.all():
        # One synchronous wave: neighbour sums/counts over *known* cells.
        padded_vals = np.pad(np.where(known, filled, 0.0), 1)
        padded_known = np.pad(known.astype(np.float64), 1)
        neighbour_sum = (
            padded_vals[:-2, 1:-1]
            + padded_vals[2:, 1:-1]
            + padded_vals[1:-1, :-2]
            + padded_vals[1:-1, 2:]
        )
        neighbour_cnt = (
            padded_known[:-2, 1:-1]
            + padded_known[2:, 1:-1]
            + padded_known[1:-1, :-2]
            + padded_known[1:-1, 2:]
        )
        frontier = (~known) & (neighbour_cnt > 0)
        if not frontier.any():  # pragma: no cover - disconnected lattice
            raise ConfigurationError("masked lattice fill cannot progress")
        filled[frontier] = neighbour_sum[frontier] / neighbour_cnt[frontier]
        known |= frontier
    return filled


@runtime_checkable
class GridInterpolator(Protocol):
    """Maps a real-tag RSSI lattice to the virtual lattice."""

    def interpolate(
        self, lattice: np.ndarray, virtual_grid: VirtualGrid
    ) -> np.ndarray:
        """Return virtual RSSI values with shape ``virtual_grid.shape``."""
        ...


def check_lattice(lattice: np.ndarray, virtual_grid: VirtualGrid) -> np.ndarray:
    """Validate an interpolation input lattice (shape + finiteness).

    Every interpolator runs this first; the batch engine's grouped path
    runs it per *unique* lattice so its rejections carry exactly the
    errors the scalar interpolators would raise.
    """
    grid = virtual_grid.grid
    arr = np.asarray(lattice, dtype=np.float64)
    if arr.shape != (grid.rows, grid.cols):
        raise ConfigurationError(
            f"lattice shape {arr.shape} mismatches grid {grid.rows}x{grid.cols}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("RSSI lattice contains non-finite values")
    return arr


_check_lattice = check_lattice


class BilinearInterpolator:
    """The paper's linear interpolation, vectorized as bilinear patches.

    Inside each physical cell, the virtual tag at fractional offset
    ``(p/n, q/n)`` from the cell's SW corner takes

    ``S = (1-fy)(1-fx) S_sw + (1-fy)fx S_se + fy(1-fx) S_nw + fy fx S_ne``

    which reduces to the paper's two 1-D formulas along the lattice lines.
    Beyond the real grid it continues the edge cell's plane (linear
    extrapolation).
    """

    name = "linear"

    def interpolate(
        self, lattice: np.ndarray, virtual_grid: VirtualGrid
    ) -> np.ndarray:
        arr = _check_lattice(lattice, virtual_grid)
        grid = virtual_grid.grid
        fi, fj = virtual_grid.fractional_indices()
        # Base cell indices, clamped so extension cells reuse (extrapolate)
        # the outermost physical cell.
        a = np.clip(np.floor(fi).astype(np.intp), 0, grid.rows - 2)
        b = np.clip(np.floor(fj).astype(np.intp), 0, grid.cols - 2)
        fy = (fi - a)[:, np.newaxis]  # may lie outside [0,1] in the extension
        fx = (fj - b)[np.newaxis, :]
        aa = a[:, np.newaxis]
        bb = b[np.newaxis, :]
        sw = arr[aa, bb]
        se = arr[aa, bb + 1]
        nw = arr[aa + 1, bb]
        ne = arr[aa + 1, bb + 1]
        return (
            (1.0 - fy) * (1.0 - fx) * sw
            + (1.0 - fy) * fx * se
            + fy * (1.0 - fx) * nw
            + fy * fx * ne
        )


class SparseBilinearOperator:
    """:class:`BilinearInterpolator` extracted as a precomputed sparse map.

    Bilinear interpolation is *linear in the lattice*: every virtual tag
    is a fixed convex (inside the grid) combination of its cell's four
    corner tags. For a fixed ``(grid, virtual_grid)`` pair the whole
    interpolation is therefore one sparse ``(V, rows*cols)`` matrix with
    exactly four non-zeros per row — corner indices and corner weights —
    that never changes across readings. This class precomputes that
    operator once and applies it to a whole *stack* of lattices in one
    vectorized gather + multiply-add, which is how the batch engine's
    grouped path amortizes interpolation on independent-path batches
    (every reading its own lattice).

    **Bitwise contract**: ``apply(stack)[m]`` is bit-for-bit equal to
    ``BilinearInterpolator().interpolate(stack[m], virtual_grid)``. The
    weight planes are computed with the very expressions the scalar
    interpolator uses (``(1-fy)*(1-fx)`` …), and the four-term
    combination is evaluated elementwise with the same left-to-right
    association, so every IEEE-754 operation matches the scalar path
    operand-for-operand. Enforced by ``tests/test_engine_grouping.py``.
    """

    def __init__(self, virtual_grid: VirtualGrid):
        grid = virtual_grid.grid
        if grid.rows < 2 or grid.cols < 2:
            raise ConfigurationError(
                "bilinear operator extraction needs a >=2x2 reference grid, "
                f"got {grid.rows}x{grid.cols}"
            )
        self.virtual_grid = virtual_grid
        fi, fj = virtual_grid.fractional_indices()
        a = np.clip(np.floor(fi).astype(np.intp), 0, grid.rows - 2)
        b = np.clip(np.floor(fj).astype(np.intp), 0, grid.cols - 2)
        fy = (fi - a)[:, np.newaxis]
        fx = (fj - b)[np.newaxis, :]
        # The scalar interpolator evaluates e.g. ``(1-fy)*(1-fx)*sw`` as
        # ``((1-fy)*(1-fx)) * sw`` — the weight product is a standalone
        # subexpression, so precomputing it preserves bitwise identity.
        self._weights = np.stack(
            [
                (1.0 - fy) * (1.0 - fx),
                (1.0 - fy) * fx,
                fy * (1.0 - fx),
                fy * fx,
            ]
        )  # (4, v_rows, v_cols)
        aa = a[:, np.newaxis]
        bb = b[np.newaxis, :]
        self._indices = np.stack(
            [
                aa * grid.cols + bb,
                aa * grid.cols + (bb + 1),
                (aa + 1) * grid.cols + bb,
                (aa + 1) * grid.cols + (bb + 1),
            ]
        )  # (4, v_rows, v_cols) flat lattice indices

    @property
    def nnz_per_row(self) -> int:
        """Non-zeros per operator row (the four cell corners)."""
        return 4

    def apply(self, stack: np.ndarray) -> np.ndarray:
        """Interpolate ``M`` lattices at once.

        Parameters
        ----------
        stack:
            ``(M, rows, cols)`` or ``(M, rows*cols)`` finite lattices.

        Returns
        -------
        ``(M, v_rows, v_cols)`` virtual surfaces.
        """
        arr = np.asarray(stack, dtype=np.float64)
        m = arr.shape[0]
        flat = arr.reshape(m, -1)
        grid = self.virtual_grid.grid
        if flat.shape[1] != grid.rows * grid.cols:
            raise ConfigurationError(
                f"lattice stack shape {arr.shape} mismatches grid "
                f"{grid.rows}x{grid.cols}"
            )
        w = self._weights
        # One gather for all four corners: (M, 4, v_rows, v_cols), then
        # scale the gathered block in place and accumulate the corner
        # terms left-to-right. Finite IEEE-754 multiplication is
        # bitwise commutative, so ``g * w`` equals the scalar's
        # ``weight * corner`` term for term, and the in-place adds keep
        # the scalar's left association ``((t0+t1)+t2)+t3`` — only the
        # temporary-array traffic changes.
        g = flat[:, self._indices]
        np.multiply(g, w[np.newaxis], out=g)
        out = g[:, 0] + g[:, 1]
        out += g[:, 2]
        out += g[:, 3]
        return out

    def to_scipy_csr(self):
        """The operator as an explicit ``(V, rows*cols)`` CSR matrix.

        For inspection and cross-validation only — ``apply`` keeps the
        gather form because a generic sparse matvec does not guarantee
        the scalar path's summation order.
        """
        from scipy import sparse

        v_rows, v_cols = self.virtual_grid.shape
        n_out = v_rows * v_cols
        rows = np.repeat(np.arange(n_out), 4)
        cols = self._indices.reshape(4, -1).T.ravel()
        data = self._weights.reshape(4, -1).T.ravel()
        grid = self.virtual_grid.grid
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(n_out, grid.rows * grid.cols)
        )


class PolynomialInterpolator:
    """Separable global polynomial interpolation (degree rows-1 x cols-1).

    Fits, per axis, the unique polynomial through all samples using a
    Vandermonde solve in normalized coordinates (for conditioning), then
    evaluates the tensor product on the virtual lattice. On the paper's
    4x4 grid this is a bicubic surface.
    """

    name = "polynomial"

    #: Refuse plainly ill-conditioned fits; a 1e8 condition number on a
    #: Vandermonde matrix already means meaningless oscillation.
    MAX_GRID_POINTS_PER_AXIS = 12

    def interpolate(
        self, lattice: np.ndarray, virtual_grid: VirtualGrid
    ) -> np.ndarray:
        arr = _check_lattice(lattice, virtual_grid)
        grid = virtual_grid.grid
        if max(grid.rows, grid.cols) > self.MAX_GRID_POINTS_PER_AXIS:
            raise ConfigurationError(
                "global polynomial interpolation is numerically unusable "
                f"beyond {self.MAX_GRID_POINTS_PER_AXIS} points per axis "
                f"(grid is {grid.rows}x{grid.cols}); use 'spline'"
            )
        fi, fj = virtual_grid.fractional_indices()

        # Normalized sample coordinates in [-1, 1] per axis.
        def norm(idx: np.ndarray, count: int) -> np.ndarray:
            half = (count - 1) / 2.0
            return (idx - half) / max(half, 1.0)

        rows_t = norm(np.arange(grid.rows, dtype=np.float64), grid.rows)
        cols_t = norm(np.arange(grid.cols, dtype=np.float64), grid.cols)
        vi_t = norm(fi, grid.rows)
        vj_t = norm(fj, grid.cols)

        # Columns direction first: coefficients per row polynomial.
        v_cols_mat = np.vander(cols_t, N=grid.cols, increasing=True)
        coef_rows = np.linalg.solve(v_cols_mat, arr.T).T  # (rows, cols)
        eval_cols = np.vander(vj_t, N=grid.cols, increasing=True)
        rows_on_vcols = coef_rows @ eval_cols.T  # (rows, v_cols)

        # Then rows direction.
        v_rows_mat = np.vander(rows_t, N=grid.rows, increasing=True)
        coef_cols = np.linalg.solve(v_rows_mat, rows_on_vcols)  # (rows, v_cols)
        eval_rows = np.vander(vi_t, N=grid.rows, increasing=True)
        return eval_rows @ coef_cols  # (v_rows, v_cols)


class SplineInterpolator:
    """Bivariate spline interpolation (cubic where the grid permits).

    Uses :class:`scipy.interpolate.RectBivariateSpline` with smoothing 0
    so it passes exactly through the real tag values. Degree is capped by
    the available points per axis (a 2-point axis degrades to linear).
    """

    name = "spline"

    def __init__(self, degree: int = 3):
        if not (1 <= degree <= 5):
            raise ConfigurationError(f"degree must be in 1..5, got {degree}")
        self.degree = int(degree)

    def interpolate(
        self, lattice: np.ndarray, virtual_grid: VirtualGrid
    ) -> np.ndarray:
        arr = _check_lattice(lattice, virtual_grid)
        grid = virtual_grid.grid
        fi, fj = virtual_grid.fractional_indices()
        kx = min(self.degree, grid.rows - 1)
        ky = min(self.degree, grid.cols - 1)
        spline = RectBivariateSpline(
            np.arange(grid.rows, dtype=np.float64),
            np.arange(grid.cols, dtype=np.float64),
            arr,
            kx=kx,
            ky=ky,
            s=0,
        )
        return spline(fi, fj)


def make_interpolator(kind: str) -> GridInterpolator:
    """Factory keyed by the config string ("linear"/"polynomial"/"spline")."""
    if kind == "linear":
        return BilinearInterpolator()
    if kind == "polynomial":
        return PolynomialInterpolator()
    if kind == "spline":
        return SplineInterpolator()
    raise ConfigurationError(
        f"unknown interpolation kind {kind!r}; "
        "expected 'linear', 'polynomial' or 'spline'"
    )
