"""The virtual reference-tag lattice (paper §4.2).

Each physical cell bounded by four real reference tags is subdivided into
``n x n`` equal virtual cells, whose corners are virtual reference tags.
For a ``rows x cols`` real grid the virtual lattice therefore has

``v_rows = (rows - 1) * n + 1`` by ``v_cols = (cols - 1) * n + 1``

tags (the paper's count of (n+1)² - 4 *added* tags per cell refers to one
isolated cell; on the full grid shared edges make the lattice formula the
correct one). Optionally the lattice is extended ``extension_cells``
physical cells beyond every side of the real grid — virtual tags out
there take *extrapolated* RSSI values, the §6 idea for covering boundary
tracking tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry.grid import ReferenceGrid
from ..utils.validation import ensure_positive_int

__all__ = ["VirtualGrid"]


@dataclass(frozen=True)
class VirtualGrid:
    """Geometry of the virtual lattice over a real reference grid.

    Parameters
    ----------
    grid:
        The real reference grid.
    subdivisions:
        ``n`` — virtual cells per physical cell edge (n=1 means the
        virtual lattice coincides with the real one).
    extension_cells:
        Physical cells of outward extension on every side (0 = paper).
    """

    grid: ReferenceGrid
    subdivisions: int = 10
    extension_cells: int = 0

    def __post_init__(self) -> None:
        ensure_positive_int(self.subdivisions, "subdivisions")
        if self.extension_cells < 0:
            raise ConfigurationError(
                f"extension_cells must be >= 0, got {self.extension_cells}"
            )

    # -- lattice shape -----------------------------------------------------

    @property
    def n(self) -> int:
        """Alias for ``subdivisions`` matching the paper's notation."""
        return self.subdivisions

    @property
    def v_rows(self) -> int:
        """Virtual lattice rows (including any extension)."""
        core = (self.grid.rows - 1) * self.n + 1
        return core + 2 * self.extension_cells * self.n

    @property
    def v_cols(self) -> int:
        """Virtual lattice columns (including any extension)."""
        core = (self.grid.cols - 1) * self.n + 1
        return core + 2 * self.extension_cells * self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.v_rows, self.v_cols)

    @property
    def total_tags(self) -> int:
        """Total virtual+real tag count — the paper's N² axis (Fig. 7)."""
        return self.v_rows * self.v_cols

    @property
    def pitch(self) -> tuple[float, float]:
        """Spacing between adjacent virtual tags, (dy, dx) in metres."""
        return (
            self.grid.spacing_y / self.n,
            self.grid.spacing_x / self.n,
        )

    # -- coordinates ---------------------------------------------------------

    def axis_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ys, xs)`` 1-D coordinate arrays of the lattice axes."""
        dy, dx = self.pitch
        ox, oy = self.grid.origin
        ext = self.extension_cells * self.n
        ys = oy + (np.arange(self.v_rows) - ext) * dy
        xs = ox + (np.arange(self.v_cols) - ext) * dx
        return ys, xs

    def positions(self) -> np.ndarray:
        """All virtual tag coordinates, shape ``(v_rows * v_cols, 2)``,
        row-major (matching ``lattice.ravel()``)."""
        ys, xs = self.axis_coordinates()
        xx, yy = np.meshgrid(xs, ys)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def fractional_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Virtual lattice coordinates in units of *real* grid indices.

        Returns ``(fi, fj)`` 1-D arrays: ``fi[r]`` is the real-grid row
        coordinate (0 .. rows-1, outside that range in the extension) of
        virtual row ``r``; likewise ``fj`` for columns. Interpolators
        consume these.
        """
        ext = self.extension_cells * self.n
        fi = (np.arange(self.v_rows) - ext) / self.n
        fj = (np.arange(self.v_cols) - ext) / self.n
        return fi, fj

    # -- construction helpers --------------------------------------------

    @staticmethod
    def for_target_count(
        grid: ReferenceGrid,
        target_total_tags: int,
        *,
        extension_cells: int = 0,
        max_subdivisions: int = 64,
    ) -> "VirtualGrid":
        """Smallest ``n`` whose lattice reaches ``target_total_tags`` tags.

        Reproduces the paper's Fig. 7 x-axis: "the total number of real
        and virtual reference tags N²".
        """
        if target_total_tags < grid.n_tags:
            raise ConfigurationError(
                f"target_total_tags={target_total_tags} below the real tag "
                f"count {grid.n_tags}"
            )
        for n in range(1, max_subdivisions + 1):
            vg = VirtualGrid(grid, n, extension_cells=extension_cells)
            if vg.total_tags >= target_total_tags:
                return vg
        raise ConfigurationError(
            f"cannot reach {target_total_tags} tags with subdivisions "
            f"<= {max_subdivisions}"
        )
