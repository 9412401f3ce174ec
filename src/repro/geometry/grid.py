"""The real reference-tag grid.

The paper's testbed places 16 real reference tags as a 4x4 grid with 1 m
spacing. :class:`ReferenceGrid` generalizes to any ``rows x cols`` grid
with independent x/y spacing (the paper's §6 notes a square grid is not
required), and provides the index bookkeeping shared by LANDMARC (which
uses the tags directly) and VIRE (which subdivides cells into virtual
tags).

Index conventions
-----------------
Tags are indexed ``(row, col)`` with row 0 at ``origin`` and y increasing
with the row index. The *flat* ordering is row-major:
``flat = row * cols + col``. All RSSI matrices over reference tags use the
flat ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import GeometryError
from ..utils.validation import ensure_positive, ensure_positive_int

__all__ = ["ReferenceGrid"]


@dataclass(frozen=True)
class ReferenceGrid:
    """A regular ``rows x cols`` lattice of real reference tags.

    Parameters
    ----------
    rows, cols:
        Number of tags per column / per row (>= 2 each, so that at least
        one physical cell exists).
    spacing_x, spacing_y:
        Distance between adjacent tags along x and y (metres).
    origin:
        Coordinate of tag ``(0, 0)``.
    """

    rows: int = 4
    cols: int = 4
    spacing_x: float = 1.0
    spacing_y: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        ensure_positive_int(self.rows, "rows", minimum=2)
        ensure_positive_int(self.cols, "cols", minimum=2)
        ensure_positive(self.spacing_x, "spacing_x")
        ensure_positive(self.spacing_y, "spacing_y")
        ox, oy = float(self.origin[0]), float(self.origin[1])
        if not (np.isfinite(ox) and np.isfinite(oy)):
            raise GeometryError(f"non-finite grid origin {self.origin}")
        object.__setattr__(self, "origin", (ox, oy))

    # -- basic properties ------------------------------------------------

    @property
    def n_tags(self) -> int:
        """Total number of real reference tags."""
        return self.rows * self.cols

    @property
    def width(self) -> float:
        """Extent of the grid along x (metres)."""
        return (self.cols - 1) * self.spacing_x

    @property
    def height(self) -> float:
        """Extent of the grid along y (metres)."""
        return (self.rows - 1) * self.spacing_y

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the tag lattice."""
        ox, oy = self.origin
        return (ox, oy, ox + self.width, oy + self.height)

    # -- coordinates -----------------------------------------------------

    def tag_positions(self) -> np.ndarray:
        """All tag coordinates, shape ``(rows*cols, 2)``, row-major order."""
        ox, oy = self.origin
        xs = ox + np.arange(self.cols) * self.spacing_x
        ys = oy + np.arange(self.rows) * self.spacing_y
        xx, yy = np.meshgrid(xs, ys)  # yy varies along rows
        return np.column_stack([xx.ravel(), yy.ravel()])

    def lattice_from_flat(self, values: Sequence[float]) -> np.ndarray:
        """Reshape a flat per-tag vector into the ``(rows, cols)`` lattice."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.n_tags,):
            raise GeometryError(
                f"expected {self.n_tags} per-tag values, got shape {arr.shape}"
            )
        return arr.reshape(self.rows, self.cols)

    def scaled(self, factor: float) -> "ReferenceGrid":
        """Return a grid with spacings multiplied by ``factor`` (same counts).

        Used by the grid-spacing ablation (paper §6 future work).
        """
        f = ensure_positive(factor, "factor")
        return ReferenceGrid(
            rows=self.rows,
            cols=self.cols,
            spacing_x=self.spacing_x * f,
            spacing_y=self.spacing_y * f,
            origin=self.origin,
        )
