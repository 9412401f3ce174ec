"""Rooms, walls and obstacles.

A :class:`Room` is a collection of :class:`Wall` segments plus a bounding
box. Walls carry two RF-relevant coefficients:

* ``attenuation_db`` — power lost when a straight propagation path
  *crosses* the wall (through-wall penetration loss);
* ``reflectivity`` — amplitude reflection coefficient in [0, 1] used by
  the image-method multipath model; 0 means the wall never contributes a
  reflected path (an open side).

:meth:`Room.crossing_attenuation_db` prices the straight paths from many
tag positions to one reader in one call: one vectorised crossing test
per attenuating wall, summed in wall order.

The three experimental environments of the paper differ in exactly these
terms: Env1 (semi-open) has few reflective surfaces, Env2 (spacious) has
distant walls, Env3 (small office) has close, highly-reflective walls and
metallic clutter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import GeometryError
from ..utils.arrays import as_points
from ..utils.validation import ensure_in_range, ensure_non_negative
from .vector import Segment, segments_intersect_many

__all__ = ["Wall", "Room", "rectangular_room"]


@dataclass(frozen=True)
class Wall:
    """A wall segment with RF penetration loss and reflectivity."""

    segment: Segment
    attenuation_db: float = 6.0
    reflectivity: float = 0.6
    name: str = ""

    def __post_init__(self) -> None:
        ensure_non_negative(self.attenuation_db, "attenuation_db")
        ensure_in_range(self.reflectivity, "reflectivity", 0.0, 1.0)


@dataclass(frozen=True)
class Room:
    """A 2-D room: bounding box plus a set of walls/obstacles.

    ``bounds`` is ``(xmin, ymin, xmax, ymax)`` in metres; it must contain
    every wall endpoint. The sensing area (reference grid) is typically a
    sub-rectangle of the room.
    """

    bounds: tuple[float, float, float, float]
    walls: tuple[Wall, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = map(float, self.bounds)
        if not (xmax > xmin and ymax > ymin):
            raise GeometryError(f"empty room bounds {self.bounds}")
        object.__setattr__(self, "bounds", (xmin, ymin, xmax, ymax))
        object.__setattr__(self, "walls", tuple(self.walls))
        pad = 1e-9
        for wall in self.walls:
            for pt in (wall.segment.a, wall.segment.b):
                if not (
                    xmin - pad <= pt[0] <= xmax + pad
                    and ymin - pad <= pt[1] <= ymax + pad
                ):
                    raise GeometryError(
                        f"wall endpoint {pt} outside room bounds {self.bounds}"
                    )

    @property
    def width(self) -> float:
        return self.bounds[2] - self.bounds[0]

    @property
    def height(self) -> float:
        return self.bounds[3] - self.bounds[1]

    @property
    def reflective_walls(self) -> tuple[Wall, ...]:
        """Walls that contribute reflected (multipath) rays."""
        return tuple(w for w in self.walls if w.reflectivity > 0.0)

    def contains(self, point: Sequence[float], *, pad: float = 0.0) -> bool:
        """True if the point lies within the (optionally padded) bounds."""
        x, y = float(point[0]), float(point[1])
        xmin, ymin, xmax, ymax = self.bounds
        return (
            xmin - pad <= x <= xmax + pad and ymin - pad <= y <= ymax + pad
        )

    def crossing_attenuation_db(
        self, starts: np.ndarray, end: Sequence[float]
    ) -> np.ndarray:
        """Penetration loss (dB) of the straight path from each start to ``end``.

        ``starts`` has shape ``(n, 2)``; returns shape ``(n,)``. Each wall
        a path crosses contributes its ``attenuation_db``, summed in wall
        order from ``0.0``. Crossings are decided one wall at a time for
        all paths at once (:func:`~repro.geometry.vector.segments_intersect_many`).
        """
        pts = as_points(starts, "path starts")
        total = np.zeros(pts.shape[0])
        for wall in self.walls:
            if wall.attenuation_db > 0.0:
                crossed = segments_intersect_many(pts, end, wall.segment)
                total[crossed] += wall.attenuation_db
        return total

    def with_walls(self, extra: Iterable[Wall]) -> "Room":
        """Return a copy of this room with additional walls/obstacles."""
        return Room(
            bounds=self.bounds, walls=self.walls + tuple(extra), name=self.name
        )


def rectangular_room(
    width: float,
    height: float,
    *,
    origin: tuple[float, float] = (0.0, 0.0),
    attenuation_db: float = 10.0,
    reflectivity: float = 0.6,
    open_sides: Sequence[str] = (),
    name: str = "",
) -> Room:
    """Build a rectangular room whose four sides are walls.

    Parameters
    ----------
    open_sides:
        Subset of ``{"left", "right", "bottom", "top"}``; those sides get
        zero reflectivity and zero attenuation (a semi-open area such as
        the paper's Env1).
    """
    ox, oy = float(origin[0]), float(origin[1])
    w = float(width)
    h = float(height)
    if w <= 0 or h <= 0:
        raise GeometryError(f"room dimensions must be positive, got {width}x{height}")
    sides = {
        "bottom": Segment((ox, oy), (ox + w, oy)),
        "right": Segment((ox + w, oy), (ox + w, oy + h)),
        "top": Segment((ox + w, oy + h), (ox, oy + h)),
        "left": Segment((ox, oy + h), (ox, oy)),
    }
    unknown = set(open_sides) - sides.keys()
    if unknown:
        raise GeometryError(f"unknown open_sides {sorted(unknown)}")
    walls = []
    for side, seg in sides.items():
        is_open = side in open_sides
        walls.append(
            Wall(
                segment=seg,
                attenuation_db=0.0 if is_open else attenuation_db,
                reflectivity=0.0 if is_open else reflectivity,
                name=side,
            )
        )
    return Room(
        bounds=(ox, oy, ox + w, oy + h),
        walls=tuple(walls),
        name=name or f"rect-{w:g}x{h:g}",
    )
