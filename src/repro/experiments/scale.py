"""Large-scale testbeds (paper §6 future work).

"Due to the limitation on the number of tags and readers we have, we are
unable to provide a larger scale system performance study. As the future
work, we would like to build a much larger reference tag array in a much
larger sensing area."

This module builds that study synthetically: reference grids of any
size inside proportionally scaled rooms, tracking tags scattered over
the whole sensing area, and optional extra readers (a perimeter ring
instead of 4 corners).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry.grid import ReferenceGrid
from ..geometry.rooms import rectangular_room
from ..rf.environments import EnvironmentSpec, env3
from ..utils.rng import derive_rng
from .scenarios import TestbedScenario

__all__ = ["scaled_environment", "large_scale_scenario", "perimeter_reader_positions"]


def scaled_environment(
    base: EnvironmentSpec,
    grid: ReferenceGrid,
    *,
    wall_clearance_m: float = 2.5,
) -> EnvironmentSpec:
    """Re-house a channel recipe in a room sized for a larger grid.

    Keeps every propagation parameter of ``base``; replaces the room with
    a rectangle leaving ``wall_clearance_m`` beyond the reader ring
    (readers sit 1 m outside the grid).
    """
    if wall_clearance_m <= 1.0:
        raise ConfigurationError(
            f"wall_clearance_m must exceed the 1 m reader margin, got "
            f"{wall_clearance_m}"
        )
    xmin, ymin, xmax, ymax = grid.bounds
    pad = wall_clearance_m
    room = rectangular_room(
        (xmax - xmin) + 2 * pad,
        (ymax - ymin) + 2 * pad,
        origin=(xmin - pad, ymin - pad),
        attenuation_db=base.room.walls[0].attenuation_db if base.room.walls else 12.0,
        reflectivity=max((w.reflectivity for w in base.room.walls), default=0.5),
        name=f"{base.room.name}-scaled",
    )
    return replace(base, room=room, name=f"{base.name}-L")


def perimeter_reader_positions(
    grid: ReferenceGrid, *, per_side: int = 2, margin_m: float = 1.0
) -> np.ndarray:
    """Readers evenly spaced around the grid's perimeter.

    ``per_side=1`` gives edge midpoints; ``per_side=2`` corners plus
    midpoints style coverage (2 per side, 8 total), etc. Corner positions
    are always included.
    """
    if per_side < 1:
        raise ConfigurationError(f"per_side must be >= 1, got {per_side}")
    xmin, ymin, xmax, ymax = grid.bounds
    lo_x, hi_x = xmin - margin_m, xmax + margin_m
    lo_y, hi_y = ymin - margin_m, ymax + margin_m
    xs = np.linspace(lo_x, hi_x, per_side + 2)
    ys = np.linspace(lo_y, hi_y, per_side + 2)
    ring: list[tuple[float, float]] = []
    for x in xs:
        ring.append((float(x), lo_y))
        ring.append((float(x), hi_y))
    for y in ys[1:-1]:
        ring.append((lo_x, float(y)))
        ring.append((hi_x, float(y)))
    # Deduplicate (corners appear twice) while preserving order.
    seen: set[tuple[float, float]] = set()
    out = []
    for p in ring:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return np.asarray(out, dtype=np.float64)


def large_scale_scenario(
    *,
    rows: int = 8,
    cols: int = 8,
    base_environment: EnvironmentSpec | None = None,
    n_tracking_tags: int = 12,
    n_trials: int = 10,
    base_seed: int = 0,
    tag_seed: int = 123,
) -> TestbedScenario:
    """A §6-style large testbed: ``rows x cols`` grid at 1 m, scattered tags.

    Tracking tags are placed uniformly at random strictly inside the
    grid (0.2 m margin), labelled 1..n. The environment is the chosen
    base recipe re-housed in a proportionally larger room.
    """
    if n_tracking_tags < 1:
        raise ConfigurationError("need at least one tracking tag")
    grid = ReferenceGrid(rows=rows, cols=cols)
    environment = scaled_environment(base_environment or env3(), grid)
    rng = derive_rng(tag_seed, "large-scale-tags")
    xmin, ymin, xmax, ymax = grid.bounds
    tags = {
        i + 1: (
            float(rng.uniform(xmin + 0.2, xmax - 0.2)),
            float(rng.uniform(ymin + 0.2, ymax - 0.2)),
        )
        for i in range(n_tracking_tags)
    }
    return TestbedScenario(
        environment=environment,
        grid=grid,
        tracking_tags=tags,
        n_trials=n_trials,
        base_seed=base_seed,
    )
