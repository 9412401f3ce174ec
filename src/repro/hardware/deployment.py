"""Deployment builder: from an environment + grid to a running testbed.

:func:`build_paper_deployment` assembles the paper's §5 testbed — a
reference grid, four corner readers 1 m outside the grid, and any number
of tracking tags — inside a chosen environment, returning a
:class:`Deployment` that owns the simulator and knows the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry.grid import ReferenceGrid
from ..geometry.placement import corner_reader_positions, paper_testbed_grid
from ..rf.disturbance import HumanMovementDisturbance
from ..rf.environments import EnvironmentSpec
from ..utils.rng import derive_rng
from .middleware import SmoothingSpec
from .readers import Reader
from .simulator import TestbedSimulator
from .tags import NEW_EQUIPMENT, ActiveTag, TagSpec

__all__ = ["Deployment", "build_paper_deployment"]


@dataclass
class Deployment:
    """A fully wired testbed plus its ground truth.

    Attributes
    ----------
    simulator:
        The event-driven simulator, ready to run.
    grid:
        The real reference grid geometry.
    tracking_truth:
        Mapping of tracking tag id -> true position at deployment time
        (updated by :meth:`move_tracking_tag`).
    """

    simulator: TestbedSimulator
    grid: ReferenceGrid
    environment: EnvironmentSpec
    tracking_truth: dict[str, tuple[float, float]] = field(default_factory=dict)

    def move_tracking_tag(self, tag_id: str, position: tuple[float, float]) -> None:
        """Move a tracking tag and record the new ground truth."""
        if tag_id not in self.tracking_truth:
            raise ConfigurationError(f"{tag_id!r} is not a tracking tag")
        self.simulator.tag(tag_id).move_to(position)
        self.tracking_truth[tag_id] = (float(position[0]), float(position[1]))

    @property
    def reader_positions(self) -> np.ndarray:
        return self.simulator.channel.reader_positions


def build_paper_deployment(
    environment: EnvironmentSpec,
    *,
    grid: ReferenceGrid | None = None,
    tracking_tags: Mapping[str, tuple[float, float]] | None = None,
    reader_margin_m: float = 1.0,
    reader_positions: Iterable[tuple[float, float]] | None = None,
    tag_spec: TagSpec = NEW_EQUIPMENT,
    smoothing: SmoothingSpec | None = None,
    tracking_smoothing: SmoothingSpec | None = None,
    seed: int = 0,
    disturbances: Iterable[HumanMovementDisturbance] = (),
) -> Deployment:
    """Build the paper's testbed inside ``environment``.

    Parameters
    ----------
    environment:
        One of the Env1/Env2/Env3 presets (or a custom spec).
    grid:
        Real reference grid; defaults to the paper's 4x4 @ 1 m.
    tracking_tags:
        Mapping of tag id -> true position. May be empty and populated
        later via the simulator API, but passing them here registers the
        ground truth.
    reader_margin_m:
        Clearance of the corner readers beyond the grid (paper: 1 m).
    reader_positions:
        Explicit reader coordinates, overriding the four-corner layout.
        Used by merged multi-room deployments (``repro.zones``) where
        readers sit at each room's corners rather than the site's. Must
        not coincide with any reference-lattice point (the channel
        refuses zero-length tag→reader segments).
    seed:
        Controls the frozen channel world *and* per-reading randomness.
    """
    grid = grid or paper_testbed_grid()
    if reader_positions is not None:
        reader_pos = np.asarray(
            [[float(p[0]), float(p[1])] for p in reader_positions],
            dtype=np.float64,
        )
        if reader_pos.ndim != 2 or reader_pos.shape[0] < 1:
            raise ConfigurationError(
                "reader_positions must contain at least one (x, y) pair"
            )
    else:
        reader_pos = corner_reader_positions(grid, margin=reader_margin_m)
    for pos in reader_pos:
        if not environment.room.contains(pos, pad=1e-9):
            raise ConfigurationError(
                f"reader at {tuple(pos)} falls outside room bounds "
                f"{environment.room.bounds}; enlarge the room or shrink the grid"
            )
    channel = environment.build_channel(reader_pos, seed=seed)

    tags: list[ActiveTag] = []
    ref_positions = grid.tag_positions()
    offset_rng = derive_rng(seed, "tag-offsets")
    for i, p in enumerate(ref_positions):
        tag = ActiveTag(f"ref-{i}", (p[0], p[1]), tag_spec, is_reference=True)
        if environment.reference_tag_offset_sigma_db > 0:
            tag.offset_db = float(
                offset_rng.normal(0.0, environment.reference_tag_offset_sigma_db)
            )
        tags.append(tag)
    truth: dict[str, tuple[float, float]] = {}
    for tag_id, pos in (tracking_tags or {}).items():
        tag = ActiveTag(str(tag_id), pos, tag_spec, is_reference=False)
        if environment.tracking_tag_offset_sigma_db > 0:
            tag.offset_db = float(
                offset_rng.normal(0.0, environment.tracking_tag_offset_sigma_db)
            )
        tags.append(tag)
        truth[str(tag_id)] = (float(pos[0]), float(pos[1]))

    readers = [
        Reader(f"reader-{k}", (p[0], p[1])) for k, p in enumerate(reader_pos)
    ]
    simulator = TestbedSimulator(
        channel,
        tags,
        readers,
        smoothing=smoothing,
        tracking_smoothing=tracking_smoothing,
        seed=seed,
        disturbances=disturbances,
    )
    return Deployment(
        simulator=simulator,
        grid=grid,
        environment=environment,
        tracking_truth=truth,
    )
