"""The paper's three experimental environments as channel presets.

§3.3 / Fig. 1 of the paper:

* **Env1** — a semi-open area "not surrounded by concrete walls and
  furniture"; reflections exert little influence, so both algorithms do
  well.
* **Env2** — a spacious closed area; walls exist but are far from the
  sensing area, so reflection influence is moderate.
* **Env3** — a small, cluttered office; close reflective walls and
  metallic furniture create severe multipath, the worst case for
  LANDMARC and the motivating scenario for VIRE.

Each preset maps those qualitative descriptions onto the synthetic
channel's knobs: room size/openness, wall reflectivity, path-loss
exponent, shadowing strength/correlation, Rician K and measurement noise.
The absolute values were calibrated so the reproduction exhibits the
paper's orderings (Env1 ≈ Env2 « Env3 error; boundary tags worst); see
EXPERIMENTS.md for measured numbers.

The testbed (4x4 grid, readers 1 m outside the corners) is always placed
with the grid origin at (0, 0), so rooms position their walls *around*
that footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ConfigurationError
from ..geometry.rooms import Room, Wall, rectangular_room
from ..geometry.vector import Segment
from .channel import RFChannel
from .fading import RicianFading
from .multipath import MultipathSpec
from .propagation import LogDistancePathLoss
from .shadowing import ShadowingSpec

__all__ = ["EnvironmentSpec", "env1", "env2", "env3", "environment_by_name"]


@dataclass(frozen=True)
class EnvironmentSpec:
    """A complete recipe for building an :class:`~repro.rf.RFChannel`.

    The spec is declarative and hashable-by-value so experiment configs
    can carry it around; :meth:`build_channel` instantiates the channel
    for a concrete reader deployment and seed.
    """

    name: str
    room: Room
    path_loss: LogDistancePathLoss
    shadowing: ShadowingSpec
    multipath: MultipathSpec
    rician_k: float
    noise_sigma_db: float
    #: Std-dev (dB) of the quasi-static per-reference-tag RSSI offset.
    #: Physically: each reference tag's local mounting environment (the
    #: shelf, floor tile or cabinet it is taped to) detunes its antenna
    #: and absorbs/reflects its near field, shifting its effective
    #: radiated power by a tag-specific constant. In a cluttered office
    #: these offsets are large; in open areas small. They are the main
    #: reason LANDMARC's RSSI-space neighbour ranking degrades indoors
    #: while VIRE's interpolation (which spreads each offset smoothly
    #: over the cell, making it common-mode across readers) copes.
    reference_tag_offset_sigma_db: float = 0.0
    #: Same, for the tracked tag. Usually smaller: the tracked asset is
    #: more exposed, and a deployment calibrates its few tracking tags.
    tracking_tag_offset_sigma_db: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("environment name must be non-empty")
        if self.rician_k < 0:
            raise ConfigurationError(f"rician_k must be >= 0, got {self.rician_k}")
        if self.noise_sigma_db < 0:
            raise ConfigurationError(
                f"noise_sigma_db must be >= 0, got {self.noise_sigma_db}"
            )
        if self.reference_tag_offset_sigma_db < 0:
            raise ConfigurationError(
                "reference_tag_offset_sigma_db must be >= 0, got "
                f"{self.reference_tag_offset_sigma_db}"
            )
        if self.tracking_tag_offset_sigma_db < 0:
            raise ConfigurationError(
                "tracking_tag_offset_sigma_db must be >= 0, got "
                f"{self.tracking_tag_offset_sigma_db}"
            )

    def build_channel(
        self, reader_positions: Sequence[Sequence[float]], seed: int = 0
    ) -> RFChannel:
        """Instantiate the frozen RF world for this environment."""
        return RFChannel(
            self.room,
            reader_positions,
            path_loss=self.path_loss,
            shadowing=self.shadowing,
            multipath=self.multipath,
            fading=RicianFading(k_factor=self.rician_k),
            noise_sigma_db=self.noise_sigma_db,
            seed=seed,
        )


def env1() -> EnvironmentSpec:
    """Env1: semi-open area (Fig. 1(a)).

    Two sides are open (no wall at all); the remaining walls are light
    partitions with low reflectivity. Mild shadowing, stable readings.
    """
    room = rectangular_room(
        14.0,
        12.0,
        origin=(-5.0, -4.0),
        attenuation_db=8.0,
        reflectivity=0.35,
        open_sides=("top", "right"),
        name="env1-semi-open",
    )
    return EnvironmentSpec(
        name="Env1",
        room=room,
        path_loss=LogDistancePathLoss(rssi_at_reference=-48.0, gamma=2.1),
        shadowing=ShadowingSpec(
            sigma_db=1.2, correlation_length_m=4.0, common_fraction=0.3
        ),
        multipath=MultipathSpec(max_reflections=1, wavelength_m=0.99, coherence=0.3),
        rician_k=10.0,
        noise_sigma_db=0.5,
        reference_tag_offset_sigma_db=2.0,
        tracking_tag_offset_sigma_db=0.5,
        description="semi-opened area, weak reflections",
    )


def env2() -> EnvironmentSpec:
    """Env2: spacious closed area (Fig. 1(b)).

    Fully walled, but the walls are several metres from the sensing
    area, so reflected rays arrive attenuated by the longer path.
    """
    room = rectangular_room(
        20.0,
        16.0,
        origin=(-8.0, -6.0),
        attenuation_db=12.0,
        reflectivity=0.55,
        name="env2-spacious",
    )
    return EnvironmentSpec(
        name="Env2",
        room=room,
        path_loss=LogDistancePathLoss(rssi_at_reference=-48.0, gamma=2.0),
        shadowing=ShadowingSpec(
            sigma_db=1.8, correlation_length_m=4.5, common_fraction=0.4
        ),
        multipath=MultipathSpec(max_reflections=1, wavelength_m=0.99, coherence=0.25),
        rician_k=8.0,
        noise_sigma_db=0.6,
        reference_tag_offset_sigma_db=4.0,
        tracking_tag_offset_sigma_db=0.8,
        description="spacious closed area, distant walls",
    )


def env3() -> EnvironmentSpec:
    """Env3: small cluttered office (Fig. 1(c)) — the hard case.

    Close, highly reflective concrete walls; metallic office furniture
    modelled as interior reflective obstacles; higher path-loss exponent,
    stronger and shorter-range shadowing, heavier per-reading fading.
    """
    base = rectangular_room(
        6.4,
        6.0,
        origin=(-1.7, -1.5),
        attenuation_db=14.0,
        reflectivity=0.8,
        name="env3-office",
    )
    furniture = (
        # A metal filing cabinet along the left wall and two desks. They
        # reflect strongly and punch a few dB out of crossing paths.
        Wall(Segment((-1.2, 0.6), (-1.2, 2.4)), attenuation_db=5.0,
             reflectivity=0.9, name="cabinet"),
        Wall(Segment((0.6, 3.9), (2.4, 3.9)), attenuation_db=3.0,
             reflectivity=0.7, name="desk-north"),
        Wall(Segment((3.9, 0.4), (3.9, 1.9)), attenuation_db=3.0,
             reflectivity=0.7, name="desk-east"),
    )
    room = base.with_walls(furniture)
    return EnvironmentSpec(
        name="Env3",
        room=room,
        path_loss=LogDistancePathLoss(rssi_at_reference=-50.0, gamma=2.8),
        shadowing=ShadowingSpec(
            sigma_db=2.0, correlation_length_m=4.0, common_fraction=0.5
        ),
        multipath=MultipathSpec(max_reflections=2, wavelength_m=0.99, coherence=0.1),
        rician_k=4.0,
        noise_sigma_db=0.8,
        reference_tag_offset_sigma_db=8.0,
        tracking_tag_offset_sigma_db=1.0,
        description="small closed office, severe multipath and clutter",
    )


_FACTORIES = {"env1": env1, "env2": env2, "env3": env3}


def environment_by_name(name: str) -> EnvironmentSpec:
    """Look up an environment preset case-insensitively ("Env1" ... "Env3")."""
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise ConfigurationError(
            f"unknown environment {name!r}; expected one of {sorted(_FACTORIES)}"
        )
    return _FACTORIES[key]()
