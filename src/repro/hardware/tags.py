"""Active RFID tags.

An active tag beacons autonomously: every ``beacon_interval_s`` (plus
per-beacon jitter, since real tags drift to avoid persistent collisions)
it emits a frame carrying its ID. Two equipment presets bracket the
paper's history: the original 2003 LANDMARC gear beaconed every 7.5 s,
the improved RF Code gear every 2 s (§3.2).

Tags can move: :meth:`ActiveTag.move_to` updates the position used for
subsequent beacons, which is how the tracking examples move assets
through the testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.validation import ensure_non_negative, ensure_positive

__all__ = ["TagSpec", "ActiveTag", "NEW_EQUIPMENT", "ORIGINAL_EQUIPMENT"]


@dataclass(frozen=True)
class TagSpec:
    """Electrical/behavioural parameters shared by a batch of tags.

    Parameters
    ----------
    beacon_interval_s:
        Mean interval between beacons.
    beacon_jitter_s:
        Uniform +/- jitter applied to each interval (collision avoidance).
    battery_life_beacons:
        Number of beacons before the battery dies (None = unlimited). Tags
        past end-of-life silently stop beaconing — a realistic failure
        mode exercised by the failure-injection tests.
    """

    beacon_interval_s: float = 2.0
    beacon_jitter_s: float = 0.2
    battery_life_beacons: int | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.beacon_interval_s, "beacon_interval_s")
        ensure_non_negative(self.beacon_jitter_s, "beacon_jitter_s")
        if self.beacon_jitter_s >= self.beacon_interval_s:
            raise ConfigurationError(
                "beacon_jitter_s must be smaller than beacon_interval_s"
            )
        if self.battery_life_beacons is not None and self.battery_life_beacons < 1:
            raise ConfigurationError("battery_life_beacons must be >= 1 or None")


#: The improved RF Code equipment used by the VIRE paper (§3.2).
NEW_EQUIPMENT = TagSpec(beacon_interval_s=2.0, beacon_jitter_s=0.2)

#: The original 2003 LANDMARC equipment (§3.1): 7.5 s average interval.
ORIGINAL_EQUIPMENT = TagSpec(beacon_interval_s=7.5, beacon_jitter_s=0.75)


class ActiveTag:
    """One active RFID tag with an ID, a position and a beacon schedule.

    Parameters
    ----------
    tag_id:
        Unique identifier (string), e.g. ``"ref-0"`` or ``"track-3"``.
    position:
        Initial ``(x, y)`` coordinate in metres.
    spec:
        Behavioural parameters.
    is_reference:
        True for reference tags (known location), False for tracking tags.
    """

    def __init__(
        self,
        tag_id: str,
        position: tuple[float, float],
        spec: TagSpec = NEW_EQUIPMENT,
        *,
        is_reference: bool = False,
    ):
        if not tag_id:
            raise ConfigurationError("tag_id must be non-empty")
        self.tag_id = str(tag_id)
        self._position = (float(position[0]), float(position[1]))
        if not (np.isfinite(self._position[0]) and np.isfinite(self._position[1])):
            raise ConfigurationError(f"non-finite tag position {position}")
        self.spec = spec
        self.is_reference = bool(is_reference)
        self.beacons_sent = 0
        #: Quasi-static RSSI offset (dB) of this physical tag: antenna
        #: detuning by whatever the tag is mounted on, unit-to-unit TX
        #: power spread. Set by the deployment builder from the
        #: environment's tag-offset sigmas; 0 means a perfectly nominal tag.
        self.offset_db = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return self._position

    def move_to(self, position: tuple[float, float]) -> None:
        """Relocate the tag (takes effect from its next beacon)."""
        x, y = float(position[0]), float(position[1])
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ConfigurationError(f"non-finite tag position {position}")
        self._position = (x, y)

    @property
    def alive(self) -> bool:
        """False once the battery budget is exhausted."""
        life = self.spec.battery_life_beacons
        return life is None or self.beacons_sent < life

    def next_beacon_delay(self, rng: np.random.Generator) -> float:
        """Draw the delay until this tag's next beacon."""
        jitter = self.spec.beacon_jitter_s
        if jitter == 0:
            return self.spec.beacon_interval_s
        # ``rng.uniform(-jitter, jitter)`` as numpy computes it (low +
        # range * next_double) without its per-call argument handling:
        # the same doubles and the same generator state, at a third of
        # the cost (tests/test_hardware_events.py pins both).
        return self.spec.beacon_interval_s + (-jitter + 2.0 * jitter * rng.random())

    def record_beacon(self) -> None:
        """Bookkeeping hook called by the simulator on each emission."""
        self.beacons_sent += 1

    def __repr__(self) -> str:
        kind = "ref" if self.is_reference else "track"
        return f"ActiveTag({self.tag_id!r}, {self._position}, {kind})"
