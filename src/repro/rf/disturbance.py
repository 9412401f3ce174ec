"""Transient disturbances from human movement (paper §4.1).

The paper: "a sudden change of the RSSI value occurred when a person
walked through the testing region … such a factor should be avoided or
filtered out". We model a person as a moving attenuating disc following a
waypoint path; while the disc sits near the straight line between a tag
and a reader, that link suffers additional attenuation with soft edges.

The middleware's temporal smoothing (a sliding-window mean) is the
designed countermeasure; failure-injection tests drive a person through
the testbed and check the estimator's degradation stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..geometry.vector import Segment, point_segment_distance
from ..utils.arrays import as_point
from ..utils.validation import ensure_non_negative, ensure_positive

__all__ = ["HumanMovementDisturbance"]


@dataclass(frozen=True)
class HumanMovementDisturbance:
    """A person walking along waypoints, attenuating links they obstruct.

    Parameters
    ----------
    waypoints:
        Path vertices ``((x, y), ...)``; the person walks them in order at
        ``speed_mps`` starting at ``start_time_s``, then leaves the scene.
    speed_mps:
        Walking speed.
    body_radius_m:
        Effective obstruction radius. Attenuation falls off smoothly from
        the full value at 0 distance to zero at the radius.
    attenuation_db:
        Peak extra attenuation when the person stands exactly on the
        tag-reader line.
    start_time_s:
        When the walk begins.
    """

    waypoints: tuple[tuple[float, float], ...]
    speed_mps: float = 1.2
    body_radius_m: float = 0.6
    attenuation_db: float = 8.0
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(pts) < 2:
            raise ConfigurationError("need at least two waypoints")
        object.__setattr__(self, "waypoints", pts)
        ensure_positive(self.speed_mps, "speed_mps")
        ensure_positive(self.body_radius_m, "body_radius_m")
        ensure_non_negative(self.attenuation_db, "attenuation_db")
        ensure_non_negative(self.start_time_s, "start_time_s")

    @property
    def path_length_m(self) -> float:
        pts = np.asarray(self.waypoints)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    @property
    def end_time_s(self) -> float:
        """Time at which the person reaches the final waypoint."""
        return self.start_time_s + self.path_length_m / self.speed_mps

    def position_at(self, time_s: float) -> tuple[float, float] | None:
        """The person's position at ``time_s``, or None if not walking."""
        if time_s < self.start_time_s or time_s > self.end_time_s:
            return None
        walked = (time_s - self.start_time_s) * self.speed_mps
        pts = np.asarray(self.waypoints)
        for i in range(len(pts) - 1):
            seg_len = float(np.linalg.norm(pts[i + 1] - pts[i]))
            if walked <= seg_len or i == len(pts) - 2:
                frac = 0.0 if seg_len == 0 else min(walked / seg_len, 1.0)
                p = pts[i] + frac * (pts[i + 1] - pts[i])
                return (float(p[0]), float(p[1]))
            walked -= seg_len
        return None  # pragma: no cover - loop always returns

    def attenuation_at_readers(
        self,
        time_s: float,
        tag_pos: Sequence[float],
        reader_positions: Sequence[Sequence[float]],
    ) -> np.ndarray | float:
        """Extra attenuation (dB) on each tag-reader link at ``time_s``,
        shape ``(K,)``.

        Returns the scalar ``0.0`` while the person is not walking.
        """
        person = self.position_at(time_s)
        if person is None:
            return 0.0
        return np.array(
            [self._link_attenuation(person, tag_pos, r) for r in reader_positions]
        )

    def _link_attenuation(
        self,
        person: tuple[float, float],
        tag_pos: Sequence[float],
        reader_pos: Sequence[float],
    ) -> float:
        tag = as_point(tag_pos, "tag_pos")
        reader = as_point(reader_pos, "reader_pos")
        link = Segment((tag[0], tag[1]), (reader[0], reader[1]))
        dist = point_segment_distance(person, link)
        if dist >= self.body_radius_m:
            return 0.0
        # Cosine-tapered edge: full attenuation on the line, zero at radius.
        frac = dist / self.body_radius_m
        return self.attenuation_db * 0.5 * (1.0 + np.cos(np.pi * frac))
