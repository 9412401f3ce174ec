"""Mobility: tracking moving tags over time (paper §6 future work).

The paper evaluates static tags and defers "more complex dynamic factors
such as mobility" to future work. This subpackage supplies the missing
layer for moving assets:

* :mod:`~repro.tracking.trajectory` — timed ground-truth paths and
  trajectory-level error metrics,
* :mod:`~repro.tracking.filters` — position filters that exploit motion
  continuity (moving average, alpha-beta, constant-velocity Kalman),
* :mod:`~repro.tracking.tracker` — :class:`TagTracker`, which feeds
  middleware snapshots through an estimator and a filter, tolerating
  missing readings.
"""

from .trajectory import Trajectory, TrajectoryError, evaluate_track
from .filters import (
    PositionFilter,
    NoFilter,
    MovingAverageFilter,
    AlphaBetaFilter,
    KalmanFilter2D,
)
from .tracker import TagTracker, TrackPoint

__all__ = [
    "Trajectory",
    "TrajectoryError",
    "evaluate_track",
    "PositionFilter",
    "NoFilter",
    "MovingAverageFilter",
    "AlphaBetaFilter",
    "KalmanFilter2D",
    "TagTracker",
    "TrackPoint",
]
