"""Position filters for fix sequences.

Per-fix VIRE estimates are independent; a moving asset's consecutive
positions are not. These filters exploit that continuity:

* :class:`MovingAverageFilter` — boxcar over the last w fixes (lags on
  turns, kills jitter),
* :class:`AlphaBetaFilter` — the classic fixed-gain position/velocity
  tracker,
* :class:`KalmanFilter2D` — a constant-velocity Kalman filter with
  white-noise acceleration; the measurement noise should be set to the
  estimator's static error (≈ 0.3-0.6 m for VIRE, per EXPERIMENTS.md).

All filters implement :class:`PositionFilter`: feed ``update(t, (x, y))``
per fix, read the filtered position back. ``update(t, None)`` advances
time without a measurement (a dropped reading) — the alpha-beta and
Kalman filters coast on their velocity estimate.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.validation import ensure_in_range, ensure_positive, ensure_positive_int

__all__ = [
    "PositionFilter",
    "NoFilter",
    "MovingAverageFilter",
    "AlphaBetaFilter",
    "KalmanFilter2D",
]


@runtime_checkable
class PositionFilter(Protocol):
    """Streaming smoother over timestamped position fixes."""

    def update(
        self, time_s: float, measurement: tuple[float, float] | None
    ) -> tuple[float, float] | None:
        """Ingest one fix (or a dropout) and return the filtered position.

        Returns None while the filter has not yet seen any measurement.
        """
        ...

    def reset(self) -> None:
        """Forget all state."""
        ...


class NoFilter:
    """Pass-through: the raw estimate is the track."""

    def __init__(self) -> None:
        self._last: tuple[float, float] | None = None

    def update(self, time_s, measurement):
        if measurement is not None:
            self._last = (float(measurement[0]), float(measurement[1]))
        return self._last

    def reset(self) -> None:
        self._last = None


class MovingAverageFilter:
    """Mean of the last ``window`` measurements."""

    def __init__(self, window: int = 4):
        self.window = ensure_positive_int(window, "window")
        self._history: deque[np.ndarray] = deque(maxlen=self.window)

    def update(self, time_s, measurement):
        if measurement is not None:
            self._history.append(np.asarray(measurement, dtype=np.float64))
        if not self._history:
            return None
        mean = np.mean(self._history, axis=0)
        return (float(mean[0]), float(mean[1]))

    def reset(self) -> None:
        self._history.clear()


class AlphaBetaFilter:
    """Fixed-gain position/velocity tracker.

    Predicts ``x += v * dt``, then corrects position by ``alpha`` times
    the residual and velocity by ``beta / dt`` times the residual.
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.1):
        self.alpha = ensure_in_range(alpha, "alpha", 0.0, 1.0)
        self.beta = ensure_in_range(beta, "beta", 0.0, 2.0)
        self.reset()

    def reset(self) -> None:
        self._pos: np.ndarray | None = None
        self._vel = np.zeros(2)
        self._time: float | None = None

    def update(self, time_s, measurement):
        time_s = float(time_s)
        if self._pos is None:
            if measurement is None:
                return None
            self._pos = np.asarray(measurement, dtype=np.float64)
            self._time = time_s
            return (float(self._pos[0]), float(self._pos[1]))

        dt = time_s - (self._time if self._time is not None else time_s)
        if dt < 0:
            raise ConfigurationError(f"time went backwards: dt={dt}")
        self._time = time_s
        predicted = self._pos + self._vel * dt
        if measurement is None:
            self._pos = predicted  # coast
        else:
            z = np.asarray(measurement, dtype=np.float64)
            residual = z - predicted
            self._pos = predicted + self.alpha * residual
            if dt > 0:
                self._vel = self._vel + (self.beta / dt) * residual
        return (float(self._pos[0]), float(self._pos[1]))


class KalmanFilter2D:
    """Constant-velocity Kalman filter with white-noise acceleration.

    State ``[x, y, vx, vy]``; process noise is parameterized by the
    acceleration spectral density ``process_accel`` (m/s²) — how hard the
    asset can manoeuvre — and the measurement noise by the static
    estimator error ``measurement_sigma_m``.
    """

    def __init__(
        self,
        measurement_sigma_m: float = 0.5,
        process_accel: float = 0.5,
    ):
        self.measurement_sigma_m = ensure_positive(
            measurement_sigma_m, "measurement_sigma_m"
        )
        self.process_accel = ensure_positive(process_accel, "process_accel")
        self.reset()

    def reset(self) -> None:
        self._state: np.ndarray | None = None  # [x, y, vx, vy]
        self._cov = np.eye(4)
        self._time: float | None = None

    def _predict(self, dt: float) -> None:
        assert self._state is not None
        f = np.eye(4)
        f[0, 2] = dt
        f[1, 3] = dt
        q_scalar = self.process_accel**2
        # White-noise-acceleration discretization.
        q = np.zeros((4, 4))
        q[0, 0] = q[1, 1] = dt**4 / 4.0
        q[0, 2] = q[2, 0] = dt**3 / 2.0
        q[1, 3] = q[3, 1] = dt**3 / 2.0
        q[2, 2] = q[3, 3] = dt**2
        self._state = f @ self._state
        self._cov = f @ self._cov @ f.T + q_scalar * q

    def update(self, time_s, measurement):
        time_s = float(time_s)
        if self._state is None:
            if measurement is None:
                return None
            self._state = np.array(
                [float(measurement[0]), float(measurement[1]), 0.0, 0.0]
            )
            # Uninformative velocity prior, measurement-level position prior.
            self._cov = np.diag(
                [self.measurement_sigma_m**2, self.measurement_sigma_m**2,
                 1.0, 1.0]
            )
            self._time = time_s
            return (float(self._state[0]), float(self._state[1]))

        dt = time_s - (self._time if self._time is not None else time_s)
        if dt < 0:
            raise ConfigurationError(f"time went backwards: dt={dt}")
        self._time = time_s
        if dt > 0:
            self._predict(dt)
        if measurement is not None:
            h = np.zeros((2, 4))
            h[0, 0] = h[1, 1] = 1.0
            r = np.eye(2) * self.measurement_sigma_m**2
            z = np.asarray(measurement, dtype=np.float64)
            innovation = z - h @ self._state
            s = h @ self._cov @ h.T + r
            gain = self._cov @ h.T @ np.linalg.inv(s)
            self._state = self._state + gain @ innovation
            self._cov = (np.eye(4) - gain @ h) @ self._cov
        return (float(self._state[0]), float(self._state[1]))
