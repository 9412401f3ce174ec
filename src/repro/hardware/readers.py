"""RFID readers.

A reader is a passive receiver in this model: when a tag beacons, every
reader in range draws an RSSI sample from the channel and forwards a
:class:`ReadingRecord` to the middleware. Detection is probabilistic near
the sensitivity floor — frames whose instantaneous RSSI lands below the
detection threshold are lost, which is how real readers behave and what
creates missing readings for the failure-handling paths. The simulator
applies that rule to a whole window of beacons at once
(:meth:`~repro.hardware.simulator.TestbedSimulator.run_for`): a frame is
heard when its RSSI is finite and at or above the threshold, and each
reader counts heard frames in ``frames_received`` and the rest in
``frames_dropped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["Reader", "ReadingRecord"]


@dataclass(frozen=True)
class ReadingRecord:
    """One received beacon: (reader, tag, time, RSSI)."""

    reader_id: str
    tag_id: str
    time_s: float
    rssi_dbm: float

    def __init__(
        self, reader_id: str, tag_id: str, time_s: float, rssi_dbm: float
    ) -> None:
        # One record per reader per beacon: store into the instance dict
        # directly instead of the generated init's four frozen-bypassing
        # ``object.__setattr__`` calls (about twice as fast). Assignment
        # after construction still raises ``FrozenInstanceError``.
        fields = self.__dict__
        fields["reader_id"] = reader_id
        fields["tag_id"] = tag_id
        fields["time_s"] = time_s
        fields["rssi_dbm"] = rssi_dbm


class Reader:
    """A fixed receiver identified by ``reader_id`` at ``position``.

    Parameters
    ----------
    detection_threshold_dbm:
        Frames weaker than this are dropped (never reach the middleware).
        The default sits above the channel's sensitivity floor so the
        drop path actually occurs for distant/obstructed tags. NaN is
        rejected: no frame could be compared against it.
    """

    def __init__(
        self,
        reader_id: str,
        position: tuple[float, float],
        *,
        detection_threshold_dbm: float = -98.0,
    ):
        if not reader_id:
            raise ConfigurationError("reader_id must be non-empty")
        x, y = float(position[0]), float(position[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigurationError(f"non-finite reader position {position}")
        self.reader_id = str(reader_id)
        self.position = (x, y)
        threshold = float(detection_threshold_dbm)
        if math.isnan(threshold):
            raise ConfigurationError("detection_threshold_dbm must not be NaN")
        self.detection_threshold_dbm = threshold
        self.frames_received = 0
        self.frames_dropped = 0

    def __repr__(self) -> str:
        return f"Reader({self.reader_id!r}, {self.position})"
