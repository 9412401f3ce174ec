"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate configuration problems from runtime data
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class GeometryError(ReproError):
    """A geometric construction is degenerate (zero-length wall, empty grid, ...)."""


class ChannelError(ReproError):
    """The RF channel could not produce a reading (e.g. position outside the
    modelled area of a shadowing field)."""


class ReadingError(ReproError):
    """A measurement record is malformed: wrong shape, NaN RSSI, missing
    readers, or inconsistent reference-tag counts."""


class EstimationError(ReproError):
    """A location estimate could not be produced (e.g. every candidate
    region was eliminated and no fallback is enabled)."""


class SimulationError(ReproError):
    """The discrete-event testbed simulation reached an invalid state."""


class CheckpointError(ReproError):
    """A session checkpoint could not be written, read, or reconciled
    with the world it claims to describe (corrupt file, no usable
    snapshot, or a resume whose replayed state diverges from the
    checkpointed one)."""
