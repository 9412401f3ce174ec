"""Self-healing calibration: drift correction + sensor-trust quarantine.

The closed loop over :mod:`repro.faults`' calibration failure modes —
per-reader RSSI drift and reference-tag battery decay. Residuals between
observed and expected reference-tag RSSI are decomposed (robust
median/MAD, NaN-safe) into per-reader bias corrections fed back into the
serving path and per-tag anomaly scores driving a quarantine/probation/
readmit state machine. See docs/CALIBRATION.md.
"""

from .corrector import CalibrationPolicy, DriftCorrector, TagTrust, TrustState
from .residuals import ResidualWindow, decompose_residuals

__all__ = [
    "CalibrationPolicy",
    "DriftCorrector",
    "TagTrust",
    "TrustState",
    "ResidualWindow",
    "decompose_residuals",
]
