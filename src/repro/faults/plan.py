"""Fault plans: seeded, immutable compositions of fault models.

A :class:`FaultPlan` is the unit of reproducibility for chaos work: the
same plan compiled with the same seed yields the same injected fault
schedule, record for record. Per-fault RNG streams are derived with
:func:`repro.utils.rng.derive_rng` under ``("fault", index, class name)``
keys, so editing one fault never perturbs another's draws.

:func:`chaos_preset` provides the named intensity levels the ``repro
chaos`` CLI and the resilience benchmark sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..exceptions import ConfigurationError
from ..utils.rng import derive_rng
from .models import (
    BurstLossFault,
    CalibrationDriftFault,
    CompiledFault,
    DelayFault,
    FaultModel,
    ReaderOutageFault,
    SlowZoneFault,
    TagDeathFault,
    WorkerHangFault,
    ZoneCrashFault,
    ZoneLinkLossFault,
    is_zone_fault,
)

__all__ = [
    "FaultPlan",
    "chaos_preset",
    "CHAOS_PRESETS",
    "zone_chaos_preset",
    "ZONE_CHAOS_PRESETS",
]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault models plus a seed.

    Parameters
    ----------
    faults:
        The fault models, applied to each record in order (a record
        dropped by fault *i* never reaches fault *i+1*), plus any
        zone-scoped faults (:func:`~repro.faults.models.is_zone_fault`),
        which the zone gateway reads and the record path rejects.
    seed:
        Master seed of every per-fault RNG stream.
    """

    faults: tuple[FaultModel, ...] = ()
    seed: int = 0

    def __init__(self, faults: Sequence[FaultModel] = (), seed: int = 0):
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "seed", int(seed))
        for fault in self.faults:
            if not (hasattr(fault, "compile") or is_zone_fault(fault)):
                raise ConfigurationError(
                    f"{fault!r} is not a fault model (no compile()) "
                    "nor a zone-scoped fault"
                )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultModel]:
        return iter(self.faults)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.faults

    def with_fault(self, fault: FaultModel) -> "FaultPlan":
        """A new plan with ``fault`` appended."""
        return FaultPlan(self.faults + (fault,), seed=self.seed)

    def compile(self) -> list[CompiledFault]:
        """Bind every fault to its derived RNG stream.

        Each call returns *fresh* state, so one plan can drive many
        independent, identically-faulted runs.
        """
        return [
            fault.compile(
                derive_rng(self.seed, "fault", i, type(fault).__name__)
            )
            for i, fault in enumerate(self.faults)
        ]

    def describe(self) -> list[str]:
        """One human-readable line per fault (CLI/debug)."""
        return [repr(fault) for fault in self.faults]


# ---------------------------------------------------------------------------
# Named intensity presets (CLI + resilience benchmark)
# ---------------------------------------------------------------------------

CHAOS_PRESETS = ("none", "light", "moderate", "severe", "drift")


def chaos_preset(
    name: str,
    *,
    seed: int = 0,
    start_s: float = 5.0,
    duration_s: float = math.inf,
) -> FaultPlan:
    """A named fault-intensity level over the paper's 4-reader testbed.

    Parameters
    ----------
    name:
        ``"none"`` — empty plan (bit-identical control);
        ``"light"`` — mild burst loss on one reader;
        ``"moderate"`` — a solid single-reader outage plus burst loss
        and one reference-tag death;
        ``"severe"`` — a solid outage, a flapping second reader, heavy
        burst loss, calibration drift and delayed delivery;
        ``"drift"`` — the calibration stress level: three readers drift
        at staggered onsets (one with a step recalibration mid-run) and
        one reference tag browns out, dies and recovers after a battery
        swap. No outages or record loss — every record arrives, some of
        them *wrong*, which is exactly the failure mode the
        :mod:`repro.calibration` loop exists to heal.
    seed:
        Plan seed (drives the stochastic faults).
    start_s:
        When the scheduled faults begin (after warm-up, typically).
    duration_s:
        Length of the scheduled outage windows.
    """
    if name not in CHAOS_PRESETS:
        raise ConfigurationError(
            f"unknown chaos preset {name!r}; expected one of {CHAOS_PRESETS}"
        )
    if name == "none":
        return FaultPlan(seed=seed)
    if name == "light":
        return FaultPlan(
            [
                BurstLossFault(
                    reader_id="reader-1",
                    p_enter_bad=0.05,
                    p_exit_bad=0.5,
                    loss_bad=0.6,
                    start_s=start_s,
                    duration_s=duration_s,
                ),
            ],
            seed=seed,
        )
    if name == "moderate":
        return FaultPlan(
            [
                ReaderOutageFault(
                    "reader-0", start_s=start_s, duration_s=duration_s
                ),
                BurstLossFault(
                    reader_id="reader-2",
                    p_enter_bad=0.08,
                    p_exit_bad=0.4,
                    loss_bad=0.8,
                    start_s=start_s,
                    duration_s=duration_s,
                ),
                TagDeathFault("ref-5", death_time_s=start_s + 4.0),
            ],
            seed=seed,
        )
    if name == "drift":
        # Calibration-stress preset: staggered multi-reader drift (one
        # reader gets an ops recalibration step mid-run) plus one
        # decaying reference tag that dies and later gets a battery
        # swap. Deliberately no outages and no record loss — the lattice
        # keeps *looking* healthy while its values rot, so only the
        # closed calibration loop can tell.
        return FaultPlan(
            [
                CalibrationDriftFault(
                    "reader-0",
                    drift_db_per_s=0.30,
                    start_s=start_s,
                    max_drift_db=9.0,
                ),
                CalibrationDriftFault(
                    "reader-1",
                    drift_db_per_s=-0.20,
                    start_s=start_s + 4.0,
                    max_drift_db=7.0,
                ),
                CalibrationDriftFault(
                    "reader-2",
                    drift_db_per_s=0.25,
                    start_s=start_s + 8.0,
                    max_drift_db=6.0,
                    reset_at_s=start_s + 24.0,
                ),
                TagDeathFault(
                    "ref-5",
                    death_time_s=start_s + 8.0,
                    decay_db_per_s=4.0,
                    decay_duration_s=8.0,
                    recovery_time_s=start_s + 31.0,
                ),
            ],
            seed=seed,
        )
    # severe
    return FaultPlan(
        [
            ReaderOutageFault("reader-0", start_s=start_s, duration_s=duration_s),
            ReaderOutageFault(
                "reader-3",
                start_s=start_s,
                duration_s=duration_s,
                flapping_period_s=6.0,
                flap_duty=0.5,
            ),
            BurstLossFault(
                p_enter_bad=0.1,
                p_exit_bad=0.3,
                loss_bad=0.9,
                start_s=start_s,
                duration_s=duration_s,
            ),
            TagDeathFault("ref-5", death_time_s=start_s + 4.0),
            TagDeathFault(
                "ref-10",
                death_window_s=(start_s, start_s + 20.0),
                decay_db_per_s=0.5,
                decay_duration_s=5.0,
            ),
            CalibrationDriftFault(
                "reader-1", drift_db_per_s=0.05, start_s=start_s,
                max_drift_db=6.0,
            ),
            DelayFault(reader_id="reader-2", delay_s=1.0, jitter_s=2.0),
        ],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Zone-level chaos presets (control-plane faults for the multi-zone gateway)
# ---------------------------------------------------------------------------

ZONE_CHAOS_PRESETS = ("none", "crash", "hang", "partition", "brownout")


def zone_chaos_preset(
    name: str,
    *,
    zone_id: str = "z0",
    seed: int = 0,
    start_s: float = 10.0,
    duration_s: float = 10.0,
) -> FaultPlan:
    """A named zone-level failure scenario for ``repro chaos --zones``.

    Unlike :func:`chaos_preset` these faults live on the *control plane*
    (the gateway→worker call path of one zone), not the record stream —
    they are consumed by :class:`~repro.zones.failover.ZoneChannel` and
    rejected by :class:`~repro.faults.injector.FaultInjector`.

    Parameters
    ----------
    name:
        ``"none"`` — empty plan (bit-identical control);
        ``"crash"`` — one zone worker dies at ``start_s`` (kill −9);
        ``"hang"`` — one zone worker wedges at ``start_s``;
        ``"partition"`` — the gateway↔worker link drops for the window;
        ``"brownout"`` — one zone runs slow for the window (triggers
        cross-zone load shedding).
    zone_id:
        Which zone the fault targets.
    seed:
        Plan seed (zone faults are scheduled, so this only matters if
        record-path faults are composed in afterwards).
    start_s:
        Relative (post-warm-up) time the fault begins.
    duration_s:
        Window length of ``partition``/``brownout``; ignored by the
        one-shot ``crash``/``hang``.
    """
    if name not in ZONE_CHAOS_PRESETS:
        raise ConfigurationError(
            f"unknown zone chaos preset {name!r}; "
            f"expected one of {ZONE_CHAOS_PRESETS}"
        )
    if name == "none":
        return FaultPlan(seed=seed)
    if name == "crash":
        return FaultPlan([ZoneCrashFault(zone_id, at_s=start_s)], seed=seed)
    if name == "hang":
        return FaultPlan([WorkerHangFault(zone_id, at_s=start_s)], seed=seed)
    if name == "partition":
        return FaultPlan(
            [ZoneLinkLossFault(zone_id, start_s=start_s, duration_s=duration_s)],
            seed=seed,
        )
    # brownout
    return FaultPlan(
        [SlowZoneFault(zone_id, start_s=start_s, duration_s=duration_s)],
        seed=seed,
    )
