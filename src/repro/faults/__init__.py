"""Deterministic fault injection for the RFID testbed.

The paper's testbed (§5) lives with real failures — readers miss weak
frames, reference tags die mid-experiment, hardware drifts out of
calibration — yet a simulator is only useful for robustness work if
those failures can be *scheduled, seeded and replayed*. This subpackage
provides:

* :mod:`~repro.faults.models` — composable fault models: scheduled
  reader outage/flapping, Gilbert–Elliott burst packet loss, tag battery
  decay → beacon death, per-reader RSSI calibration drift, and
  delayed/reordered record delivery.
* :class:`~repro.faults.plan.FaultPlan` — a seeded, immutable schedule
  composing any number of fault models. The same ``(plan, seed)`` pair
  always produces the same injected fault sequence.
* :class:`~repro.faults.injector.FaultInjector` — applies a compiled
  plan on the simulator's record path
  (:meth:`~repro.hardware.simulator.TestbedSimulator.set_fault_injector`),
  i.e. *between* reader detection and middleware/sink delivery. The RF
  channel's bit-exact behaviour is untouched: with an empty plan (or no
  injector) every downstream output is bit-identical to a fault-free
  run.

Layering: ``faults`` sits beside ``hardware`` and below ``service``; it
imports neither. The service layer composes it (chaos sessions, health
tracking) through the simulator hook.
"""

from .models import (
    BurstLossFault,
    CalibrationDriftFault,
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
from .plan import FaultPlan, chaos_preset, zone_chaos_preset
from .injector import FaultEvent, FaultInjector
from .crash import CrashPoint, SimulatedCrash

__all__ = [
    "FaultModel",
    "ReaderOutageFault",
    "BurstLossFault",
    "TagDeathFault",
    "CalibrationDriftFault",
    "DelayFault",
    "ZoneCrashFault",
    "WorkerHangFault",
    "ZoneLinkLossFault",
    "SlowZoneFault",
    "is_zone_fault",
    "FaultPlan",
    "chaos_preset",
    "zone_chaos_preset",
    "FaultEvent",
    "FaultInjector",
    "CrashPoint",
    "SimulatedCrash",
]
