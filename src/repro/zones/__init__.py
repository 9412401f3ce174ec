"""``repro.zones`` — shared-nothing multi-zone scale-out behind one gateway.

A large deployment is partitioned into *zones*: each zone is the paper's
testbed (reference lattice, corner readers, tracking tags) in its own
local coordinate frame, with its own seeded world, estimator, circuit
breakers, fault-plan slice and checkpoint file. Zones share nothing at
runtime; a single :class:`ZoneGateway` routes tags to zones by
reader-set proximity, aggregates per-zone metrics and witnesses, and
executes the deterministic tag-handoff protocol when a roaming tag
crosses a zone boundary.

Safety rail: a single-zone :class:`ZonePlan` run through the gateway is
bitwise identical (determinism witness) to today's
:class:`~repro.service.session.LocalizationService`.

See ``docs/ZONES.md`` for the architecture, the handoff protocol and the
multi-zone determinism witness.
"""

from .failover import (
    INTERIM_ESTIMATOR,
    ZONE_DOWN_REASON,
    AdmissionPolicy,
    TokenBucket,
    ZoneChannel,
)
from .gateway import HandoffEvent, MultiZoneReport, ZoneGateway
from .spec import (
    ZONE_PITCH_M,
    RoamingTag,
    ZonePlan,
    ZoneSpec,
    monolithic_site_plan,
    scaled_site_plan,
    slice_fault_plan,
    zone_seed,
)
from .worker import ZoneWorker

__all__ = [
    # spec
    "ZONE_PITCH_M", "ZoneSpec", "RoamingTag", "ZonePlan", "zone_seed",
    "slice_fault_plan", "scaled_site_plan",
    "monolithic_site_plan",
    # worker
    "ZoneWorker",
    # gateway
    "HandoffEvent", "MultiZoneReport", "ZoneGateway",
    # failover
    "ZONE_DOWN_REASON", "INTERIM_ESTIMATOR", "AdmissionPolicy",
    "TokenBucket", "ZoneChannel",
]
