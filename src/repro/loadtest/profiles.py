"""Deterministic open-loop traffic profiles and arrival schedules.

A :class:`LoadProfile` names a traffic shape (steady, Poisson, bursty),
an offered rate and a deployment size; :func:`generate_schedule` turns
it into an :class:`ArrivalSchedule` — the *complete* list of query
arrival events for the whole run, materialized up front.

The generator is **open-loop**: arrival times are a pure function of
``(seed, profile)`` and never react to how the service keeps up, so an
overloaded pipeline cannot mask its own saturation by slowing the
producer down (closed-loop harnesses systematically under-report
queueing delay — the "coordinated omission" trap).

Determinism contract
--------------------
Arrival times are drawn from the same derived-RNG-stream machinery the
fault models use (:func:`repro.utils.rng.derive_rng`): every zone owns
an independent stream keyed by ``(seed, "loadtest", profile.name,
zone_id)``. Consequences, both load-bearing:

* the same seed + profile yields a **byte-identical** schedule (pinned
  by a golden fixture and a hypothesis property test), and
* adding or removing zones never perturbs the arrivals of the zones
  that remain — sweep points with different ``n_zones`` stay
  event-for-event comparable on their shared zones.

Event times are rounded to 9 decimals at creation, so the in-memory
schedule *is* its canonical JSON document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from ..exceptions import ConfigurationError
from ..geometry.placement import figure2a_tracking_tags, paper_testbed_grid
from ..utils.rng import derive_rng
from ..utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "ARRIVAL_PROCESSES",
    "LoadProfile",
    "ArrivalSchedule",
    "generate_schedule",
    "preset_profile",
    "PRESET_PROFILES",
]

#: Supported arrival processes. ``uniform`` spaces arrivals exactly
#: ``1/rate`` apart (worst-case *sustained* pressure, zero variance);
#: ``poisson`` draws i.i.d. exponential inter-arrivals (memoryless
#: traffic); ``burst`` is a thinned Poisson process whose instantaneous
#: rate alternates between ``rate`` and ``rate * burst_factor`` on a
#: fixed duty cycle (beacon-storm traffic).
ARRIVAL_PROCESSES = ("uniform", "poisson", "burst")


@dataclass(frozen=True)
class LoadProfile:
    """One named open-loop traffic shape plus its capacity knobs.

    Parameters
    ----------
    name:
        Identity of the profile; part of the RNG derivation key, so two
        profiles with different names draw disjoint arrival streams
        even at identical rates.
    process:
        Arrival process, one of :data:`ARRIVAL_PROCESSES`.
    environment:
        RF environment preset name (``Env1``/``Env2``/``Env3``).
    n_zones:
        Zones in the site plan; each zone hosts the paper's nine
        Fig. 2(a) tracking tags and receives its own arrival stream.
    duration_s:
        Sim-clock length of the measured window (warm-up excluded).
    rate_per_s:
        Offered query arrivals per zone per sim-second (base rate; the
        ``burst`` process exceeds it inside burst windows).
    burst_factor / burst_period_s / burst_duty:
        Burst shape: the instantaneous rate is ``rate_per_s *
        burst_factor`` for the first ``burst_duty`` fraction of every
        ``burst_period_s`` window, ``rate_per_s`` otherwise. Ignored by
        the other processes.
    seed:
        Root seed of the derived arrival streams (and of the site plan).
    max_batches_per_tick:
        Executor capacity cap forwarded to
        :attr:`~repro.service.pipeline.ServiceConfig.max_batches_per_tick`
        — bounds estimation work per tick so overload manifests as
        queueing delay and ladder descent instead of being silently
        absorbed. ``None`` leaves the executor unbounded.
    admission_rate_per_s / admission_burst:
        When ``admission_rate_per_s`` is set, a per-zone sim-clock
        token bucket (:class:`repro.zones.failover.AdmissionPolicy`)
        sheds arrivals beyond the sustained rate before they reach the
        batcher (shed-newest).
    """

    name: str = "steady"
    process: str = "uniform"
    environment: str = "Env1"
    n_zones: int = 1
    duration_s: float = 12.0
    rate_per_s: float = 4.0
    burst_factor: float = 4.0
    burst_period_s: float = 8.0
    burst_duty: float = 0.25
    seed: int = 0
    max_batches_per_tick: int | None = None
    admission_rate_per_s: float | None = None
    admission_burst: int = 16

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )
        if self.environment not in ("Env1", "Env2", "Env3"):
            raise ConfigurationError(
                f"unknown environment {self.environment!r}; "
                f"expected Env1, Env2 or Env3"
            )
        # Validate only; the fields keep the values the caller passed.
        ensure_positive_int(self.n_zones, "n_zones")
        for name in ("duration_s", "rate_per_s", "burst_period_s"):
            ensure_positive(getattr(self, name), name)
        if ensure_positive(self.burst_factor, "burst_factor") < 1.0:
            raise ConfigurationError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if not 0.0 < ensure_positive(self.burst_duty, "burst_duty") <= 1.0:
            raise ConfigurationError(
                f"burst_duty must be in (0, 1], got {self.burst_duty}"
            )
        if self.max_batches_per_tick is not None:
            ensure_positive_int(
                self.max_batches_per_tick, "max_batches_per_tick"
            )
        if self.admission_rate_per_s is not None:
            ensure_positive(self.admission_rate_per_s, "admission_rate_per_s")
        ensure_positive_int(self.admission_burst, "admission_burst")

    def with_(self, **changes) -> "LoadProfile":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)

    def zone_ids(self) -> tuple[str, ...]:
        """Zone ids of the site plan this profile drives (``z0``…)."""
        return tuple(f"z{i}" for i in range(self.n_zones))

    def canonical_document(self) -> dict:
        """The profile as a sorted-key JSON-ready dict."""
        return {
            "name": self.name,
            "process": self.process,
            "environment": self.environment,
            "n_zones": self.n_zones,
            "duration_s": round(float(self.duration_s), 9),
            "rate_per_s": round(float(self.rate_per_s), 9),
            "burst_factor": round(float(self.burst_factor), 9),
            "burst_period_s": round(float(self.burst_period_s), 9),
            "burst_duty": round(float(self.burst_duty), 9),
            "seed": int(self.seed),
            "max_batches_per_tick": self.max_batches_per_tick,
            "admission_rate_per_s": (
                None
                if self.admission_rate_per_s is None
                else round(float(self.admission_rate_per_s), 9)
            ),
            "admission_burst": int(self.admission_burst),
        }


@dataclass(frozen=True)
class ArrivalSchedule:
    """The materialized arrival events of one profile, sorted by time.

    ``events`` holds ``(t_rel_s, zone_id, tag_label)`` triples with
    ``t_rel_s`` relative to the measured window's start (warm-up is
    zone-local and excluded). The schedule is the determinism witness
    of the traffic generator: :meth:`digest` hashes its canonical JSON.
    """

    profile: LoadProfile
    events: tuple[tuple[float, str, str], ...] = field(default=())

    def __len__(self) -> int:
        return len(self.events)

    def for_zone(self, zone_id: str) -> tuple[tuple[float, str], ...]:
        """This zone's ``(t_rel_s, tag_label)`` events, in time order."""
        if zone_id not in self.profile.zone_ids():
            raise ConfigurationError(
                f"schedule has no zone {zone_id!r}; "
                f"profile spans {self.profile.zone_ids()}"
            )
        return tuple(
            (t, label) for t, zid, label in self.events if zid == zone_id
        )

    def canonical_document(self) -> dict:
        """Byte-stable JSON document of the whole schedule."""
        return {
            "profile": self.profile.canonical_document(),
            "n_events": len(self.events),
            "events": [
                [t, zid, label] for t, zid, label in self.events
            ],
        }

    def digest(self) -> str:
        """SHA-256 of the canonical schedule document."""
        payload = json.dumps(
            self.canonical_document(), sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()


def _tag_labels() -> tuple[str, ...]:
    """The nine Fig. 2(a) tracking-tag labels every zone hosts."""
    tags = figure2a_tracking_tags(paper_testbed_grid())
    return tuple(str(label) for label in sorted(tags))


def _zone_arrivals(profile: LoadProfile, zone_id: str) -> Iterator[float]:
    """Arrival times of one zone's stream, strictly inside the window."""
    rng = derive_rng(profile.seed, "loadtest", profile.name, zone_id)
    interval = 1.0 / profile.rate_per_s
    if profile.process == "uniform":
        t = interval
        while t < profile.duration_s:
            yield t
            t += interval
        return
    if profile.process == "poisson":
        t = float(rng.exponential(interval))
        while t < profile.duration_s:
            yield t
            t += float(rng.exponential(interval))
        return
    # burst: thinned Poisson at the peak rate. Candidate arrivals come
    # at rate * burst_factor; each survives with probability
    # r(t)/peak, which reproduces the piecewise-constant intensity
    # exactly (Lewis–Shedler thinning) while spending a fixed two RNG
    # draws per candidate — the stream stays replayable no matter how
    # the duty cycle slices it. Inside a burst r(t) is the peak, so the
    # survival draw (in [0, 1)) always passes there; it is still taken.
    peak = profile.rate_per_s * profile.burst_factor
    spacing = 1.0 / peak
    burst_s = profile.burst_duty * profile.burst_period_s
    keep_between = profile.rate_per_s / peak
    t = float(rng.exponential(spacing))
    while t < profile.duration_s:
        draw = float(rng.random())
        if t % profile.burst_period_s < burst_s or draw < keep_between:
            yield t
        t += float(rng.exponential(spacing))


def generate_schedule(profile: LoadProfile) -> ArrivalSchedule:
    """Materialize the full arrival schedule of ``profile``.

    Pure function of the profile (incl. its seed): per-zone derived RNG
    streams, times rounded to 9 decimals, events sorted by
    ``(time, zone, label)`` so the order is canonical.
    """
    labels = _tag_labels()
    events: list[tuple[float, str, str]] = []
    for zone_id in profile.zone_ids():
        rng = derive_rng(
            profile.seed, "loadtest", profile.name, zone_id, "labels"
        )
        times = list(_zone_arrivals(profile, zone_id))
        picks = rng.integers(0, len(labels), size=len(times)).tolist()
        events.extend(
            (round(t, 9), zone_id, labels[i]) for t, i in zip(times, picks)
        )
    events.sort()
    return ArrivalSchedule(profile=profile, events=tuple(events))


#: Named sweep presets: the base shapes ``repro loadtest`` scales.
PRESET_PROFILES: Mapping[str, LoadProfile] = {
    "steady": LoadProfile(name="steady", process="uniform"),
    "poisson": LoadProfile(name="poisson", process="poisson"),
    "burst": LoadProfile(name="burst", process="burst"),
}


def preset_profile(name: str) -> LoadProfile:
    """Look up a preset profile by name."""
    try:
        return PRESET_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown load profile {name!r}; "
            f"expected one of {sorted(PRESET_PROFILES)}"
        ) from None
