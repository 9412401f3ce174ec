"""Zone partitioning: :class:`ZoneSpec`, :class:`ZonePlan` and site builders.

A *zone* is one self-contained deployment — its own reference lattice,
corner readers, tracking tags and seed — expressed in **local**
coordinates (the paper's testbed frame, grid origin at (0, 0)) and
placed in the **site** frame by a translation ``origin``. Everything a
zone worker owns (estimator, circuit breakers, fault slice,
checkpoint file) derives from its :class:`ZoneSpec`, so
zones share nothing at runtime; the site frame exists only for the
gateway's routing and handoff geometry.

A :class:`ZonePlan` is an ordered set of zones plus the site-level seed
and the roaming tags that may cross zone boundaries. Plans validate the
shared-nothing premise up front: unique zone ids and non-overlapping
zone extents.

Builders:

* :func:`scaled_site_plan` — N copies of the paper testbed tiled at
  :data:`ZONE_PITCH_M`, one seeded world per zone.
* :func:`monolithic_site_plan` — the *same* site (same rooms' readers,
  same tags, same virtual-tag density) as one giant lattice in a single
  zone. The scale-out benchmark compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.config import VIREConfig
from ..exceptions import ConfigurationError
from ..faults.models import is_zone_fault
from ..faults.plan import FaultPlan
from ..geometry.grid import ReferenceGrid
from ..geometry.placement import (
    corner_reader_positions,
    figure2a_tracking_tags,
    paper_testbed_grid,
)
from ..geometry.rooms import rectangular_room
from ..rf.environments import EnvironmentSpec, environment_by_name
from ..utils.rng import derive_seed
from ..utils.validation import (
    ensure_finite,
    ensure_non_negative,
    ensure_positive_int,
)

__all__ = [
    "ZONE_PITCH_M",
    "ZoneSpec",
    "RoamingTag",
    "ZonePlan",
    "zone_seed",
    "slice_fault_plan",
    "scaled_site_plan",
    "monolithic_site_plan",
]

#: Site-frame distance between neighbouring zone origins. Deliberately a
#: non-integer multiple of the 1 m lattice pitch: the merged monolithic
#: lattice of :func:`monolithic_site_plan` must not place a virtual or
#: reference tag exactly on a neighbouring room's reader (the channel
#: refuses zero-length tag→reader segments), and 4.5 m keeps every
#: reader off every lattice point while still leaving only 0.5 m of
#: corridor between rooms.
ZONE_PITCH_M: float = 4.5

#: Zone-targeted fault addressing separator: ``"z1/reader-0"`` targets
#: reader-0 *of zone z1* only; an unprefixed ``"reader-0"`` targets that
#: reader in every zone (and is what single-zone plans use, unchanged).
ZONE_TARGET_SEP = "/"


def zone_seed(seed: int, zone_id: str) -> int:
    """Deterministic per-zone world seed under the site seed.

    Derived through the same :func:`~repro.utils.rng.derive_seed`
    discipline the fault plans use, so adding or removing a zone never
    perturbs another zone's world.
    """
    return int(derive_seed(seed, "zone", zone_id).generate_state(1)[0])


def _site_point(value: Sequence[float], name: str) -> tuple[float, float]:
    """A finite ``(x, y)`` pair, or :class:`ConfigurationError`."""
    point = ensure_finite(value, name)
    if point.shape != (2,):
        raise ConfigurationError(f"{name} must be an (x, y) pair, got {value!r}")
    return (float(point[0]), float(point[1]))


@dataclass(frozen=True)
class ZoneSpec:
    """One shared-nothing zone: a complete deployment in local coordinates.

    Parameters
    ----------
    zone_id:
        Unique zone name (letters, digits, ``_``, ``-``).
    environment:
        Channel recipe, in the zone's local frame (rooms are per zone).
    grid:
        The zone's real reference lattice, local frame.
    origin:
        Translation of the local frame into the site frame.
    tracking_tags:
        Static tracking tags, label -> local position (labels are
        formatted ``tag-<label>`` by the worker, exactly like the
        single-zone service).
    seed:
        The zone's frozen-world seed.
    reader_margin_m:
        Corner-reader clearance (paper: 1 m); ignored when
        ``reader_positions`` is given.
    reader_positions:
        Explicit local reader coordinates (merged monolithic sites).
    vire:
        Optional per-zone estimator config override (a monolithic zone
        needs a larger virtual-tag budget to hold the site's density).
    """

    zone_id: str
    environment: EnvironmentSpec
    grid: ReferenceGrid = field(default_factory=paper_testbed_grid)
    origin: tuple[float, float] = (0.0, 0.0)
    tracking_tags: Mapping[Any, tuple[float, float]] = field(
        default_factory=dict
    )
    seed: int = 0
    reader_margin_m: float = 1.0
    reader_positions: tuple[tuple[float, float], ...] | None = None
    vire: VIREConfig | None = None

    def __post_init__(self) -> None:
        if not self.zone_id or not all(
            c.isalnum() or c in "_-" for c in self.zone_id
        ):
            raise ConfigurationError(
                f"zone_id must be non-empty [A-Za-z0-9_-], got {self.zone_id!r}"
            )
        object.__setattr__(self, "origin", _site_point(self.origin, "origin"))
        object.__setattr__(
            self,
            "tracking_tags",
            {
                label: _site_point(pos, f"tracking tag {label!r} position")
                for label, pos in dict(self.tracking_tags).items()
            },
        )
        object.__setattr__(self, "seed", ensure_positive_int(self.seed, "seed", 0))
        object.__setattr__(
            self,
            "reader_margin_m",
            ensure_non_negative(self.reader_margin_m, "reader_margin_m"),
        )
        if self.reader_positions is not None:
            object.__setattr__(
                self,
                "reader_positions",
                tuple(
                    _site_point(p, "reader position") for p in self.reader_positions
                ),
            )

    # -- frames ---------------------------------------------------------------

    def to_global(self, local: Sequence[float]) -> tuple[float, float]:
        """Local zone coordinates -> site coordinates."""
        return (
            float(local[0]) + self.origin[0],
            float(local[1]) + self.origin[1],
        )

    def to_local(self, global_pos: Sequence[float]) -> tuple[float, float]:
        """Site coordinates -> local zone coordinates."""
        return (
            float(global_pos[0]) - self.origin[0],
            float(global_pos[1]) - self.origin[1],
        )

    def clamp_local(self, global_pos: Sequence[float]) -> tuple[float, float]:
        """Site position projected into the zone's lattice bounds.

        This is where a non-owned roaming tag is *parked*: inside the
        lattice (so its copy always has plausible geometry) and never on
        a reader (readers sit ``reader_margin_m`` outside the bounds).
        """
        x, y = self.to_local(global_pos)
        xmin, ymin, xmax, ymax = self.grid.bounds
        return (min(max(x, xmin), xmax), min(max(y, ymin), ymax))

    # -- geometry -------------------------------------------------------------

    def local_reader_positions(self) -> np.ndarray:
        if self.reader_positions is not None:
            return np.asarray(self.reader_positions, dtype=np.float64)
        return corner_reader_positions(self.grid, margin=self.reader_margin_m)

    def global_reader_positions(self) -> np.ndarray:
        return self.local_reader_positions() + np.asarray(
            self.origin, dtype=np.float64
        )

    @property
    def footprint(self) -> tuple[float, float, float, float]:
        """Site-frame bounding box of the zone's reference lattice.

        This is the area the zone *owns* — plan validation requires
        footprints to be disjoint. Readers are excluded on purpose: at
        the default :data:`ZONE_PITCH_M` neighbouring zones' corner
        readers share the 0.5 m corridor between rooms, which is
        physically fine (each zone only listens to its own readers).
        """
        xmin, ymin, xmax, ymax = self.grid.bounds
        return (
            xmin + self.origin[0],
            ymin + self.origin[1],
            xmax + self.origin[0],
            ymax + self.origin[1],
        )

    def with_(self, **changes) -> "ZoneSpec":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RoamingTag:
    """A tag that crosses zone boundaries along a timed site-frame route.

    ``route`` is a sequence of ``(t_rel_s, (x, y))`` waypoints in
    session-relative simulated seconds (0 = first post-warm-up tick) and
    site coordinates; the position is piecewise-linear between
    waypoints and clamps to the endpoints outside the timed range.
    """

    label: str
    route: tuple[tuple[float, tuple[float, float]], ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("roaming tag label must be non-empty")
        route = tuple(
            (float(t), (float(p[0]), float(p[1]))) for t, p in self.route
        )
        if not route:
            raise ConfigurationError(
                f"roaming tag {self.label!r} needs at least one waypoint"
            )
        times = [t for t, _ in route]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"roaming tag {self.label!r} waypoint times must be "
                f"strictly increasing, got {times}"
            )
        object.__setattr__(self, "route", route)

    def position_at(self, t_rel_s: float) -> tuple[float, float]:
        """Site-frame position at session-relative time ``t_rel_s``."""
        t = float(t_rel_s)
        route = self.route
        if t <= route[0][0]:
            return route[0][1]
        if t >= route[-1][0]:
            return route[-1][1]
        for (t0, p0), (t1, p1) in zip(route, route[1:]):
            if t0 <= t <= t1:
                f = (t - t0) / (t1 - t0)
                return (
                    p0[0] + f * (p1[0] - p0[0]),
                    p0[1] + f * (p1[1] - p0[1]),
                )
        # Unreachable: times are strictly increasing and t is interior.
        raise AssertionError("roaming route interpolation fell through")


def _overlaps(
    a: tuple[float, float, float, float],
    b: tuple[float, float, float, float],
) -> bool:
    """Strict interior overlap of two bounding boxes (touching is fine)."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


@dataclass(frozen=True)
class ZonePlan:
    """An ordered, validated set of zones plus the site's roaming tags.

    Zones must have unique ids and non-overlapping lattice footprints —
    overlap would mean two workers claim the same physical area and the
    gateway's proximity routing becomes ambiguous. (Reader halos *may*
    overlap: neighbouring rooms' corner readers share the corridor.)
    """

    zones: tuple[ZoneSpec, ...]
    seed: int = 0
    roaming: tuple[RoamingTag, ...] = ()

    def __init__(
        self,
        zones: Sequence[ZoneSpec],
        seed: int = 0,
        roaming: Sequence[RoamingTag] = (),
    ):
        object.__setattr__(self, "zones", tuple(zones))
        object.__setattr__(self, "seed", ensure_positive_int(seed, "seed", 0))
        object.__setattr__(self, "roaming", tuple(roaming))
        if not self.zones:
            raise ConfigurationError("a zone plan needs at least one zone")
        ids = [z.zone_id for z in self.zones]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(f"duplicate zone ids: {dupes}")
        for i, a in enumerate(self.zones):
            for b in self.zones[i + 1:]:
                if _overlaps(a.footprint, b.footprint):
                    raise ConfigurationError(
                        f"zones {a.zone_id!r} and {b.zone_id!r} overlap: "
                        f"{a.footprint} vs {b.footprint}"
                    )
        static = {
            str(label) for z in self.zones for label in z.tracking_tags
        }
        seen: set[str] = set()
        for tag in self.roaming:
            if tag.label in static:
                raise ConfigurationError(
                    f"roaming tag {tag.label!r} collides with a static "
                    f"tracking tag label"
                )
            if tag.label in seen:
                raise ConfigurationError(
                    f"duplicate roaming tag label {tag.label!r}"
                )
            seen.add(tag.label)

    def __len__(self) -> int:
        return len(self.zones)

    def __iter__(self):
        return iter(self.zones)

    @property
    def zone_ids(self) -> tuple[str, ...]:
        return tuple(z.zone_id for z in self.zones)

    def zone(self, zone_id: str) -> ZoneSpec:
        for z in self.zones:
            if z.zone_id == zone_id:
                return z
        raise ConfigurationError(
            f"no zone {zone_id!r} in plan (have {list(self.zone_ids)})"
        )

    def zone_seed(self, zone_id: str) -> int:
        """The per-zone derived seed under this plan's site seed."""
        self.zone(zone_id)  # existence check
        return zone_seed(self.seed, zone_id)

    def detect_zone(self, global_pos: Sequence[float]) -> ZoneSpec:
        """Coarse zone detection: nearest reader *set* wins.

        The gateway routes a site-frame position to the zone whose
        reader constellation is closest — by **mean** distance over the
        zone's readers, not minimum: corner readers of neighbouring
        rooms share the corridor, so a single nearest reader would
        assign the centre of one room to its neighbour. The mean is
        minimized at the constellation's centroid (the room centre),
        which is the ownership a deployment wants. Ties break on the
        lexicographically smallest zone id, so routing is a pure
        function of the plan geometry.
        """
        return self.rank_zones(global_pos)[0]

    def rank_zones(self, global_pos: Sequence[float]) -> tuple[ZoneSpec, ...]:
        """Every zone ordered by :meth:`detect_zone` affinity.

        The first entry is ``detect_zone(global_pos)``; the rest are the
        fallback order the gateway's cross-zone load shedding
        uses when the preferred zone is down or slow — nearest
        surviving constellation first, ties on zone id. Pure function of
        the plan geometry, so rerouting is deterministic.
        """
        p = np.asarray(
            [float(global_pos[0]), float(global_pos[1])], dtype=np.float64
        )

        def affinity(z: ZoneSpec) -> tuple[float, str]:
            d = np.linalg.norm(z.global_reader_positions() - p, axis=1)
            return float(np.mean(d)), z.zone_id

        return tuple(sorted(self.zones, key=affinity))


def slice_fault_plan(plan: FaultPlan, zone_id: str) -> FaultPlan:
    """The slice of a site fault plan that one zone injects locally.

    Target addressing: a fault whose ``reader_id``/``tag_id`` carries a
    ``"<zone>/"`` prefix belongs to that zone only (the prefix is
    stripped for the zone's local injector); an unprefixed target — and
    a targetless fault — applies to **every** zone verbatim. A
    single-zone plan therefore slices to *exactly* the original plan
    (same faults, same indices, same seed), preserving the bitwise
    identity contract with the unzoned service.

    Zone-scoped control-plane faults (``scope == "zone"``: crashes,
    hangs, link loss, slow zones) are *dropped* here regardless of
    target — they act on the gateway→worker call path and are consumed
    by :class:`~repro.zones.failover.ZoneChannel`, never by a worker's
    local record injector.
    """
    kept = []
    for fault in plan:
        if is_zone_fault(fault):
            continue
        changes: dict[str, str] = {}
        skip = False
        for attr in ("reader_id", "tag_id"):
            value = getattr(fault, attr, None)
            if not isinstance(value, str) or ZONE_TARGET_SEP not in value:
                continue
            target_zone, _, local = value.partition(ZONE_TARGET_SEP)
            if target_zone != zone_id:
                skip = True
                break
            changes[attr] = local
        if skip:
            continue
        kept.append(replace(fault, **changes) if changes else fault)
    return FaultPlan(kept, seed=plan.seed)


# ---------------------------------------------------------------------------
# Plan builders
# ---------------------------------------------------------------------------


def _square_layout(n_zones: int) -> list[tuple[float, float]]:
    cols = math.ceil(math.sqrt(n_zones))
    return [
        (ZONE_PITCH_M * (i % cols), ZONE_PITCH_M * (i // cols))
        for i in range(n_zones)
    ]


def scaled_site_plan(
    environment: str | EnvironmentSpec = "Env1",
    n_zones: int = 4,
    *,
    seed: int = 0,
    roaming: Sequence[RoamingTag] = (),
) -> ZonePlan:
    """N paper testbeds tiled row-major at :data:`ZONE_PITCH_M`, one
    world per zone.

    Each zone is the full §5 testbed (4x4 lattice, 4 corner readers,
    9 Fig. 2(a) tracking tags) in its own local frame with its own
    derived seed — the shared-nothing scale-out deployment.
    """
    if n_zones < 1:
        raise ConfigurationError(f"n_zones must be >= 1, got {n_zones}")
    env = (
        environment_by_name(environment)
        if isinstance(environment, str)
        else environment
    )
    grid = paper_testbed_grid()
    tags = figure2a_tracking_tags(grid)
    zones = []
    for i, origin in enumerate(_square_layout(n_zones)):
        zid = f"z{i}"
        zones.append(
            ZoneSpec(
                zone_id=zid,
                environment=env,
                grid=grid,
                origin=origin,
                tracking_tags=tags,
                seed=zone_seed(seed, zid),
            )
        )
    return ZonePlan(zones, seed=seed, roaming=roaming)


#: Room recipes for the merged monolithic site, matching the wall
#: parameters of the Env presets (Env3's cluttered office is too small
#: and furniture-specific to scale meaningfully).
_SITE_ROOM_RECIPES: dict[str, dict[str, Any]] = {
    "Env1": {
        "attenuation_db": 8.0,
        "reflectivity": 0.35,
        "open_sides": ("top", "right"),
    },
    "Env2": {"attenuation_db": 12.0, "reflectivity": 0.55, "open_sides": ()},
}


def monolithic_site_plan(
    environment: str | EnvironmentSpec = "Env1",
    n_zones: int = 4,
    *,
    seed: int = 0,
) -> ZonePlan:
    """The same site as :func:`scaled_site_plan`, as ONE zone.

    One merged lattice covers all rooms at (approximately) the zoned
    deployment's 0.1 m virtual pitch; *all* of the rooms' readers and
    tracking tags are kept at their site positions. This is the fair
    "1 zone on an N-zone deployment" baseline of the scale-out
    benchmark: identical hardware and load, monolithic estimator state.

    ``n_zones`` must be a perfect square (the merged lattice is a
    uniform rows x cols grid). Only Env1/Env2 have site room recipes.
    """
    side = math.isqrt(n_zones)
    if side * side != n_zones or n_zones < 1:
        raise ConfigurationError(
            f"monolithic site needs a square zone count, got {n_zones}"
        )
    env = (
        environment_by_name(environment)
        if isinstance(environment, str)
        else environment
    )
    recipe = _SITE_ROOM_RECIPES.get(env.name)
    if recipe is None:
        raise ConfigurationError(
            f"no monolithic site room recipe for environment {env.name!r} "
            f"(have {sorted(_SITE_ROOM_RECIPES)})"
        )
    zone_grid = paper_testbed_grid()
    zxmin, zymin, zxmax, zymax = zone_grid.bounds
    span = (zxmax - zxmin) + ZONE_PITCH_M * (side - 1)
    offsets = _square_layout(n_zones)

    # One uniform lattice across the whole site. rows = 4*side keeps the
    # spacing within ~7% of the per-zone 1 m pitch; the virtual budget
    # below reproduces the zoned arm's n=10 subdivisions per cell.
    rows = 4 * side
    spacing = span / (rows - 1)
    grid = ReferenceGrid(
        rows=rows, cols=rows, spacing_x=spacing, spacing_y=spacing,
        origin=(0.0, 0.0),
    )
    readers: list[tuple[float, float]] = []
    corner = corner_reader_positions(zone_grid)
    for ox, oy in offsets:
        readers.extend((float(x) + ox, float(y) + oy) for x, y in corner)

    tags: dict[str, tuple[float, float]] = {}
    zone_tags = figure2a_tracking_tags(zone_grid)
    for i, (ox, oy) in enumerate(offsets):
        for label, (x, y) in zone_tags.items():
            tags[f"z{i}:{label}"] = (x + ox, y + oy)

    # Room: the preset's clearance margins around the zone grid, kept
    # around the whole site.
    rxmin, rymin, rxmax, rymax = env.room.bounds
    width = span + (zxmin - rxmin) + (rxmax - zxmax)
    height = span + (zymin - rymin) + (rymax - zymax)
    room = rectangular_room(
        width,
        height,
        origin=(rxmin, rymin),
        name=f"{env.name.lower()}-site{n_zones}",
        **recipe,
    )
    site_env = replace(env, name=f"{env.name}-site{n_zones}", room=room)
    # n=10 virtual subdivisions per lattice cell, matching the zoned
    # arm's VIREConfig(target_total_tags=900) on a 4x4 grid.
    target = (10 * (rows - 1) + 1) ** 2
    spec = ZoneSpec(
        zone_id="site",
        environment=site_env,
        grid=grid,
        origin=(0.0, 0.0),
        tracking_tags=tags,
        seed=zone_seed(seed, "site"),
        reader_positions=tuple(readers),
        vire=VIREConfig(target_total_tags=target),
    )
    return ZonePlan((spec,), seed=seed)
