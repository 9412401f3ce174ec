"""Zone-level fault tolerance: supervised channels, admission, respawn.

This module is the reliability layer between the
:class:`~repro.zones.gateway.ZoneGateway` and its
:class:`~repro.zones.worker.ZoneWorker` fleet. The gateway never touches
a worker directly; every call goes through a :class:`ZoneChannel`,
which

* **journals** every gateway→worker tag-surface call (activate /
  deactivate / move / transfer) against the stream chunk it applies to,
  and replays the journal *in order* both for live operation and for
  recovery — the seeded world regenerates the same RSSI stream only if
  it sees the same surface-call sequence;
* **supervises** the per-chunk step call against the zone-scoped
  control-plane faults of :mod:`repro.faults.models`: a failed call is
  retried :data:`ZONE_CALL_RETRIES` times (counted, never slept — the
  simulated zone has no wall clock to wait on) before the instance is
  killed or the zone is left behind;
* **respawns** a dead zone from its zone-identity checkpoint (reusing
  :mod:`repro.runtime.checkpoint` resume-by-replay) and replays the full
  surface-call journal through the gap, so the recovered zone's answers
  are *byte-identical* to an uninterrupted run's;
* **degrades explicitly** once the :data:`MAX_RESPAWNS` budget is spent:
  the zone is marked down and the gateway serves interim last-known answers
  (``estimator="gateway-interim"``, ``reason="zone_down"`` — a new level
  of the degradation ladder above the per-zone levels, see
  ``docs/SERVICE.md``) while roaming tags are rerouted to the
  next-nearest live zone.

Admission control (:class:`AdmissionPolicy` + :class:`TokenBucket`) is
the SLO guard on the same path: a deterministic token bucket on the
zone's *simulation* clock sheds localization queries before they enter a
saturated pipeline (shed-newest: the schedule still advances, the shed
is counted, admitted work is never abandoned). Off unless the gateway
is given an :class:`AdmissionPolicy`.

Determinism notes
-----------------
The journal defers surface calls to just before the chunk they precede.
A zone's simulation clock only advances inside ``step()``, so a deferred
call observes exactly the worker state an immediate call would have —
which is why a fault-free channel is invisible in the answers, and why a
respawn replay (same journal, same seeded world) reconverges exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..exceptions import ConfigurationError
from ..faults.models import (
    SlowZoneFault,
    WorkerHangFault,
    ZoneCrashFault,
    ZoneLinkLossFault,
    is_zone_fault,
)
from ..obs import Tracer
from ..service.pipeline import ServiceConfig, ServiceResult
from ..service.session import SessionReport
from ..utils.validation import ensure_positive, ensure_positive_int
from .spec import ZoneSpec, slice_fault_plan
from .worker import ZoneWorker, _tag_id

__all__ = [
    "AdmissionPolicy",
    "TokenBucket",
    "ZoneAdmission",
    "ZoneChannel",
]

#: Reason string of gateway-interim results — the ladder level above the
#: per-zone levels (``docs/SERVICE.md``): the *zone* is unavailable, not
#: just a reader or an intersection.
ZONE_DOWN_REASON = "zone_down"

#: Estimator tag of gateway-served interim answers.
INTERIM_ESTIMATOR = "gateway-interim"

#: Respawns per zone before it is marked down for good: a crash-looping
#: zone must not flap forever.
MAX_RESPAWNS = 2

#: Retries of one failed gateway→zone call (hang, link loss) before the
#: channel gives up on it: ``ZONE_CALL_RETRIES + 1`` attempts in all.
ZONE_CALL_RETRIES = 2


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TokenBucket:
    """Deterministic token bucket on an injected (simulation) clock.

    Refill is computed lazily from elapsed clock time, so the bucket is
    a pure function of the admission request sequence — no wall clock,
    no background thread. Its rate and depth come from an
    :class:`AdmissionPolicy`, which validates them.
    """

    def __init__(self, policy: AdmissionPolicy):
        self.rate_per_s = float(policy.rate_per_s)
        self.burst = float(policy.burst)
        self._tokens = self.burst
        self._last_s: float | None = None

    def try_acquire(self, now_s: float) -> bool:
        """Take one token at clock time ``now_s``; False when empty."""
        now_s = float(now_s)
        if self._last_s is not None and now_s > self._last_s:
            self._tokens = min(
                self.burst, self._tokens + (now_s - self._last_s) * self.rate_per_s
            )
        self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class AdmissionPolicy:
    """SLO-aware admission control knobs for one zone's query stream.

    Parameters
    ----------
    rate_per_s:
        Sustained localization queries per *simulated* second the zone
        admits.
    burst:
        Bucket depth: how many queries may arrive back-to-back before
        shedding starts.
    """

    rate_per_s: float = 100.0
    burst: int = 16

    def __post_init__(self) -> None:
        # Validate only; the fields keep the values the caller passed.
        ensure_positive(self.rate_per_s, "rate_per_s")
        ensure_positive_int(self.burst, "burst")

    def with_(self, **changes) -> "AdmissionPolicy":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)


class ZoneAdmission:
    """One zone's admission gate: token bucket + overload accounting.

    Consulted by :meth:`ZoneWorker.step` before each due query is
    submitted (shed-newest: a refused query is counted and its schedule
    slot advances — admitted work is never abandoned to make room).
    """

    def __init__(self, policy: AdmissionPolicy):
        self.policy = policy
        self.bucket = TokenBucket(policy)
        self.admitted = 0
        self.shed = 0

    def admit(self, now_s: float) -> bool:
        """Admit or shed one query at zone-simulation time ``now_s``."""
        ok = self.bucket.try_acquire(now_s)
        if ok:
            self.admitted += 1
        else:
            self.shed += 1
        return ok


# ---------------------------------------------------------------------------
# The supervised channel
# ---------------------------------------------------------------------------


def _fire(pending: list, tau_s: float) -> bool:
    """Fire the first pending one-shot fault due at ``tau_s``, if any.

    A fired fault leaves ``pending``: it fires exactly once per channel,
    whatever instance of the worker is alive. At most one fires per
    call, so two faults due together fire on consecutive calls.
    """
    for i, fault in enumerate(pending):
        if tau_s >= fault.at_s:
            del pending[i]
            return True
    return False


class ZoneChannel:
    """The gateway's supervised, journaling call path to one zone.

    All tag-surface calls are *journaled* with the stream chunk they
    precede and applied inside :meth:`advance_to` right before that
    chunk is stepped — one mechanism serves live operation, link-loss
    catch-up and respawn recovery. Reads (:meth:`last_estimate_site`)
    are answered by the live worker when it is current, and by the
    channel's result cache (the gateway's own view) when the zone is
    down or behind.
    """

    def __init__(
        self,
        spec: ZoneSpec,
        config: ServiceConfig,
        *,
        admission: AdmissionPolicy | None = None,
        site_fault_plan=None,
        roaming_tags: Mapping[str, tuple[float, float]] | None = None,
        checkpoint_path: str | None = None,
        resume: bool = False,
        tracer: Tracer | None = None,
        query_schedule: Sequence[tuple[float, str]] | None = None,
    ):
        if admission is not None and checkpoint_path is not None:
            raise ConfigurationError(
                "admission control does not compose with zone checkpoints: "
                "shed decisions are not checkpointed, so a resume could not "
                "replay them; disable one of the two"
            )
        self.spec = spec
        self.config = config
        self._admission_policy = admission
        self._roaming_tags = dict(roaming_tags or {})
        self._checkpoint_path = checkpoint_path
        self._resume = bool(resume)
        self._tracer = tracer
        self._query_schedule = query_schedule

        # Record-path slice for the worker; this zone's control-plane
        # faults are read by this channel only. One-shot faults (crash,
        # hang) leave their pending list when they fire.
        self._record_plan = (
            slice_fault_plan(site_fault_plan, spec.zone_id)
            if site_fault_plan is not None
            else None
        )
        mine = [
            f for f in site_fault_plan or ()
            if is_zone_fault(f) and f.zone_id == spec.zone_id
        ]
        self._crashes = [f for f in mine if isinstance(f, ZoneCrashFault)]
        self._hangs = [f for f in mine if isinstance(f, WorkerHangFault)]
        self._links = [f for f in mine if isinstance(f, ZoneLinkLossFault)]
        self._slows = [f for f in mine if isinstance(f, SlowZoneFault)]

        self.worker: ZoneWorker | None = None
        self.admission: ZoneAdmission | None = None
        self._duration_s = 0.0
        # Surface calls keyed by the chunk they precede, in call order.
        self._journal: dict[int, list[tuple[str, tuple]]] = {}
        self._k = 0  # chunks this zone has processed
        self._down = False
        self._active_at_crash: tuple[str, ...] = ()
        self._cache: dict[str, ServiceResult] = {}
        self._next_interim: dict[str, float] = {}
        self.interim_served: list[ServiceResult] = []
        # supervision accounting
        self.crashes = 0
        self.respawns = 0
        self.timeouts = 0
        self.retries = 0
        self.link_failures = 0
        self.slow_ticks = 0

    # -- identity / status -----------------------------------------------------

    @property
    def zone_id(self) -> str:
        return self.spec.zone_id

    @property
    def down(self) -> bool:
        """True once the zone is permanently down (no respawn left)."""
        return self._down

    def slow_at(self, tau_s: float) -> bool:
        """Is a slow-zone window active at gateway-relative ``tau_s``?"""
        return any(f.active_at(tau_s) for f in self._slows)

    def accepts_handoffs(self, tau_s: float) -> bool:
        """May the gateway route a roaming-tag handoff here at ``tau_s``?"""
        return not self._down and not self.slow_at(tau_s)

    # -- lifecycle -------------------------------------------------------------

    def start(self, duration_s: float) -> None:
        self._duration_s = float(duration_s)
        self.worker = self._build_worker(resume=self._resume)
        self._scoped(self.worker.start, duration_s)
        self._attach_admission()

    def _build_worker(self, *, resume: bool) -> ZoneWorker:
        return ZoneWorker(
            self.spec,
            self.config,
            fault_plan=self._record_plan,
            roaming_tags=self._roaming_tags,
            checkpoint_path=self._checkpoint_path,
            resume=resume,
            query_schedule=self._query_schedule,
        )

    def _attach_admission(self) -> None:
        if self._admission_policy is None:
            return
        # A fresh gate per worker instance: a cold respawn re-executes
        # the same tick sequence against a fresh bucket, so its shed
        # decisions replay identically.
        admission = self.admission = ZoneAdmission(self._admission_policy)
        self.worker.set_admission(admission)
        for name, help_text in (
            ("admitted", "Localization queries admitted by the zone's "
                         "token bucket"),
            ("shed", "Localization queries shed by zone admission control"),
        ):
            self.worker.metrics.read(
                f"admission_requests_{name}_total", help_text,
                lambda name=name: getattr(admission, name),
            )

    # -- the journaled tag surface ---------------------------------------------

    def enqueue(self, chunk_k: int, method: str, *args) -> None:
        """Journal one surface call against *gateway* chunk ``chunk_k``.

        Keyed by the gateway's tick, not the channel's own progress: a
        zone that has fallen behind the gateway clock (link loss)
        receives each deferred call at the simulated time it was issued,
        not bunched together at reconnect — catch-up replays the exact
        call/step interleaving a healthy zone would have seen.

        Dropped silently for a permanently-down zone — the caller is the
        gateway, which reroutes ownership away on the next boundary.
        """
        if self._down:
            return
        self._journal.setdefault(int(chunk_k), []).append((method, args))

    _SURFACE = {
        "move": "move_tag",
        "activate": "activate_tag",
        "deactivate": "deactivate_tag",
        "transfer": "transfer_estimate",
    }

    def _apply_journal(self, chunk_k: int) -> None:
        for method, args in self._journal.get(chunk_k, ()):
            self._scoped(getattr(self.worker, self._SURFACE[method]), *args)

    def last_estimate_site(self, label: str) -> tuple[float, float] | None:
        """The tag's last known position, in *site* coordinates.

        Served by the live worker when the zone is current; by the
        channel's own result cache (the last answer the gateway actually
        saw) when the zone is down or lagging behind the gateway clock —
        an unreachable worker cannot be queried for a fresher value.
        """
        if not self._down and self.worker is not None:
            local = self._scoped(self.worker.last_estimate, label)
            if local is not None:
                return self.spec.to_global(local)
            return None
        cached = self._cache.get(_tag_id(label))
        if cached is None:
            return None
        return self.spec.to_global(cached.position)

    # -- supervised advancement ------------------------------------------------

    def advance_to(
        self, k_target: int, tau_s: float
    ) -> list[ServiceResult] | None:
        """Process chunks up to the gateway's chunk counter ``k_target``.

        The supervised step call: this zone's faults are evaluated here
        (death → respawn or mark-down; hang → timeouts, retry budget,
        kill; link loss → fall behind; slow → counted, no handoffs in),
        then the zone catches up chunk by chunk, applying
        journaled surface calls before each step. Returns the results
        served (``[]`` while unreachable/down), or ``None`` when the
        zone's stream is exhausted.
        """
        if self._down:
            return []
        if _fire(self._crashes, tau_s):
            self.crashes += 1
            if not self._recover(tau_s):
                return []
        elif _fire(self._hangs, tau_s):
            self._charge_hang()
            if not self._recover(tau_s):
                return []
        if any(f.active_at(tau_s) for f in self._links):
            # Transient unreachability: the retry budget burns without a
            # kill — the worker is alive, the link is not. The zone
            # falls behind and catches up deterministically later.
            self.link_failures += self._burn_retry_budget()
            return []
        if self.slow_at(tau_s):
            self.slow_ticks += 1
        return self._catch_up(k_target)

    def _charge_hang(self) -> None:
        """A wedged instance: every attempt times out, then it is killed."""
        self.timeouts += self._burn_retry_budget()
        self.crashes += 1

    def _burn_retry_budget(self) -> int:
        """Fail every attempt of one call: count the retries and return
        the attempts made (``ZONE_CALL_RETRIES + 1``)."""
        self.retries += ZONE_CALL_RETRIES
        return ZONE_CALL_RETRIES + 1

    def _recover(self, tau_s: float) -> bool:
        """Kill the instance; respawn within budget, else mark down."""
        self._scoped(self.worker.abort)
        if self.respawns >= MAX_RESPAWNS:
            self._mark_down(tau_s)
            return False
        self._respawn(tau_s)
        return True

    def _mark_down(self, tau_s: float) -> None:
        self._down = True
        self._active_at_crash = self.worker.active_tags()
        self._next_interim = {tag: tau_s for tag in self._active_at_crash}

    def _respawn(self, tau_s: float) -> None:
        """Fresh instance from the checkpoint + full journal replay.

        With a checkpoint the fresh worker resumes by replay (estimation
        skipped up to the last committed cut); without one it cold
        re-executes from the start. Either way the *entire* surface-call
        journal replays in chunk order — tag positions shape the RSSI
        stream, so the re-seeded world must see every call the first
        instance saw, at the same chunk boundaries.
        """
        self.respawns += 1
        import os

        resume = (
            self._checkpoint_path is not None
            and os.path.exists(self._checkpoint_path)
        )
        self.worker = self._build_worker(resume=resume)
        self._scoped(self.worker.start, self._duration_s)
        self._attach_admission()
        recovered_k = self._k
        self._k = 0
        while self._k < recovered_k:
            served = self._step_next()
            if served is None:  # pragma: no cover - journal never outruns
                raise ConfigurationError(
                    f"zone {self.zone_id!r} stream exhausted during respawn "
                    f"replay at chunk {self._k}/{recovered_k}"
                )

    def _step_next(self) -> list[ServiceResult] | None:
        next_k = self._k + 1
        self._apply_journal(next_k)
        served = self._scoped(self.worker.step)
        if served is None:
            return None
        self._k = next_k
        for r in served:
            self._cache[r.tag_id] = r
        return served

    def _catch_up(self, k_target: int) -> list[ServiceResult] | None:
        out: list[ServiceResult] = []
        while self._k < k_target:
            served = self._step_next()
            if served is None:
                return None
            out.extend(served)
        return out

    # -- interim serving (zone down) -------------------------------------------

    def interim_results(self, tau_s: float) -> list[ServiceResult]:
        """Gateway-interim answers due at ``tau_s`` for a down zone.

        Last-known positions (site frame) at the configured query
        cadence on the gateway's relative clock, degraded with
        ``reason="zone_down"``. Tags the zone never localized have
        nothing to serve from; they are counted, never silently skipped.
        """
        if not self._down:
            return []
        out: list[ServiceResult] = []
        interval = self.config.query_interval_s
        for tag in sorted(self._next_interim):
            if tau_s < self._next_interim[tag]:
                continue
            self._next_interim[tag] = self._next_interim[tag] + interval
            cached = self._cache.get(tag)
            if cached is None:
                continue
            site = self.spec.to_global(cached.position)
            out.append(
                ServiceResult(
                    tag_id=tag,
                    position=(float(site[0]), float(site[1])),
                    estimator=INTERIM_ESTIMATOR,
                    degraded=True,
                    reason=ZONE_DOWN_REASON,
                    requested_at_s=float(tau_s),
                    completed_at_s=float(tau_s),
                    processing_latency_s=0.0,
                    diagnostics={"zone": self.zone_id},
                )
            )
        self.interim_served.extend(out)
        return out

    def drop_interim_tag(self, label: str) -> None:
        """Stop interim serving for a tag rerouted to another zone."""
        self._next_interim.pop(_tag_id(label), None)

    # -- teardown --------------------------------------------------------------

    def interrupt(self) -> None:
        if not self._down and self.worker is not None:
            self.worker.interrupt()

    def finish(self) -> SessionReport:
        """The zone's session report; as the crash left it for a dead zone.

        A down zone's worker was aborted (its WAL closed as the crash
        left it), but its session still holds everything served before
        death — that, honestly marked, is the zone's report. The
        gateway-interim answers served on its behalf live at the gateway
        level, not here.
        """
        if not self._down:
            return self._scoped(self.worker.finish)
        return self.worker.session.report(
            zone_down=1.0, interim_results=float(len(self.interim_served))
        )

    def counters(self) -> dict[str, int]:
        """Snapshot of the channel's supervision accounting."""
        return {
            "crashes": self.crashes,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "link_failures": self.link_failures,
            "slow_ticks": self.slow_ticks,
            "down": int(self._down),
            "interim_results": len(self.interim_served),
            "admission_shed": self.admission.shed if self.admission else 0,
        }

    # -- tracer plumbing -------------------------------------------------------

    def _scoped(self, fn, *args):
        """Call into the worker with the tracer clock on its timeline.

        Each zone has its own simulation clock; spans emitted inside a
        worker call (``service.tick``, ``service.batch``, ...) are stamped
        with that zone's time, while gateway spans between calls stay on
        the gateway's τ-clock.
        """
        tracer = self._tracer
        if tracer is None:
            return fn(*args)
        saved = tracer.clock
        tracer.clock = lambda: self.worker.simulator.now
        try:
            return fn(*args)
        finally:
            tracer.clock = saved
