"""Batch estimation: T tracking tags against shared interpolation work.

:class:`BatchEngine` runs the VIRE pipeline for a whole batch of
:class:`~repro.types.TrackingReading` snapshots with one pass of
vectorized kernels (:mod:`repro.engine.kernels`) instead of T scalar
passes, while staying **bitwise identical** to calling
:meth:`VIREEstimator.estimate` per reading:

* interpolation is computed once per unique ``(reader lattice, grid)``
  pair and the resulting surface shared across every tag in the batch —
  the dominant saving when T tags are localized against one middleware
  snapshot (they all see the same reference lattices);
* deviations, thresholds, proximity masks, elimination votes and both
  weighting factors are evaluated as ``(T, K, rows, cols)`` tensor
  operations;
* the degradation contract is preserved per reading: quorum refusals,
  empty-intersection fallbacks and validation errors come out exactly as
  the scalar path would raise them (see :meth:`estimate_outcomes`).

:class:`BatchLandmarc` does the same for the LANDMARC fallback — the
degradation ladder of the streaming service batches through it.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from ..baselines.landmarc import LandmarcEstimator
from ..exceptions import ConfigurationError, EstimationError, ReproError
from ..obs import current_tracer
from ..types import EstimateResult, TrackingReading
from . import kernels
from .grouping import LatticeTable, operator_for

__all__ = ["BatchEngine", "BatchLandmarc", "estimate_all"]

#: Outcome of one reading in a batch: a result, or the exact exception
#: the scalar path would have raised for that reading.
Outcome = EstimateResult | ReproError


#: The list values a result's diagnostics can hold (``map_areas`` and
#: the quorum lists of a masked reading): the mutable ones a repeat
#: must not share.
_LIST_DIAGNOSTICS = (
    "map_areas",
    "quorum_surviving_readers",
    "quorum_excluded_readers",
    "quorum_coverage",
)


def _repeat(outcome: Outcome) -> Outcome:
    """A repeated reading's own copy of its first outcome: a fresh error
    of the same type and message, or a result with a fresh diagnostics
    dict whose list values are fresh lists."""
    if isinstance(outcome, ReproError):
        return copy.copy(outcome)
    diagnostics = outcome.diagnostics.copy()
    for key in _LIST_DIAGNOSTICS:
        if key in diagnostics:
            diagnostics[key] = diagnostics[key].copy()
    return EstimateResult(outcome.position, outcome.estimator, diagnostics)


def _raise_first(outcomes: list[Outcome]) -> list[EstimateResult]:
    for outcome in outcomes:
        if isinstance(outcome, ReproError):
            raise outcome
    return outcomes  # type: ignore[return-value]


class BatchEngine:
    """Vectorized batch twin of a :class:`~repro.core.estimator.VIREEstimator`.

    Parameters
    ----------
    estimator:
        The scalar estimator whose behaviour is to be reproduced. The
        engine reuses its grid, config, interpolator and quorum policy,
        so one engine serves wherever the scalar estimator would.
    """

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        layout = estimator._layout
        self._layout_memo = {(layout.shape, layout.tobytes()): None}
        # Precomputed sparse interpolation operator (None when the
        # estimator's scheme is not the linear one).
        self._operator = operator_for(estimator)

    # -- public API ----------------------------------------------------------

    def estimate_batch(
        self, readings: Sequence[TrackingReading]
    ) -> list[EstimateResult]:
        """Localize every reading; raise the first per-reading error.

        Bitwise identical to ``[estimator.estimate(r) for r in readings]``
        — including the exception a failing reading would raise (the
        first one in input order, as a sequential loop would hit it).
        """
        return _raise_first(self.estimate_outcomes(readings))

    def estimate_outcomes(
        self, readings: Sequence[TrackingReading]
    ) -> list[Outcome]:
        """Per-reading results *or* the error that reading provokes.

        The streaming service uses this form: one bad reading (quorum
        unmet, empty intersection with ``empty_fallback="error"``) must
        degrade only its own request, never poison the batch.

        A reading *object* offered more than once (one tag requested
        twice in a serving batch) is localized once. Each later copy
        gets its own result with fresh diagnostics, or a fresh error of
        the same type and message. Span attributes still count the
        offered readings.
        """
        readings = list(readings)
        outcomes: list[Outcome] = [None] * len(readings)  # type: ignore[list-item]
        est = self.estimator
        tracer = current_tracer()
        first: dict[int, int] = {}
        source = [first.setdefault(id(r), i) for i, r in enumerate(readings)]
        offers = [0] * len(readings)  # offers of each first position
        for i in source:
            offers[i] += 1

        with tracer.span("engine.batch", n_readings=len(readings)) as root:
            # Stage 1 (per distinct reading, cheap): quorum + layout
            # checks, exactly in the scalar estimate() order.
            layout_memo = dict(self._layout_memo)
            prepared: list[tuple[int, TrackingReading, int | None, dict]] = []
            with tracer.span("engine.prepare") as psp:
                for idx in first.values():
                    reading = readings[idx]
                    try:
                        min_votes = est.config.min_votes
                        quorum_diag: dict = {}
                        if reading.masked:
                            decision = est.quorum.apply(reading)
                            reading = decision.reading
                            if min_votes is not None:
                                min_votes = min(min_votes, reading.n_readers)
                            quorum_diag = decision.diagnostics()
                        self._check_layout(reading, layout_memo)
                        prepared.append((idx, reading, min_votes, quorum_diag))
                    except ReproError as exc:
                        outcomes[idx] = exc
                n_prepared = sum(offers[entry[0]] for entry in prepared)
                psp.set("prepared", n_prepared)
                psp.set("rejected", len(readings) - n_prepared)

            # Stage 2: shared interpolation, grouped by lattice *content*.
            # Readings whose (reading, reader) lattices carry identical
            # bytes share one interpolation — snapshot batches (T tags on
            # one middleware snapshot) and independent batches (distinct
            # readings per tag) alike — and for the linear scheme all
            # unique lattices of the batch go through one precomputed
            # sparse-operator pass.
            with tracer.span("engine.interpolate") as isp:
                ready, table = self._interpolate_grouped(prepared, outcomes)
                isp.set("unique_surfaces", len(table))

            # Stage 3: group by surviving reader count and vectorize.
            groups: dict[int, list[int]] = {}
            for pos, entry in enumerate(ready):
                groups.setdefault(entry[1].n_readers, []).append(pos)
            root.set("n_groups", len(groups))
            for readers_k, members in groups.items():
                with tracer.span(
                    "engine.group",
                    readers=readers_k,
                    tags=sum(offers[ready[pos][0]] for pos in members),
                ):
                    self._estimate_group(
                        [ready[pos] for pos in members], outcomes, table
                    )
        if len(first) < len(readings):
            for i, j in enumerate(source):
                if i != j:
                    outcomes[i] = _repeat(outcomes[j])
        return outcomes

    # -- pipeline stages -----------------------------------------------------

    def _check_layout(
        self, reading: TrackingReading, memo: dict[tuple, ReproError | None]
    ) -> None:
        """Scalar :meth:`VIREEstimator._check_layout`, one verdict per
        distinct reference-position content (same error, same message).

        ``memo`` starts with the estimator's own layout: bytes equal to
        it pass without the ``allclose`` (bit-equal implies close).
        """
        got = reading.reference_positions
        key = (got.shape, got.tobytes())
        if key not in memo:
            try:
                self.estimator._check_layout(reading)
                memo[key] = None
            except ReproError as exc:
                memo[key] = exc
        err = memo[key]
        if err is not None:
            raise err

    def _interpolate_grouped(
        self,
        prepared: list[tuple[int, TrackingReading, int | None, dict]],
        outcomes: list[Outcome],
    ) -> tuple[list, LatticeTable]:
        """Batch-wide content dedup — the engine's one interpolation route.

        Every (reading, reader) lattice is registered in one
        :class:`~repro.engine.grouping.LatticeTable` keyed by lattice
        content, so readings sharing bytes — same-snapshot tags *and*
        independent readings that happen to agree — share one surface,
        and every unique surface comes from one interpolation pass;
        per-reading errors keep their scalar type, message and reader
        order.

        The returned entries carry each reading's *slot indices* (plus
        the table itself, as the second return value):
        :meth:`_estimate_group` assembles a whole group's virtual tensor
        with one :meth:`LatticeTable.gather`.
        """
        table = LatticeTable(self.estimator)
        pending = [(*entry, table.slots_for(entry[1])) for entry in prepared]
        table.interpolate(self._operator)
        if not table.n_errors:
            return pending, table
        ready = []
        for entry in pending:
            err = table.error_for(entry[4])
            if err is None:
                ready.append(entry)
            else:
                outcomes[entry[0]] = err
        return ready, table

    def _estimate_group(
        self,
        group: list[tuple[int, TrackingReading, int | None, dict, np.ndarray]],
        outcomes: list[Outcome],
        table: LatticeTable,
    ) -> None:
        """Vectorize one uniform-K group of readings.

        Each entry's fifth element is the reading's slot-index vector;
        the whole group's ``(T, K, v_rows, v_cols)`` virtual tensor
        comes from one :meth:`LatticeTable.gather`.
        """
        est = self.estimator
        config = est.config
        k = group[0][1].n_readers
        n_tags = len(group)
        shape = est.virtual_grid.shape

        # Validate per-tag vote requirements exactly as eliminate() would.
        valid: list[tuple] = []
        needed: list[int] = []
        for entry in group:
            votes = k if entry[2] is None else entry[2]
            if not (1 <= votes <= k):
                outcomes[entry[0]] = ConfigurationError(
                    f"min_votes must be within 1..{k}, got {votes}"
                )
                continue
            valid.append(entry)
            needed.append(votes)
        if not valid:
            return
        group, n_tags = valid, len(valid)
        needed_arr = np.asarray(needed, dtype=np.int64)

        tracking = np.array([entry[1].tracking_rssi for entry in group])
        if all(entry[4] is group[0][4] for entry in group):
            # One snapshot (one block, one slot vector): gather its K
            # surfaces once and broadcast them over the tags. Deviations
            # are elementwise, so a stride-0 view gives the same bits as
            # T copies.
            virtual = np.broadcast_to(
                table.gather(group[0][4][np.newaxis]), (n_tags, k, *shape)
            )
        else:
            virtual = table.gather(np.array([entry[4] for entry in group]))
        dev = kernels.batch_rssi_deviations(virtual, tracking)

        # Thresholds (shared per tag). Infeasible tags (NaN from the
        # closed form) get the scalar path's ConfigurationError.
        live = np.ones(n_tags, dtype=bool)
        if config.threshold_mode == "adaptive":
            base = kernels.batch_minimal_feasible_threshold(
                dev, min_cells=config.min_cells
            )
            thresholds = base + config.threshold_margin_db
            infeasible = np.isnan(base)
            if infeasible.any():
                for t in np.flatnonzero(infeasible):
                    outcomes[group[t][0]] = ConfigurationError(
                        f"fewer than min_cells={config.min_cells} cells have "
                        "fully known deviations; no feasible shared "
                        "threshold exists"
                    )
                live &= ~infeasible
                thresholds = np.where(live, thresholds, 0.0)
        else:
            thresholds = np.full(n_tags, config.fixed_threshold_db)

        masks = kernels.batch_proximity_masks(dev, thresholds)
        selected = kernels.batch_eliminate(masks, needed_arr)

        # Empty intersections: the scalar fallback ladder, per tag.
        fallback: list[str | None] = [None] * n_tags
        empty = live & ~selected.any(axis=(1, 2))
        if empty.any():
            if config.empty_fallback == "error":
                for t in np.flatnonzero(empty):
                    outcomes[group[t][0]] = EstimationError(
                        f"elimination left no candidate regions at threshold "
                        f"{thresholds[t]:.3f} dB"
                    )
                    live[t] = False
            elif config.empty_fallback == "landmarc":
                for t in np.flatnonzero(empty):
                    idx, reading, _, quorum_diag, _ = group[t]
                    try:
                        base_res = est._fallback_landmarc.estimate(reading)
                        outcomes[idx] = EstimateResult(
                            position=base_res.position,
                            estimator=est.name,
                            diagnostics={
                                "fallback": "landmarc",
                                "threshold_db": float(thresholds[t]),
                                "n_selected": 0,
                                **quorum_diag,
                            },
                        )
                    except ReproError as exc:
                        outcomes[idx] = exc
                    live[t] = False
            else:  # "relax": minimal feasible threshold for those tags
                relax = np.flatnonzero(empty)
                relaxed = kernels.batch_minimal_feasible_threshold(
                    dev[relax], min_cells=config.min_cells
                )
                for j, t in enumerate(relax):
                    if np.isnan(relaxed[j]):  # pragma: no cover - guarded above
                        outcomes[group[t][0]] = ConfigurationError(
                            f"fewer than min_cells={config.min_cells} cells "
                            "have fully known deviations; no feasible shared "
                            "threshold exists"
                        )
                        live[t] = False
                        continue
                    fallback[t] = "relax"
                    thresholds[t] = relaxed[j]
                still = np.flatnonzero(empty & live)
                if still.size:
                    masks[still] = kernels.batch_proximity_masks(
                        dev[still], thresholds[still]
                    )
                    selected[still] = kernels.batch_eliminate(
                        masks[still], needed_arr[still]
                    )

        if not live.any():
            return

        # Weighting — computed for the whole group, consumed per live tag.
        w1 = kernels.batch_w1(
            dev,
            selected,
            mode=config.w1_mode,
            virtual_rssi=virtual if config.w1_mode == "paper-literal" else None,
        )
        w2 = (
            kernels.batch_w2(selected, connectivity=config.connectivity)
            if config.use_w2
            else None
        )
        # combine_weights refuses empty support; dead tags were already
        # routed to fallbacks above, so give them a harmless placeholder
        # delta at cell (0, 0) — in *both* factors, since an empty
        # selection also zeroes a dead tag's w2 and the placeholder must
        # survive the product. Their weights row is never consumed.
        safe_w1, safe_w2 = w1, w2
        if not live.all():
            safe_w1 = w1.copy()
            safe_w1[~live, 0, 0] = 1.0
            if w2 is not None:
                safe_w2 = w2.copy()
                safe_w2[~live, 0, 0] = 1.0
        weights = kernels.batch_combine_weights(safe_w1, safe_w2)
        xy = kernels.batch_positions(weights, est._positions)
        areas = kernels.batch_map_areas(masks)
        n_selected = selected.reshape(n_tags, -1).sum(axis=1)
        lattice_cells = est.virtual_grid.total_tags  # == rows * cols of selected

        for t in np.flatnonzero(live):
            idx, _, _, quorum_diag, _ = group[t]
            outcomes[idx] = EstimateResult(
                position=(float(xy[t, 0]), float(xy[t, 1])),
                estimator=est.name,
                diagnostics={
                    "threshold_db": float(thresholds[t]),
                    "threshold_mode": config.threshold_mode,
                    "n_selected": int(n_selected[t]),
                    "selected_fraction": int(n_selected[t]) / lattice_cells,
                    "map_areas": areas[t].tolist(),
                    "fallback": fallback[t],
                    "total_virtual_tags": lattice_cells,
                    **quorum_diag,
                },
            )


class BatchLandmarc:
    """Batched LANDMARC — the degradation ladder's bulk fallback.

    RSSI-space distances for all T readings are computed as one
    ``(T, K, n_refs)`` tensor pass (including the canonical sorted
    reduction that makes distances reader-permutation invariant and the
    coverage rescaling for masked readings); the tiny k-NN selection and
    weighting then reuse the scalar code per tag, so results are bitwise
    identical to :meth:`LandmarcEstimator.estimate`.
    """

    def __init__(self, estimator: LandmarcEstimator) -> None:
        self.estimator = estimator

    def estimate_batch(
        self, readings: Sequence[TrackingReading]
    ) -> list[EstimateResult]:
        return _raise_first(self.estimate_outcomes(readings))

    def estimate_outcomes(
        self, readings: Sequence[TrackingReading]
    ) -> list[Outcome]:
        readings = list(readings)
        outcomes: list[Outcome] = [None] * len(readings)  # type: ignore[list-item]
        est = self.estimator
        with current_tracer().span(
            "engine.landmarc", n_readings=len(readings)
        ) as root:
            # Group readings by (K, n_refs) so each group stacks into one
            # rectangular (T, K, n_refs) tensor.
            groups: dict[tuple[int, int], list[int]] = {}
            for idx, reading in enumerate(readings):
                shape = (reading.n_readers, reading.n_references)
                groups.setdefault(shape, []).append(idx)
            root.set("n_groups", len(groups))
            for (k, n_refs), members in groups.items():
                tracking = np.empty((len(members), k))
                references = np.empty((len(members), k, n_refs))
                for t, idx in enumerate(members):
                    tracking[t] = readings[idx].tracking_rssi
                    references[t] = readings[idx].reference_rssi
                distances = kernels.batch_landmarc_distances(
                    tracking, references
                )
                for t, idx in enumerate(members):
                    try:
                        outcomes[idx] = est._estimate_from_distances(
                            readings[idx], distances[t]
                        )
                    except ReproError as exc:
                        outcomes[idx] = exc
        return outcomes


def estimate_all(
    estimator, readings: Sequence[TrackingReading]
) -> list[EstimateResult]:
    """Localize ``readings`` with ``estimator``, batched when possible.

    Uses the estimator's own ``estimate_batch`` when it provides one
    (:class:`VIREEstimator`, :class:`LandmarcEstimator`), otherwise falls
    back to a scalar loop — wrappers like the boundary-aware estimator
    keep their exact semantics.
    """
    batch = getattr(estimator, "estimate_batch", None)
    if callable(batch):
        return batch(readings)
    return [estimator.estimate(r) for r in readings]
