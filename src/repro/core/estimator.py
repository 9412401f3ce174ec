"""The VIRE estimator: interpolate, eliminate, weight (paper §4).

:class:`VIREEstimator` is constructed with the real reference grid (it
must know the lattice structure behind the flat reference-tag list) and a
:class:`~repro.core.config.VIREConfig`; it then consumes the same
:class:`~repro.types.TrackingReading` snapshots as LANDMARC, so the two
are drop-in comparable in every experiment.
"""

from __future__ import annotations

import numpy as np

from ..baselines.landmarc import LandmarcEstimator
from ..exceptions import EstimationError, ReadingError
from ..geometry.grid import ReferenceGrid
from ..obs import current_tracer
from ..types import EstimateResult, TrackingReading
from .config import VIREConfig
from .elimination import eliminate
from .interpolation import fill_masked_lattice, make_interpolator
from .proximity import build_proximity_maps, rssi_deviations
from .quorum import QuorumDecision, QuorumPolicy
from .threshold import minimal_feasible_threshold
from .virtual_grid import VirtualGrid
from .weighting import combine_weights, compute_w1, compute_w2

__all__ = ["VIREEstimator"]


class VIREEstimator:
    """Virtual Reference Elimination.

    Parameters
    ----------
    grid:
        The real reference grid; ``reading.reference_positions`` must
        match ``grid.tag_positions()`` row-for-row (checked per estimate
        against the layout built once here).
    config:
        Algorithm parameters; defaults to the paper's operating point
        with n=10 subdivisions.

    Notes
    -----
    *Masked* readings (degraded deployments) go through ``quorum``, a
    default :class:`~repro.core.quorum.QuorumPolicy`: readers with too
    little reference coverage are excluded, and the estimate is refused
    (:class:`~repro.exceptions.EstimationError`) when too few readers
    survive. Strict (unmasked) readings never touch this path, so
    healthy behaviour is bit-identical to earlier versions.

    The per-estimate cost is O(K · N²) vectorized numpy work for N² total
    virtual tags (interpolation, deviation tensor, threshold, masks) plus
    one connected-component labelling — the paper's claimed O(N²)
    interpolation complexity with an honest accounting of the
    elimination.
    """

    name = "VIRE"

    def __init__(
        self,
        grid: ReferenceGrid,
        config: VIREConfig | None = None,
    ):
        self.grid = grid
        self.config = config or VIREConfig()
        self.quorum = QuorumPolicy()
        if self.config.target_total_tags is not None:
            self.virtual_grid = VirtualGrid.for_target_count(
                grid,
                self.config.target_total_tags,
                extension_cells=self.config.boundary_extension_cells,
            )
        else:
            self.virtual_grid = VirtualGrid(
                grid,
                self.config.subdivisions,
                extension_cells=self.config.boundary_extension_cells,
            )
        self._interpolator = make_interpolator(self.config.interpolation)
        self._positions = self.virtual_grid.positions()  # (V, 2)
        # The expected reference layout; the grid is frozen, so build it once.
        self._layout = grid.tag_positions()
        self._layout.flags.writeable = False
        self._fallback_landmarc = LandmarcEstimator()

    # -- pipeline pieces (exposed for tests/diagnostics) --------------------

    def _check_layout(self, reading: TrackingReading) -> None:
        expected = self._layout
        got = reading.reference_positions
        if got.shape != expected.shape or not np.allclose(
            got, expected, atol=1e-9
        ):
            raise ReadingError(
                "reading's reference positions do not match this estimator's "
                f"{self.grid.rows}x{self.grid.cols} grid layout"
            )

    def interpolate_reading(self, reading: TrackingReading) -> np.ndarray:
        """Per-reader virtual RSSI tensor ``(K, v_rows, v_cols)``.

        Masked readings get their NaN lattice holes imputed
        (:func:`~repro.core.interpolation.fill_masked_lattice`) before
        interpolation, so the interpolators only ever see finite
        lattices. Fully finite lattices pass through the fill untouched.
        """
        self._check_layout(reading)
        k = reading.n_readers
        out = np.empty((k, *self.virtual_grid.shape))
        for i in range(k):
            lattice = self.grid.lattice_from_flat(reading.reference_rssi[i])
            if reading.masked:
                lattice = fill_masked_lattice(lattice)
            out[i] = self._interpolator.interpolate(lattice, self.virtual_grid)
        return out

    def select_threshold(self, deviations: np.ndarray) -> float:
        """Threshold per the configured mode.

        Adaptive mode uses the minimal feasible threshold (the closed
        form of §4.3's reduction algorithm) plus the configured margin;
        see :class:`~repro.core.config.VIREConfig`.
        """
        if self.config.threshold_mode == "adaptive":
            return (
                minimal_feasible_threshold(
                    deviations, min_cells=self.config.min_cells
                )
                + self.config.threshold_margin_db
            )
        return self.config.fixed_threshold_db

    # -- the estimate --------------------------------------------------------

    def estimate(self, reading: TrackingReading) -> EstimateResult:
        tracer = current_tracer()
        with tracer.span(
            "vire.estimate",
            tag=reading.tag_id,
            masked=bool(reading.masked),
        ) as root:
            decision: QuorumDecision | None = None
            min_votes = self.config.min_votes
            if reading.masked:
                # Degraded input: enforce the quorum, trim to survivors.
                # Raises EstimationError when too few readers remain — the
                # service layer catches that and falls down its ladder.
                with tracer.span("vire.quorum") as qsp:
                    decision = self.quorum.apply(reading)
                    reading = decision.reading
                    qsp.set("readers", reading.n_readers)
                # A surviving subset may have fewer readers than an explicit
                # vote count; intersecting over all survivors is the honest
                # maximum evidence available. (None already means "all
                # readers" and adapts to the subset by itself.)
                if min_votes is not None:
                    min_votes = min(min_votes, reading.n_readers)
            quorum_diag = decision.diagnostics() if decision is not None else {}

            with tracer.span("vire.interpolate", readers=reading.n_readers):
                virtual = self.interpolate_reading(reading)
            with tracer.span(
                "vire.threshold", mode=self.config.threshold_mode
            ) as tsp:
                deviations = rssi_deviations(virtual, reading.tracking_rssi)
                threshold = self.select_threshold(deviations)
                tsp.set("threshold_db", float(threshold))
            with tracer.span("vire.eliminate") as esp:
                maps = build_proximity_maps(deviations, threshold)
                selected = eliminate(maps, min_votes=min_votes)

                fallback_used = None
                if not selected.any():
                    esp.set("empty_intersection", True)
                    if self.config.empty_fallback == "error":
                        raise EstimationError(
                            f"elimination left no candidate regions at "
                            f"threshold {threshold:.3f} dB"
                        )
                    if self.config.empty_fallback == "landmarc":
                        esp.set("fallback", "landmarc")
                        base = self._fallback_landmarc.estimate(reading)
                        root.update(fallback="landmarc", n_selected=0)
                        return EstimateResult(
                            position=base.position,
                            estimator=self.name,
                            diagnostics={
                                "fallback": "landmarc",
                                "threshold_db": threshold,
                                "n_selected": 0,
                                **quorum_diag,
                            },
                        )
                    # "relax": locally raise the threshold to the minimal
                    # feasible value for this reading (always non-empty by
                    # construction).
                    fallback_used = "relax"
                    esp.set("fallback", "relax")
                    threshold = minimal_feasible_threshold(
                        deviations, min_cells=self.config.min_cells
                    )
                    maps = build_proximity_maps(deviations, threshold)
                    selected = eliminate(maps, min_votes=min_votes)
                esp.set("n_selected", int(selected.sum()))

            with tracer.span(
                "vire.weighting", w1_mode=self.config.w1_mode,
                use_w2=self.config.use_w2,
            ):
                w1 = compute_w1(
                    deviations,
                    selected,
                    mode=self.config.w1_mode,
                    virtual_rssi=(
                        virtual if self.config.w1_mode == "paper-literal"
                        else None
                    ),
                )
                w2 = (
                    compute_w2(selected, connectivity=self.config.connectivity)
                    if self.config.use_w2
                    else None
                )
                weights = combine_weights(w1, w2)
                xy = weights.ravel() @ self._positions

            n_selected = int(selected.sum())
            root.update(
                threshold_db=float(threshold),
                n_selected=n_selected,
                fallback=fallback_used,
            )
            return EstimateResult(
                position=(float(xy[0]), float(xy[1])),
                estimator=self.name,
                diagnostics={
                    "threshold_db": float(threshold),
                    "threshold_mode": self.config.threshold_mode,
                    "n_selected": n_selected,
                    "selected_fraction": n_selected / selected.size,
                    "map_areas": [m.area for m in maps],
                    "fallback": fallback_used,
                    "total_virtual_tags": self.virtual_grid.total_tags,
                    **quorum_diag,
                },
            )

    # -- batched estimation ---------------------------------------------------

    @property
    def _engine(self):
        """Lazily constructed :class:`repro.engine.batch.BatchEngine`.

        Imported on first use: ``core`` must not import ``engine`` at
        module load (the engine sits above the algorithm layer).
        """
        engine = self.__dict__.get("_engine_instance")
        if engine is None:
            from ..engine.batch import BatchEngine

            engine = BatchEngine(self)
            self.__dict__["_engine_instance"] = engine
        return engine

    def estimate_batch(self, readings) -> list[EstimateResult]:
        """Localize a batch of readings with the vectorized engine.

        Bitwise identical to ``[self.estimate(r) for r in readings]``,
        including raising the first error a sequential loop would hit.
        Shared interpolation work (tags observed against the same
        reference lattices) is computed once for the whole batch — see
        :mod:`repro.engine` and ``docs/ENGINE.md``.
        """
        return self._engine.estimate_batch(readings)

    def estimate_outcomes(self, readings):
        """Per-reading results *or* errors (no raise) — the service form.

        See :meth:`repro.engine.batch.BatchEngine.estimate_outcomes`.
        """
        return self._engine.estimate_outcomes(readings)

    def selection_mask(self, reading: TrackingReading) -> np.ndarray:
        """The surviving-cell mask for one reading (for visualization)."""
        min_votes = self.config.min_votes
        if reading.masked:
            reading = self.quorum.apply(reading).reading
            if min_votes is not None:
                min_votes = min(min_votes, reading.n_readers)
        virtual = self.interpolate_reading(reading)
        deviations = rssi_deviations(virtual, reading.tracking_rssi)
        threshold = self.select_threshold(deviations)
        maps = build_proximity_maps(deviations, threshold)
        return eliminate(maps, min_votes=min_votes)

    def __repr__(self) -> str:
        return (
            f"VIREEstimator(n={self.virtual_grid.subdivisions}, "
            f"total_tags={self.virtual_grid.total_tags}, "
            f"interpolation={self.config.interpolation!r}, "
            f"threshold={self.config.threshold_mode!r})"
        )
