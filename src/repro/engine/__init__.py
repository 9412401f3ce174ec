"""Vectorized batch-estimation engine.

``repro.engine`` localizes many tracking tags at once with NumPy tensor
kernels while staying **bitwise identical** to the scalar
:meth:`~repro.core.estimator.VIREEstimator.estimate` loop — the identity
is the engine's contract, enforced by golden traces
(``tests/test_golden_traces.py``) and hypothesis property tests
(``tests/test_engine_properties.py``).

Layout:

* :mod:`~repro.engine.kernels` — the batched ``(T, K, v_rows, v_cols)``
  twins of the scalar core kernels;
* :mod:`~repro.engine.batch` — :class:`BatchEngine` (full VIRE
  pipeline), :class:`BatchLandmarc` (the ladder's bulk fallback) and
  :func:`estimate_all`;
* :mod:`~repro.engine.grouping` — groups a micro-batch's readings by
  reader layout so each group runs as one tensor pass.
"""

from .batch import BatchEngine, BatchLandmarc, Outcome, estimate_all

__all__ = [
    "BatchEngine",
    "BatchLandmarc",
    "Outcome",
    "estimate_all",
]
