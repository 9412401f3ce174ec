"""Error metrics and summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["ErrorSummary", "summarize_errors", "reduction_percent"]


@dataclass(frozen=True)
class ErrorSummary:
    """Distribution summary of estimation errors (metres)."""

    mean: float
    median: float
    p90: float
    maximum: float
    n: int


def summarize_errors(errors: Sequence[float]) -> ErrorSummary:
    """Summarize a sample of estimation errors."""
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot summarize an empty error sample")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ConfigurationError("errors must be finite and non-negative")
    return ErrorSummary(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        p90=float(np.percentile(arr, 90)),
        maximum=float(arr.max()),
        n=int(arr.size),
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Error reduction of ``improved`` over ``baseline`` in percent.

    The paper's headline metric: "reduces the estimation error from 17%
    to 73% over LANDMARC". Positive means ``improved`` is better.
    """
    if baseline <= 0:
        raise ConfigurationError(
            f"baseline error must be positive, got {baseline}"
        )
    if improved < 0:
        raise ConfigurationError(f"improved error must be >= 0, got {improved}")
    return 100.0 * (1.0 - improved / baseline)
