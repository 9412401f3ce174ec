"""Low-level 2-D vector primitives.

Everything here is pure geometry with no RF semantics: segment-segment
intersection (used to count wall crossings on a propagation path) and
point reflection across a line (used by the image-method multipath model).

:func:`segment_intersection` is the one definition of the intersection
test. :func:`segments_intersect_many` is its array form for many paths
that share an end point (every tag's path to one reader): the general
case runs as one vectorised test with the same float64 operations in the
same order, and the rows whose answer depends on the rare cases
(point-like or parallel) are handed to the scalar test, so both forms
give the same boolean on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import GeometryError
from ..utils.arrays import as_point, as_points

__all__ = [
    "Segment",
    "segments_intersect",
    "segments_intersect_many",
    "segment_intersection",
    "reflect_point",
    "point_segment_distance",
]

_EPS = 1e-12

#: Below this length a segment is treated as a point for intersection
#: purposes. The :class:`Segment` constructor rejects lengths under
#: ``_EPS``, but lengths in ``[_EPS, _POINT_LIKE]`` are still so short
#: that direction-based (cross-product) classification is numerically
#: meaningless — containment tests are the robust answer there.
_POINT_LIKE = 1e-9


@dataclass(frozen=True)
class Segment:
    """A finite 2-D line segment from ``a`` to ``b`` (metres)."""

    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self) -> None:
        pa = as_point(self.a, "segment endpoint a")
        pb = as_point(self.b, "segment endpoint b")
        object.__setattr__(self, "a", (float(pa[0]), float(pa[1])))
        object.__setattr__(self, "b", (float(pb[0]), float(pb[1])))
        if self.length < _EPS:
            raise GeometryError(f"degenerate zero-length segment at {self.a}")

    @property
    def length(self) -> float:
        return float(np.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1]))

    @property
    def direction(self) -> np.ndarray:
        """Unit direction vector from ``a`` to ``b``."""
        d = np.array([self.b[0] - self.a[0], self.b[1] - self.a[1]])
        return d / np.linalg.norm(d)

    @property
    def normal(self) -> np.ndarray:
        """Unit normal (left of the direction vector)."""
        d = self.direction
        return np.array([-d[1], d[0]])


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Return True if the two closed segments share at least one point."""
    return segment_intersection(s1, s2) is not None


def segment_intersection(s1: Segment, s2: Segment) -> tuple[float, float] | None:
    """Return the intersection point of two segments, or None.

    For collinear overlapping segments the midpoint of the overlap is
    returned. Endpoint touching counts as intersection.

    The classification thresholds are *scale-aware* and evaluated
    symmetrically in the two segments, so
    ``segments_intersect(a, b) == segments_intersect(b, a)`` holds even
    for near-degenerate (barely-above-``_EPS``-length) segments — a
    hypothesis-found counterexample used to flip the answer when one
    segment was ~1e-11 long, because the parallel/collinear tests were
    measured against the *first* segment's direction only.
    """
    p = np.asarray(s1.a)
    r = np.asarray(s1.b) - p
    q = np.asarray(s2.a)
    s = np.asarray(s2.b) - q
    len_r = float(np.hypot(r[0], r[1]))
    len_s = float(np.hypot(s[0], s[1]))

    # Near-degenerate segments (constructible above the _EPS floor but
    # geometrically point-like): closed-set point-containment tests,
    # symmetric by construction.
    if len_r <= _POINT_LIKE or len_s <= _POINT_LIKE:
        if len_r <= _POINT_LIKE and len_s <= _POINT_LIKE:
            pm = p + 0.5 * r
            qm = q + 0.5 * s
            if float(np.hypot(pm[0] - qm[0], pm[1] - qm[1])) <= _POINT_LIKE:
                return (float(pm[0]), float(pm[1]))
            return None
        if len_r <= _POINT_LIKE:
            pm = p + 0.5 * r
            if point_segment_distance((pm[0], pm[1]), s2) <= _POINT_LIKE:
                return (float(pm[0]), float(pm[1]))
            return None
        qm = q + 0.5 * s
        if point_segment_distance((qm[0], qm[1]), s1) <= _POINT_LIKE:
            return (float(qm[0]), float(qm[1]))
        return None

    rxs = float(r[0] * s[1] - r[1] * s[0])
    qp = q - p
    qpxr = float(qp[0] * r[1] - qp[1] * r[0])

    if abs(rxs) <= _EPS * len_r * len_s:  # parallel (scale-invariant test)
        # Perpendicular offset between the two parallel support lines,
        # measured from both sides so the test is order-symmetric.
        pq = -qp
        qpxs = float(pq[0] * s[1] - pq[1] * s[0])
        offset = max(abs(qpxr) / len_r, abs(qpxs) / len_s)
        if offset > _EPS:
            return None  # parallel, non-collinear
        # Collinear: project onto r and look for parameter overlap.
        rr = float(r @ r)
        t0 = float(qp @ r) / rr
        t1 = t0 + float(s @ r) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if lo > hi + _EPS:
            return None
        tm = (lo + hi) / 2.0
        pt = p + tm * r
        return (float(pt[0]), float(pt[1]))

    t = float(qp[0] * s[1] - qp[1] * s[0]) / rxs
    u = qpxr / rxs
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        pt = p + t * r
        return (float(pt[0]), float(pt[1]))
    return None


def segments_intersect_many(
    starts: np.ndarray, end: Sequence[float], wall: Segment
) -> np.ndarray:
    """Per row ``i``: ``segments_intersect(Segment(starts[i], end), wall)``.

    ``starts`` has shape ``(n, 2)``; returns an ``(n,)`` boolean array.
    The general case (both segments longer than ``_POINT_LIKE``, not
    parallel) is decided here with :func:`segment_intersection`'s
    operations in its order: ``hypot`` lengths, ``rxs``, ``qpxr`` and
    the ``t``/``u`` window with ``_EPS``. Point-like or parallel rows go
    through :func:`segment_intersection` itself, which stays the single
    definition of those cases; a zero-length path raises the
    :class:`Segment` constructor's ``GeometryError`` there.
    """
    p = as_points(starts, "path starts")
    e = as_point(end, "path end")
    r = e[np.newaxis, :] - p
    q = np.asarray(wall.a)
    s = np.asarray(wall.b) - q
    len_r = np.hypot(r[:, 0], r[:, 1])
    len_s = float(np.hypot(s[0], s[1]))

    rxs = r[:, 0] * s[1] - r[:, 1] * s[0]
    qp = q[np.newaxis, :] - p
    qpxr = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp[:, 0] * s[1] - qp[:, 1] * s[0]) / rxs
        u = qpxr / rxs
    hit = (
        (-_EPS <= t) & (t <= 1.0 + _EPS) & (-_EPS <= u) & (u <= 1.0 + _EPS)
    )

    exact = (
        (len_s <= _POINT_LIKE)
        | (len_r <= _POINT_LIKE)
        | (np.abs(rxs) <= _EPS * len_r * len_s)
    )
    end_pt = (float(e[0]), float(e[1]))
    for i in np.flatnonzero(exact):
        path = Segment((float(p[i, 0]), float(p[i, 1])), end_pt)
        hit[i] = segments_intersect(path, wall)
    return hit


def reflect_point(point: Sequence[float], line: Segment) -> tuple[float, float]:
    """Mirror a point across the infinite line through ``line``.

    This is the core operation of the image method: the first-order
    reflected propagation path from T to R off a wall W has the same
    length as the straight path from the *image* of T (mirrored across W)
    to R.
    """
    p = as_point(point, "point")
    a = np.asarray(line.a)
    d = line.direction
    ap = p - a
    proj = a + d * float(ap @ d)
    mirrored = 2.0 * proj - p
    return (float(mirrored[0]), float(mirrored[1]))


def point_segment_distance(point: Sequence[float], seg: Segment) -> float:
    """Distance from a point to the nearest point of a finite segment."""
    p = as_point(point, "point")
    a = np.asarray(seg.a)
    b = np.asarray(seg.b)
    ab = b - a
    t = float((p - a) @ ab) / float(ab @ ab)
    t = min(1.0, max(0.0, t))
    closest = a + t * ab
    return float(np.hypot(*(p - closest)))
