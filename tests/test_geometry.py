"""Tests for repro.geometry: vectors, rooms, grids, placements."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import GeometryError
from repro.geometry import (
    BOUNDARY_TAGS,
    NON_BOUNDARY_TAGS,
    ReferenceGrid,
    Room,
    Segment,
    Wall,
    corner_reader_positions,
    figure2a_tracking_tags,
    paper_testbed_grid,
    rectangular_room,
    reflect_point,
    segment_intersection,
    segments_intersect,
)
from repro.geometry.vector import point_segment_distance

coord = st.floats(-50, 50, allow_nan=False)


class TestSegment:
    def test_length(self):
        assert Segment((0, 0), (3, 4)).length == pytest.approx(5.0)

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError, match="degenerate"):
            Segment((1, 1), (1, 1))

    def test_normal_perpendicular(self):
        s = Segment((0, 0), (1, 0))
        assert float(s.normal @ s.direction) == pytest.approx(0.0)


class TestIntersection:
    def test_crossing_segments(self):
        s1 = Segment((0, 0), (2, 2))
        s2 = Segment((0, 2), (2, 0))
        assert segment_intersection(s1, s2) == pytest.approx((1.0, 1.0))

    def test_parallel_non_intersecting(self):
        s1 = Segment((0, 0), (1, 0))
        s2 = Segment((0, 1), (1, 1))
        assert segment_intersection(s1, s2) is None

    def test_collinear_overlap_returns_midpoint(self):
        s1 = Segment((0, 0), (4, 0))
        s2 = Segment((2, 0), (6, 0))
        pt = segment_intersection(s1, s2)
        assert pt == pytest.approx((3.0, 0.0))

    def test_collinear_disjoint(self):
        s1 = Segment((0, 0), (1, 0))
        s2 = Segment((2, 0), (3, 0))
        assert segment_intersection(s1, s2) is None

    def test_endpoint_touch_counts(self):
        s1 = Segment((0, 0), (1, 1))
        s2 = Segment((1, 1), (2, 0))
        assert segments_intersect(s1, s2)

    def test_near_miss(self):
        s1 = Segment((0, 0), (1, 0))
        s2 = Segment((0.5, 0.01), (0.5, 1))
        assert not segments_intersect(s1, s2)

    def test_symmetry_near_degenerate_regression(self):
        """Hypothesis-found counterexample: a ~1e-11-long segment used to
        make ``segments_intersect`` asymmetric (the parallel/collinear
        classification was measured against the first segment only)."""
        tiny = Segment((8.407316335369382e-12, 0.0), (0.0, 0.0))
        other = Segment((1.0, 0.0), (0.0, 0.0625))
        assert segments_intersect(tiny, other) == segments_intersect(other, tiny)
        assert not segments_intersect(tiny, other)

    def test_point_like_segment_on_segment_intersects(self):
        tiny = Segment((0.5, 1e-11), (0.5, 0.0))
        base = Segment((0.0, 0.0), (1.0, 0.0))
        assert segments_intersect(tiny, base)
        assert segments_intersect(base, tiny)

    @given(coord, coord, coord, coord, coord, coord, coord, coord)
    def test_symmetry(self, ax, ay, bx, by, cx, cy, dx, dy):
        try:
            s1 = Segment((ax, ay), (bx, by))
            s2 = Segment((cx, cy), (dx, dy))
        except GeometryError:
            return
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)


class TestReflection:
    def test_reflect_across_x_axis(self):
        line = Segment((0, 0), (1, 0))
        assert reflect_point((2.0, 3.0), line) == pytest.approx((2.0, -3.0))

    def test_reflect_point_on_line_fixed(self):
        line = Segment((0, 0), (1, 1))
        assert reflect_point((0.5, 0.5), line) == pytest.approx((0.5, 0.5))

    @given(coord, coord)
    def test_involution(self, px, py):
        line = Segment((0.0, -1.0), (2.0, 5.0))
        once = reflect_point((px, py), line)
        twice = reflect_point(once, line)
        assert twice == pytest.approx((px, py), abs=1e-8)

    def test_distance_preserved_to_line_points(self):
        line = Segment((0, 0), (3, 1))
        p = (1.0, 2.0)
        img = reflect_point(p, line)
        for t in (0.0, 0.5, 1.0):
            on_line = (3 * t, t)
            d1 = np.hypot(p[0] - on_line[0], p[1] - on_line[1])
            d2 = np.hypot(img[0] - on_line[0], img[1] - on_line[1])
            assert d1 == pytest.approx(d2)


class TestPointSegmentDistance:
    def test_interior_projection(self):
        seg = Segment((0, 0), (2, 0))
        assert point_segment_distance((1, 1), seg) == pytest.approx(1.0)

    def test_clamps_to_endpoint(self):
        seg = Segment((0, 0), (1, 0))
        assert point_segment_distance((3, 0), seg) == pytest.approx(2.0)


class TestRoom:
    def test_rectangular_room_has_four_walls(self):
        room = rectangular_room(5, 4)
        assert len(room.walls) == 4
        assert room.width == 5
        assert room.height == 4

    def test_open_sides_not_reflective(self):
        room = rectangular_room(5, 4, open_sides=("top",))
        top = [w for w in room.walls if w.name == "top"][0]
        assert top.reflectivity == 0.0
        assert top.attenuation_db == 0.0
        assert len(room.reflective_walls) == 3

    def test_unknown_open_side_rejected(self):
        with pytest.raises(GeometryError, match="unknown open_sides"):
            rectangular_room(5, 4, open_sides=("north",))

    def test_contains(self):
        room = rectangular_room(5, 4, origin=(-1, -1))
        assert room.contains((0, 0))
        assert not room.contains((5, 0))
        assert room.contains((4.5, 0), pad=1.0)

    def test_crossing_attenuation_counts_walls(self):
        room = rectangular_room(4, 4, attenuation_db=7.0)
        starts = [(1, 1), (6, 1), (6, 6)]
        # Fully inside: crosses nothing. Entering through one wall: 7 dB.
        # Through the (4, 4) corner: both walls that meet there count.
        loss = room.crossing_attenuation_db(starts, (3, 3))
        assert loss.tolist() == [0.0, 7.0, 14.0]

    def test_with_walls_appends(self):
        room = rectangular_room(4, 4)
        extra = Wall(Segment((1, 1), (2, 1)), attenuation_db=3.0)
        bigger = room.with_walls([extra])
        assert len(bigger.walls) == 5
        assert len(room.walls) == 4  # original untouched

    def test_wall_outside_bounds_rejected(self):
        with pytest.raises(GeometryError, match="outside room bounds"):
            Room(bounds=(0, 0, 2, 2), walls=(Wall(Segment((0, 0), (5, 0))),))

    def test_wall_validation(self):
        with pytest.raises(Exception):
            Wall(Segment((0, 0), (1, 0)), reflectivity=1.5)

    def test_empty_bounds_rejected(self):
        with pytest.raises(GeometryError, match="empty room bounds"):
            Room(bounds=(0, 0, 0, 2))


class TestReferenceGrid:
    def test_paper_grid_dimensions(self, grid):
        assert grid.n_tags == 16
        assert grid.bounds == (0.0, 0.0, 3.0, 3.0)

    def test_tag_positions_row_major(self, grid):
        pos = grid.tag_positions()
        assert pos.shape == (16, 2)
        np.testing.assert_array_equal(pos[0], [0.0, 0.0])
        np.testing.assert_array_equal(pos[1], [1.0, 0.0])  # col varies first
        np.testing.assert_array_equal(pos[4], [0.0, 1.0])

    def test_lattice_from_flat_roundtrip(self, grid):
        flat = np.arange(16.0)
        lattice = grid.lattice_from_flat(flat)
        assert lattice.shape == (4, 4)
        assert lattice[1, 2] == flat[1 * grid.cols + 2]

    def test_lattice_from_flat_rejects_wrong_size(self, grid):
        with pytest.raises(GeometryError):
            grid.lattice_from_flat(np.zeros(15))

    def test_rectangular_grid_supported(self):
        g = ReferenceGrid(rows=3, cols=5, spacing_x=0.5, spacing_y=2.0)
        assert g.width == 2.0
        assert g.height == 4.0
        assert g.n_tags == 15

    def test_minimum_grid_size_enforced(self):
        with pytest.raises(Exception):
            ReferenceGrid(rows=1, cols=4)

    def test_scaled_preserves_counts(self, grid):
        s = grid.scaled(2.0)
        assert s.n_tags == grid.n_tags
        assert s.spacing_x == 2.0

    @given(st.integers(2, 6), st.integers(2, 6))
    def test_positions_count_matches(self, rows, cols):
        g = ReferenceGrid(rows=rows, cols=cols)
        assert g.tag_positions().shape == (rows * cols, 2)


class TestPlacement:
    def test_corner_readers_outside_grid(self, grid):
        readers = corner_reader_positions(grid, margin=1.0)
        assert readers.shape == (4, 2)
        np.testing.assert_array_equal(readers[0], [-1.0, -1.0])
        np.testing.assert_array_equal(readers[3], [4.0, 4.0])

    def test_negative_margin_rejected(self, grid):
        with pytest.raises(GeometryError):
            corner_reader_positions(grid, margin=-0.5)

    def test_nine_tracking_tags(self, grid):
        tags = figure2a_tracking_tags(grid)
        assert set(tags) == set(range(1, 10))

    def test_interior_tags_inside_grid(self, grid):
        tags = figure2a_tracking_tags(grid)
        area = Room(grid.bounds)
        for label in NON_BOUNDARY_TAGS:
            assert area.contains(tags[label]), label

    def test_tag9_outside_grid(self, grid):
        tags = figure2a_tracking_tags(grid)
        area = Room(grid.bounds)
        assert not area.contains(tags[9])
        assert area.contains(tags[9], pad=0.5)

    def test_boundary_partition_complete(self):
        assert set(NON_BOUNDARY_TAGS) | set(BOUNDARY_TAGS) == set(range(1, 10))
        assert not set(NON_BOUNDARY_TAGS) & set(BOUNDARY_TAGS)

    def test_placements_scale_with_grid(self):
        big = ReferenceGrid(rows=4, cols=4, spacing_x=2.0, spacing_y=2.0)
        tags_small = figure2a_tracking_tags(paper_testbed_grid())
        tags_big = figure2a_tracking_tags(big)
        for label in tags_small:
            np.testing.assert_allclose(
                np.asarray(tags_big[label]) / 2.0, tags_small[label]
            )
