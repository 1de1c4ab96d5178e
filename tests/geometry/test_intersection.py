"""Unit and property tests for convex polygon intersection."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    area,
    clip_halfplane,
    contains_point,
    convex_hull,
    intersect_convex,
    is_convex_ccw,
    overlap_area,
)

coords = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
).map(lambda x: round(x, 2))
points = st.tuples(coords, coords)
point_lists = st.lists(points, min_size=3, max_size=15)


class TestClipHalfplane:
    def test_no_clip_when_fully_inside(self, unit_square):
        out = clip_halfplane(unit_square, (0.0, -5.0), (1.0, -5.0))
        assert set(out) == set(unit_square)

    def test_full_clip_when_fully_outside(self, unit_square):
        # Keep the left of the +x line at y = 5, i.e. the y > 5 region.
        out = clip_halfplane(unit_square, (0.0, 5.0), (1.0, 5.0))
        assert out == []

    def test_half_clip(self, unit_square):
        # Keep the left of the upward line x = 0.5.
        out = clip_halfplane(unit_square, (0.5, 0.0), (0.5, 1.0))
        assert area(out) == pytest.approx(0.5)

    def test_clip_through_vertices(self, unit_square):
        out = clip_halfplane(unit_square, (0.0, 0.0), (1.0, 1.0))
        assert area(out) == pytest.approx(0.5)

    def test_empty_input(self):
        assert clip_halfplane([], (0.0, 0.0), (1.0, 0.0)) == []


class TestIntersectConvex:
    def test_identical_squares(self, unit_square):
        inter = intersect_convex(unit_square, unit_square)
        assert abs(area(inter)) == pytest.approx(1.0)

    def test_offset_squares(self, unit_square):
        other = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        inter = intersect_convex(unit_square, other)
        assert abs(area(inter)) == pytest.approx(0.25)

    def test_disjoint(self, unit_square):
        other = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        assert intersect_convex(unit_square, other) == []

    def test_nested(self, unit_square):
        inner = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        inter = intersect_convex(unit_square, inner)
        assert abs(area(inter)) == pytest.approx(0.25)

    def test_point_inside_polygon(self, unit_square):
        assert intersect_convex([(0.5, 0.5)], unit_square) == [(0.5, 0.5)]

    def test_point_outside_polygon(self, unit_square):
        assert intersect_convex([(5.0, 5.0)], unit_square) == []

    def test_segment_crossing_polygon(self, unit_square):
        inter = intersect_convex([(-1.0, 0.5), (2.0, 0.5)], unit_square)
        xs = sorted(p[0] for p in inter)
        assert xs[0] == pytest.approx(0.0)
        assert xs[-1] == pytest.approx(1.0)

    def test_empty_inputs(self, unit_square):
        assert intersect_convex([], unit_square) == []
        assert intersect_convex(unit_square, []) == []

    def test_triangle_square_overlap(self, unit_square, triangle):
        inter = intersect_convex(unit_square, triangle)
        # The 3-4-5 triangle covers most of the unit square except the
        # corner above the hypotenuse (x/4 + y/3 >= 1).
        assert 0.9 < abs(area(inter)) <= 1.0

    @settings(max_examples=60)
    @given(point_lists, point_lists)
    def test_commutative_area(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        assert overlap_area(p, q) == pytest.approx(
            overlap_area(q, p), rel=1e-6, abs=1e-9
        )

    @settings(max_examples=60)
    @given(point_lists, point_lists)
    # A crossing that lands a rounding error past the next clip line
    # once extended a nearly collinear segment far outside both.
    @example(
        [(19.0, 17.12), (9.5, 0.0), (-2.0, 0.0)],
        [(19.0, 17.12), (-1.0, -18.0), (-2.0, 0.0)],
    )
    def test_intersection_inside_both(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        inter = intersect_convex(p, q)
        # Clip vertices come from line-line intersections; when two
        # edges cross at a shallow angle the rounding error scales like
        # eps / sin(angle), so an absolute 1e-6 is unachievable for
        # adversarial near-collinear inputs.  Tolerate a small multiple
        # of the coordinate scale, hard-capped at 2e-3 (the strategy
        # bounds coords to +-20) so genuine clipping errors can never
        # hide behind a larger-scale tolerance.
        scale = max(
            (abs(c) for v in (p + q) for c in v), default=1.0
        )
        tol = min(1e-9 + 1e-4 * scale, 2e-3)
        for v in inter:
            assert contains_point(p, v, tol=tol)
            assert contains_point(q, v, tol=tol)

    @settings(max_examples=60)
    @given(point_lists, point_lists)
    def test_area_bounded_by_each(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        inter = overlap_area(p, q)
        assert inter <= abs(area(p)) + 1e-6
        assert inter <= abs(area(q)) + 1e-6

    @settings(max_examples=40)
    @given(point_lists)
    def test_self_intersection_is_identity(self, pts):
        p = convex_hull(pts)
        if len(p) < 3:
            return
        assert overlap_area(p, p) == pytest.approx(abs(area(p)), rel=1e-6)


class TestOverlapArea:
    def test_disjoint_zero(self, unit_square):
        other = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        assert overlap_area(unit_square, other) == 0.0

    def test_touching_edge_zero(self, unit_square):
        other = [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]
        assert overlap_area(unit_square, other) == pytest.approx(0.0, abs=1e-9)

    def test_known_quarter(self, unit_square):
        other = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert overlap_area(unit_square, other) == pytest.approx(0.25)
