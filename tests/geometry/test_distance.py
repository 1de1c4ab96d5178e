"""Unit and property tests for polygon distances and separation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    contains_point,
    convex_hull,
    edges,
    linearly_separable,
    point_polygon_distance,
    point_segment_distance,
    polygon_distance,
    segments_intersect,
    separating_line,
)
from repro.geometry.vec import dist, dot, perp, sub

coords = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
).map(lambda x: round(x, 2))
points = st.tuples(coords, coords)
point_lists = st.lists(points, min_size=3, max_size=15)


class TestPointPolygonDistance:
    def test_inside_zero(self, unit_square):
        assert point_polygon_distance(unit_square, (0.5, 0.5)) == 0.0

    def test_on_boundary_zero(self, unit_square):
        assert point_polygon_distance(unit_square, (1.0, 0.5)) == pytest.approx(0.0)

    def test_outside_edge(self, unit_square):
        assert point_polygon_distance(unit_square, (2.0, 0.5)) == pytest.approx(1.0)

    def test_outside_corner(self, unit_square):
        assert point_polygon_distance(unit_square, (2.0, 2.0)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_single_point_polygon(self):
        assert point_polygon_distance([(1.0, 1.0)], (4.0, 5.0)) == pytest.approx(5.0)

    def test_segment_polygon(self):
        assert point_polygon_distance(
            [(0.0, 0.0), (2.0, 0.0)], (1.0, 3.0)
        ) == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            point_polygon_distance([], (0.0, 0.0))

    @settings(max_examples=60)
    @given(point_lists, points)
    def test_matches_bruteforce_vertices(self, pts, q):
        poly = convex_hull(pts)
        if len(poly) < 3:
            return
        d = point_polygon_distance(poly, q)
        assert d <= min(dist(q, v) for v in poly) + 1e-9


class TestPolygonDistance:
    def test_disjoint_squares(self, unit_square):
        other = [(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)]
        d, (a, b) = polygon_distance(unit_square, other)
        assert d == pytest.approx(2.0)
        assert a[0] == pytest.approx(1.0)
        assert b[0] == pytest.approx(3.0)

    def test_overlapping_zero(self, unit_square):
        other = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        d, (a, b) = polygon_distance(unit_square, other)
        assert d == 0.0
        assert a == b

    def test_diagonal_gap(self, unit_square):
        other = [(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)]
        d, _ = polygon_distance(unit_square, other)
        assert d == pytest.approx(math.sqrt(2.0))

    def test_vertex_to_edge_case(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]
        seg_like = [(0.0, 3.0), (1.0, 3.0), (0.5, 2.0)]
        d, _ = polygon_distance(tri, seg_like)
        assert d == pytest.approx(1.0)

    def test_symmetry(self, unit_square):
        other = [(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)]
        d1, _ = polygon_distance(unit_square, other)
        d2, _ = polygon_distance(other, unit_square)
        assert d1 == pytest.approx(d2)

    def test_empty_raises(self, unit_square):
        with pytest.raises(ValueError):
            polygon_distance([], unit_square)

    @settings(max_examples=40)
    @given(point_lists, point_lists)
    def test_witness_pair_realises_distance(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        d, (a, b) = polygon_distance(p, q)
        assert dist(a, b) == pytest.approx(d, abs=1e-9)

    @settings(max_examples=40)
    @given(point_lists, point_lists)
    def test_lower_bounds_vertex_pairs(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        d, _ = polygon_distance(p, q)
        brute = min(dist(a, b) for a in p for b in q)
        assert d <= brute + 1e-9


def _oracle_distance(p, q):
    """Brute-force distance between convex polygons ``p`` and ``q``.

    Zero when they overlap: a vertex of one lies inside the other, or
    two edges cross.  Otherwise the closest pair is realised between a
    vertex and an edge, so it is the minimum over every vertex-to-edge
    distance in both directions.
    """
    if any(contains_point(q, v) for v in p) or any(
        contains_point(p, v) for v in q
    ):
        return 0.0
    if any(
        segments_intersect(a, b, c, d) for a, b in edges(p) for c, d in edges(q)
    ):
        return 0.0
    return min(
        min(point_segment_distance(v, a, b) for v in p for a, b in edges(q)),
        min(point_segment_distance(v, a, b) for v in q for a, b in edges(p)),
    )


class TestBruteForceOracle:
    """``polygon_distance`` and ``linearly_separable`` against an
    independent O(n * m) scan over vertices and edges."""

    @settings(max_examples=60, deadline=None)
    @given(point_lists, point_lists)
    def test_distance_matches_oracle(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        want = _oracle_distance(p, q)
        assert polygon_distance(p, q)[0] == pytest.approx(want, rel=1e-6, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(point_lists, point_lists)
    def test_separability_matches_oracle(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        want = _oracle_distance(p, q)
        # Separable <=> a positive gap; touching boundaries within
        # tolerance may go either way, so only the clear cases count.
        if want > 1e-6:
            assert linearly_separable(p, q)
        if not linearly_separable(p, q):
            assert want <= 1e-6


class TestSeparation:
    def test_separable_disjoint(self, unit_square):
        other = [(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)]
        assert linearly_separable(unit_square, other)

    def test_not_separable_overlapping(self, unit_square):
        other = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert not linearly_separable(unit_square, other)

    def test_empty_is_separable(self, unit_square):
        assert linearly_separable([], unit_square)

    def test_separating_line_none_when_overlap(self, unit_square):
        other = [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
        assert separating_line(unit_square, other) is None

    def test_separating_line_certificate(self, unit_square):
        other = [(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)]
        cert = separating_line(unit_square, other)
        assert cert is not None
        point, direction = cert
        normal = perp(direction)
        c = dot(normal, point)
        side_p = {dot(normal, v) - c > 0 for v in unit_square}
        side_q = {dot(normal, v) - c > 0 for v in other}
        assert side_p == {False} or side_p == {True}
        assert side_q != side_p

    @settings(max_examples=40)
    @given(point_lists, point_lists)
    def test_certificate_strictly_separates(self, pts1, pts2):
        p = convex_hull(pts1)
        q = convex_hull(pts2)
        if len(p) < 3 or len(q) < 3:
            return
        cert = separating_line(p, q)
        if cert is None:
            return
        point, direction = cert
        normal = perp(direction)
        c = dot(normal, point)
        vals_p = [dot(normal, v) - c for v in p]
        vals_q = [dot(normal, v) - c for v in q]
        assert max(vals_p) < 1e-9 or min(vals_p) > -1e-9
        # Whichever side p is on, q is on the other.
        if max(vals_p) < 1e-9:
            assert min(vals_q) > -1e-9
        else:
            assert max(vals_q) < 1e-9
