"""End-to-end integration tests across the whole library.

These exercise the workflows a downstream user would run: the public
package API, the sensor-monitoring scenario from the paper's
introduction, multi-stream tracking with mixed summary schemes, and the
failure-injection cases (degenerate streams that historically break
geometric code).
"""

import math

import pytest

import repro
from repro import (
    AdaptiveHull,
    ContainmentTracker,
    ExactHull,
    FixedSizeAdaptiveHull,
    SeparationTracker,
    UniformHull,
    diameter,
)
from repro.experiments.metrics import hull_distance
from repro.geometry import convex_hull
from repro.geometry.distance import point_polygon_distance
from repro.streams import (
    as_tuples,
    changing_ellipse_stream,
    disk_stream,
    ellipse_stream,
    gaussian_stream,
    interleave,
    translate,
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet(self):
        hull = AdaptiveHull(r=32)
        for p in as_tuples(disk_stream(1000, seed=1)):
            hull.insert(p)
        polygon = hull.hull()
        assert 3 <= len(polygon) <= 2 * 32 + 1
        assert diameter(hull) > 0


class TestSensorScenario:
    """The paper's motivating example: report the smallest convex region
    in which a chemical leak has been sensed, with bounded memory."""

    def test_leak_region_tracking(self):
        summary = AdaptiveHull(r=16)
        readings = as_tuples(gaussian_stream(5000, 2.0, 0.8, seed=2))
        kept = []
        for p in readings:
            kept.append(p)
            summary.insert(p)
        region = summary.hull()
        true_region = convex_hull(kept)
        # Bounded memory...
        assert summary.sample_size <= 33
        # ...but a faithful region: every sensed point is within the
        # guaranteed distance of the reported region.
        bound = 16 * math.pi * summary.perimeter / (16 * 16)
        assert all(
            point_polygon_distance(region, p) <= bound + 1e-9 for p in kept
        )
        assert hull_distance(true_region, region) <= bound + 1e-9


class TestTwoStreamScenarios:
    def test_separation_then_collision(self):
        tracker = SeparationTracker(lambda: AdaptiveHull(16))
        a = translate(disk_stream(2000, seed=3), -3.0, 0.0)
        b = translate(disk_stream(2000, seed=4), 3.0, 0.0)
        for pa, pb in zip(as_tuples(a), as_tuples(b)):
            tracker.insert("A", pa)
            tracker.insert("B", pb)
        assert tracker.separable("A", "B")
        d0 = tracker.distance("A", "B")
        # Stream B drifts into A.
        for p in as_tuples(translate(disk_stream(2000, seed=5), -2.5, 0.0)):
            tracker.insert("B", p)
        assert not tracker.separable("A", "B")
        assert tracker.distance("A", "B") < d0

    def test_mixed_schemes_in_one_tracker(self):
        """Trackers accept any summary; mix exact and adaptive."""
        schemes = iter([ExactHull(), AdaptiveHull(16)])
        tracker = ContainmentTracker(lambda: next(schemes))
        for p in as_tuples(disk_stream(800, seed=6)):
            tracker.insert("inner", (p[0] * 0.3, p[1] * 0.3))
        for p in as_tuples(disk_stream(800, seed=7)):
            tracker.insert("outer", (p[0] * 3.0, p[1] * 3.0))
        assert tracker.contained("inner", "outer")

    def test_interleaved_streams(self):
        a = translate(disk_stream(1000, seed=8), -5.0, 0.0)
        b = translate(disk_stream(1000, seed=9), 5.0, 0.0)
        merged = interleave(a, b)
        tracker = SeparationTracker(lambda: AdaptiveHull(16))
        for i, p in enumerate(as_tuples(merged)):
            tracker.insert("A" if i % 2 == 0 else "B", p)
        assert tracker.distance("A", "B") > 7.0


class TestSchemesAgree:
    """All bounded summaries approximate the same exact hull."""

    def test_on_shared_stream(self):
        pts = list(as_tuples(ellipse_stream(4000, rotation=0.2, seed=10)))
        exact = ExactHull()
        schemes = [AdaptiveHull(32), FixedSizeAdaptiveHull(32), UniformHull(64)]
        for p in pts:
            exact.insert(p)
            for s in schemes:
                s.insert(p)
        true_d = diameter(exact)
        for s in schemes:
            assert diameter(s) <= true_d + 1e-9
            assert diameter(s) >= true_d * 0.995, type(s).__name__


class TestFailureInjection:
    """Degenerate streams that historically break geometric code."""

    def test_all_points_identical(self):
        h = AdaptiveHull(16)
        for _ in range(100):
            h.insert((3.0, 4.0))
        assert h.hull() == [(3.0, 4.0)]
        assert h.perimeter == 0.0
        h.check_invariants()

    def test_collinear_stream(self):
        h = AdaptiveHull(16)
        for i in range(100):
            h.insert((float(i % 17), float(i % 17)))
        hull = h.hull()
        assert len(hull) == 2
        assert set(hull) == {(0.0, 0.0), (16.0, 16.0)}
        h.check_invariants()

    def test_axis_collinear_then_2d(self):
        h = AdaptiveHull(16)
        for i in range(50):
            h.insert((float(i), 0.0))
        h.insert((25.0, 30.0))  # stream becomes genuinely 2-D
        assert len(h.hull()) == 3
        h.check_invariants()

    def test_huge_coordinates(self):
        h = AdaptiveHull(16)
        for p in as_tuples(disk_stream(500, radius=1e9, seed=11)):
            h.insert(p)
        h.check_invariants()
        assert diameter(h) > 1e9

    def test_tiny_coordinates(self):
        h = AdaptiveHull(16)
        for p in as_tuples(disk_stream(500, radius=1e-9, seed=12)):
            h.insert(p)
        h.check_invariants()
        assert 0 < diameter(h) < 3e-9

    def test_alternating_extreme_jumps(self):
        """Points leaping between two far-apart blobs every step."""
        h = FixedSizeAdaptiveHull(16)
        left = as_tuples(disk_stream(400, seed=13))
        right = as_tuples(translate(disk_stream(400, seed=14), 1e6, 0.0))
        for pl, pr in zip(left, right):
            h.insert(pl)
            h.insert(pr)
        h.check_invariants()
        assert len(h.samples()) <= 33

    def test_distribution_shift_keeps_guarantee(self):
        pts = list(as_tuples(changing_ellipse_stream(1500, seed=15)))
        h = AdaptiveHull(16)
        for p in pts:
            h.insert(p)
        bound = 16 * math.pi * h.perimeter / 256
        worst = max(point_polygon_distance(h.hull(), p) for p in pts)
        assert worst <= bound + 1e-9
