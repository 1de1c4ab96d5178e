"""Tests for the synthetic stream generators."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.streams import (
    changing_ellipse_stream,
    circle_points,
    clusters_stream,
    convex_position_stream,
    disk_stream,
    drifting_clusters_stream,
    ellipse_stream,
    gaussian_stream,
    spiral_stream,
    square_stream,
)


class TestShapesAndSeeds:
    @pytest.mark.parametrize(
        "gen",
        [
            lambda n, s: disk_stream(n, seed=s),
            lambda n, s: square_stream(n, seed=s),
            lambda n, s: ellipse_stream(n, seed=s),
            lambda n, s: gaussian_stream(n, seed=s),
            lambda n, s: clusters_stream(n, seed=s),
            lambda n, s: spiral_stream(n, seed=s),
            lambda n, s: convex_position_stream(n, seed=s),
        ],
    )
    def test_shape_and_determinism(self, gen):
        a = gen(100, 7)
        b = gen(100, 7)
        c = gen(100, 8)
        assert a.shape == (100, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDisk:
    def test_within_radius(self):
        pts = disk_stream(5000, radius=2.0, seed=1)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 2.0 + 1e-9)

    def test_roughly_uniform_not_clustered_at_center(self):
        # sqrt radial law: about half the points outside r/sqrt(2).
        pts = disk_stream(20000, seed=2)
        frac = np.mean(np.hypot(pts[:, 0], pts[:, 1]) > 1 / math.sqrt(2))
        assert 0.45 < frac < 0.55


class TestSquare:
    def test_within_bounds(self):
        pts = square_stream(2000, half_side=1.5, seed=3)
        assert np.all(np.abs(pts) <= 1.5 + 1e-9)

    def test_rotation_preserves_radius(self):
        a = square_stream(500, rotation=0.0, seed=4)
        b = square_stream(500, rotation=0.7, seed=4)
        assert np.allclose(
            np.hypot(a[:, 0], a[:, 1]), np.hypot(b[:, 0], b[:, 1])
        )


class TestEllipse:
    def test_inside_ellipse(self):
        pts = ellipse_stream(5000, a=16.0, b=1.0, seed=5)
        assert np.all((pts[:, 0] / 16.0) ** 2 + pts[:, 1] ** 2 <= 1.0 + 1e-9)

    def test_aspect_ratio_visible(self):
        pts = ellipse_stream(5000, a=16.0, b=1.0, seed=6)
        assert np.ptp(pts[:, 0]) > 8.0 * np.ptp(pts[:, 1]) * 0.9


class TestCirclePoints:
    def test_on_circle(self):
        pts = circle_points(32, radius=3.0)
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 3.0)

    def test_evenly_spaced(self):
        pts = circle_points(8)
        angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
        gaps = np.diff(angles)
        assert np.allclose(gaps, gaps[0])

    def test_phase_rotates(self):
        a = circle_points(8)
        b = circle_points(8, phase=0.1)
        assert not np.allclose(a, b)


class TestChangingEllipse:
    def test_two_phases(self):
        pts = changing_ellipse_stream(500, seed=7)
        assert pts.shape == (1000, 2)
        first, second = pts[:500], pts[500:]
        # First phase is tall and narrow; second is wide and contains it.
        assert np.ptp(first[:, 1]) > np.ptp(first[:, 0])
        assert np.ptp(second[:, 0]) > np.ptp(second[:, 1])

    def test_second_contains_first(self):
        """The paper requires the horizontal ellipse to completely contain
        the vertical one: check the first phase's extremes satisfy the
        second ellipse's equation."""
        aspect = 16.0
        pts = changing_ellipse_stream(2000, aspect=aspect, seed=8)
        first = pts[:2000]
        a2, b2 = 1.1 * aspect * aspect, 1.1 * aspect
        vals = (first[:, 0] / a2) ** 2 + (first[:, 1] / b2) ** 2
        assert np.all(vals <= 1.0 + 1e-9)


class TestSpiral:
    def test_monotone_radius(self):
        pts = spiral_stream(200, seed=9)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(np.diff(radii) > -1e-6)

    def test_every_point_outside_previous_hull(self):
        from repro.geometry import OnlineHull
        from repro.streams import as_tuples

        pts = list(as_tuples(spiral_stream(100, seed=10)))
        oh = OnlineHull()
        changes = sum(oh.insert(p) for p in pts)
        assert changes >= 95  # nearly every point extends the hull


class TestClusters:
    def test_near_centers(self):
        centers = [(0.0, 0.0), (100.0, 0.0)]
        pts = clusters_stream(2000, centers=centers, sigma=0.5, seed=11)
        d0 = np.hypot(pts[:, 0], pts[:, 1])
        d1 = np.hypot(pts[:, 0] - 100.0, pts[:, 1])
        assert np.all(np.minimum(d0, d1) < 5.0)

    def test_all_clusters_populated(self):
        pts = clusters_stream(3000, seed=12)
        # Default has 3 well-separated centers; each should catch ~1/3.
        labels = np.argmin(
            [
                np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
                for cx, cy in [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]
            ],
            axis=0,
        )
        counts = np.bincount(labels, minlength=3)
        assert np.all(counts > 500)


class TestConvexPosition:
    def test_on_ellipse_boundary(self):
        pts = convex_position_stream(500, seed=13)
        vals = (pts[:, 0] / 3.0) ** 2 + pts[:, 1] ** 2
        assert np.allclose(vals, 1.0)


class TestDriftingClusters:
    def test_shape_seeded_finite(self):
        pts = drifting_clusters_stream(1000, seed=3)
        assert pts.shape == (1000, 2)
        assert np.isfinite(pts).all()
        assert np.array_equal(pts, drifting_clusters_stream(1000, seed=3))
        assert not np.array_equal(pts, drifting_clusters_stream(1000, seed=4))

    def test_centers_actually_drift(self):
        """Early and late stream segments occupy different regions —
        the property that makes stale extremes matter for windows."""
        pts = drifting_clusters_stream(
            20_000, n_clusters=2, drift=0.3, sigma=0.2, seed=7
        )
        early = pts[:2000].mean(axis=0)
        late = pts[-2000:].mean(axis=0)
        assert np.hypot(*(late - early)) > 3.0

    def test_zero_drift_stays_put(self):
        pts = drifting_clusters_stream(
            5000, n_clusters=1, drift=0.0, sigma=0.1, spread=0.0, seed=1
        )
        assert np.hypot(pts[:, 0], pts[:, 1]).max() < 1.0

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            drifting_clusters_stream(10, n_clusters=0)

    @staticmethod
    def _one_shot(n, n_clusters=3, drift=0.05, sigma=0.5, spread=10.0, seed=0):
        """The stream as one ``(n, n_clusters, 2)`` cumsum draws it: the
        reference the blocked generator must match bit for bit."""
        g = np.random.default_rng(seed)
        centers = g.uniform(-spread, spread, (n_clusters, 2))
        idx = g.integers(0, n_clusters, n)
        noise = g.normal(0.0, sigma, (n, 2))
        steps = g.normal(0.0, drift, (n, n_clusters, 2))
        walks = centers[None, :, :] + np.cumsum(steps, axis=0)
        return walks[np.arange(n), idx] + noise

    @pytest.mark.parametrize(
        "n, kwargs",
        [
            (0, {}),
            (1, {}),
            (1000, {}),
            (4096, {}),
            (4097, {"n_clusters": 5}),
            (12_345, {"n_clusters": 2, "drift": 0.15, "seed": 11}),
            (9000, {"seed": [5, 3]}),
            (9000, {"n_clusters": 1, "drift": 0.0, "spread": 0.0, "seed": 1}),
        ],
    )
    def test_bit_identical_to_one_shot_walk(self, n, kwargs):
        got = drifting_clusters_stream(n, **kwargs)
        want = self._one_shot(n, **kwargs)
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()

    def test_memory_linear_in_n(self):
        """The step walk is drawn in row blocks: at the engine demo's
        defaults (100k records, 16 clusters) the one-shot walk peaked at
        ~80 MB; the blocked one stays a few times the output's size."""
        tracemalloc.start()
        try:
            drifting_clusters_stream(100_000, n_clusters=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 1024 * 1024
