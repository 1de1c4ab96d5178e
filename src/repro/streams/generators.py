"""Synthetic point-stream generators (Section 7 workloads and more).

All generators return NumPy arrays of shape ``(n, 2)`` and are seeded,
so every experiment in the benchmark harness is reproducible.  The
paper's evaluation draws points uniformly at random from a disk, a
square, and an ellipse of aspect ratio 16 (optionally rotated by
fractions of ``theta0``), plus a two-phase "changing ellipse" stream;
we add the circle construction of the lower bound (Theorem 5.5), a
Gaussian cloud, a multi-cluster mixture, and an adversarial outward
spiral that maximises hull churn.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

__all__ = [
    "disk_stream",
    "square_stream",
    "ellipse_stream",
    "circle_points",
    "gaussian_stream",
    "clusters_stream",
    "drifting_clusters_stream",
    "changing_ellipse_stream",
    "spiral_stream",
    "convex_position_stream",
]


#: Rows of center steps ``drifting_clusters_stream`` draws at a time.
_DRIFT_BLOCK_ROWS = 4096


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def disk_stream(
    n: int, radius: float = 1.0, seed: int = 0
) -> np.ndarray:
    """``n`` points uniform in a disk of the given radius.

    The rotationally symmetric case: uniform sampling directions are
    ideally matched, so this is the adaptive scheme's *worst* relative
    setting (first row of Table 1).
    """
    g = _rng(seed)
    t = g.uniform(0.0, 2.0 * math.pi, n)
    r = radius * np.sqrt(g.uniform(0.0, 1.0, n))
    return np.column_stack((r * np.cos(t), r * np.sin(t)))


def square_stream(
    n: int, half_side: float = 1.0, rotation: float = 0.0, seed: int = 0
) -> np.ndarray:
    """``n`` points uniform in a square of side ``2 * half_side``,
    rotated by ``rotation`` radians about the origin (Table 1, rows 2-5:
    rotations of 0, theta0/4, theta0/3, theta0/2)."""
    g = _rng(seed)
    pts = g.uniform(-half_side, half_side, (n, 2))
    return _rotate(pts, rotation)


def ellipse_stream(
    n: int,
    a: float = 16.0,
    b: float = 1.0,
    rotation: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """``n`` points uniform in an ellipse with semi-axes ``a`` (x) and
    ``b`` (y), rotated by ``rotation`` radians.

    Aspect ratio 16 with small rotations reproduces the paper's hardest
    static workload (Table 1, third section; Fig. 10).
    """
    g = _rng(seed)
    t = g.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(g.uniform(0.0, 1.0, n))
    pts = np.column_stack((a * r * np.cos(t), b * r * np.sin(t)))
    return _rotate(pts, rotation)


def changing_ellipse_stream(
    n_each: int,
    aspect: float = 16.0,
    tilt: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """The paper's distribution-shift stream (Table 1, fourth section).

    ``n_each`` points from a near-vertical aspect-``aspect`` ellipse
    (semi-axes ``(1, aspect)``), followed by ``n_each`` points from a
    near-horizontal ellipse of the same aspect ratio (semi-axes
    ``(1.1 * aspect**2, 1.1 * aspect)``) that completely contains the
    first (both semi-axes dominate, so the vertical ellipse lies inside).
    ``tilt`` rotates both phases (the theta0 fractions of the
    experiment).
    """
    first = ellipse_stream(n_each, a=1.0, b=aspect, rotation=tilt, seed=seed)
    second = ellipse_stream(
        n_each,
        a=1.1 * aspect * aspect,
        b=1.1 * aspect,
        rotation=tilt,
        seed=seed + 1,
    )
    return np.vstack((first, second))


def circle_points(m: int, radius: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """``m`` points evenly spaced on a circle — the lower-bound
    construction of Theorem 5.5 (any r-point subsample of 2r such points
    errs by Omega(D / r^2))."""
    t = phase + 2.0 * math.pi * np.arange(m) / m
    return np.column_stack((radius * np.cos(t), radius * np.sin(t)))


def gaussian_stream(
    n: int, sigma_x: float = 1.0, sigma_y: float = 1.0, seed: int = 0
) -> np.ndarray:
    """``n`` points from an axis-aligned Gaussian (unbounded support:
    the hull keeps growing, exercising continuous refinement)."""
    g = _rng(seed)
    return np.column_stack(
        (g.normal(0.0, sigma_x, n), g.normal(0.0, sigma_y, n))
    )


def clusters_stream(
    n: int,
    centers: Sequence[Sequence[float]] = ((0.0, 0.0), (10.0, 0.0), (5.0, 8.0)),
    sigma: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """``n`` points from a mixture of Gaussian clusters (one hull over
    the whole stream also covers the empty space between them)."""
    g = _rng(seed)
    centers_arr = np.asarray(centers, dtype=float)
    idx = g.integers(0, len(centers_arr), n)
    noise = g.normal(0.0, sigma, (n, 2))
    return centers_arr[idx] + noise


def drifting_clusters_stream(
    n: int,
    n_clusters: int = 3,
    drift: float = 0.05,
    sigma: float = 0.5,
    spread: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """``n`` points from Gaussian clusters whose centers random-walk.

    Each point is drawn around one of ``n_clusters`` centers (chosen
    uniformly); after every point each center takes an independent
    Gaussian step of scale ``drift``.  Over the stream the occupied
    region migrates, so early extremes become stale — the motivating
    workload for the sliding-window summaries: an all-time hull keeps
    growing while the hull of the *recent* window tracks the clusters'
    current position.  Initial centers are uniform in
    ``[-spread, spread]^2``.
    """
    if n_clusters < 1:
        raise ValueError("drifting_clusters_stream needs n_clusters >= 1")
    g = _rng(seed)
    centers = g.uniform(-spread, spread, (n_clusters, 2))
    idx = g.integers(0, n_clusters, n)
    noise = g.normal(0.0, sigma, (n, 2))
    # Center trajectories: cumulative random walks, sampled at the
    # point's arrival index.  The steps are drawn in row blocks, so
    # memory is O(n + block * n_clusters) rather than O(n * n_clusters);
    # each block's first row takes the running sum before its cumsum,
    # so every partial sum (and the seeded stream) is the one a single
    # cumsum over the whole stream gives, bit for bit.
    out = np.empty((n, 2))
    carry = None
    for start in range(0, n, _DRIFT_BLOCK_ROWS):
        rows = idx[start:start + _DRIFT_BLOCK_ROWS]
        steps = g.normal(0.0, drift, (len(rows), n_clusters, 2))
        if carry is not None:
            steps[0] += carry
        walks = np.cumsum(steps, axis=0)
        carry = walks[-1]
        out[start:start + len(rows)] = (
            centers[rows] + walks[np.arange(len(rows)), rows]
        )
    out += noise
    return out


def spiral_stream(
    n: int, turns: float = 4.0, growth: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Adversarial outward spiral: every point is outside the hull of
    its predecessors, maximising summary churn (worst-case processing)."""
    g = _rng(seed)
    t = np.linspace(0.0, turns * 2.0 * math.pi, n) + g.uniform(0, 1e-9, n)
    r = 1.0 + growth * t
    return np.column_stack((r * np.cos(t), r * np.sin(t)))


def convex_position_stream(n: int, seed: int = 0) -> np.ndarray:
    """``n`` points in convex position (on an ellipse boundary), in
    random arrival order: the true hull has n vertices, the summary must
    drop all but O(r)."""
    g = _rng(seed)
    t = g.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack((3.0 * np.cos(t), np.sin(t)))


def _rotate(pts: np.ndarray, angle: float) -> np.ndarray:
    if angle == 0.0:
        return pts
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T
