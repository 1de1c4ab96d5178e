"""Answer quality: exact hulls and the relative error of a summary hull.

Per key, the relative error is the one-sided Hausdorff distance from
the exact hull to the summary's hull
(``repro.experiments.metrics.hull_distance``) divided by the key's
exact diameter.  The benchmark reports its mean over keys
(``mean_err_rel``) and logs the maximum; the mean is the steadier of
the two across seeds.  It is computed after timing, from the generated
inputs the benchmark kept.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


def exact_hull(points: np.ndarray, inner: Optional[Sequence] = None) -> list:
    """Exact convex hull of ``points``.

    ``inner``, when given, is a convex polygon whose vertices are among
    ``points`` (an all-time summary hull): points strictly inside its
    inscribed disk about the vertex centroid cannot be hull vertices,
    so only the rest reach the exact monotone-chain hull.
    """
    from repro.geometry.hull import convex_hull

    pts = np.asarray(points, dtype=np.float64)
    if inner is not None and len(inner) >= 3:
        poly = np.asarray(inner, dtype=np.float64)
        c = poly.mean(axis=0)
        a, b = poly, np.roll(poly, -1, axis=0)
        edge = b - a
        # Distance from c to every edge's supporting line.
        to_c = c - a
        cross = edge[:, 0] * to_c[:, 1] - edge[:, 1] * to_c[:, 0]
        lines = np.abs(cross) / np.hypot(edge[:, 0], edge[:, 1])
        rho = float(lines.min())
        d2 = ((pts - c) ** 2).sum(axis=1)
        pts = pts[d2 >= rho * rho]
    return convex_hull(map(tuple, pts.tolist()))


def rel_errors(
    streams: Dict[Hashable, np.ndarray],
    hulls: Dict[Hashable, list],
    prefilter: bool = True,
) -> List[float]:
    """Per key: hull_distance(exact, summary) divided by the exact
    diameter (keys whose exact hull has no extent are skipped).

    ``prefilter`` may be set only when every summary hull's vertices
    are points of its key's stream (see :func:`exact_hull`).
    """
    from repro.experiments.metrics import hull_distance
    from repro.geometry.calipers import diameter

    errs = []
    for key, pts in streams.items():
        approx = hulls[key]
        true = exact_hull(pts, approx if prefilter else None)
        span = diameter(true)[0] if len(true) >= 2 else 0.0
        if span > 0.0:
            errs.append(hull_distance(true, approx) / span)
    return errs


def mean_and_max(errs: List[float]) -> Tuple[float, float]:
    if not errs or not all(math.isfinite(e) for e in errs):
        raise ValueError("no finite hull error to report")
    return sum(errs) / len(errs), max(errs)
