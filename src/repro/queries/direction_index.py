"""O(log r) directional queries via a direction-sorted index (Section 6).

The paper answers "extent in a given direction" in O(log r) time by
searching the summary's vertices in direction order.  This module
builds that index: a snapshot of a summary's sampling directions and
their extrema as two parallel lists sorted by angle, supporting:

* ``support(theta)`` — an inner bound on the stream's support function
  from the nearest sampled direction, with the Lemma 3.1 guarantee
  ``support(theta) >= cos(delta) * true_support`` for gap ``delta``;
* ``extent(theta)`` — directional extent from the two opposite supports,
  a ``cos(theta0/2)``-factor approximation like the sampled diameter;
* ``extreme_vertex(theta)`` — the stored witness point.

Each query is one circular floor/ceiling ``bisect``: O(log r).  The
index is built from a snapshot of the summary, but it is *not* allowed
to go silently stale: it remembers the summary's
:attr:`~repro.core.base.HullSummary.generation` at build time and every
query re-checks it (one integer comparison), re-sorting the directions
(O(r log r)) when an ``insert``/``merge``/``load_state`` has mutated
the summary since.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from ..core.adaptive_hull import AdaptiveHull
from ..core.base import HullSummary
from ..core.uniform_hull import UniformHull
from ..geometry.vec import Point, dot, unit

__all__ = ["DirectionalExtentIndex"]

_TWO_PI = 2.0 * math.pi


class DirectionalExtentIndex:
    """Snapshot index of (sampling direction -> extremum) for a summary.

    Args:
        summary: a hull summary.  Uniform and adaptive hulls expose
            their true sampling directions; for any other summary the
            index falls back to the hull vertices' outward-normal fan
            (every vertex is extreme in the directions between its
            adjacent edge normals, so indexing vertices by an interior
            normal is exact for the *sample hull*).
    """

    def __init__(self, summary: HullSummary):
        self._summary = summary
        self._built_generation = -1
        self._build()

    def _build(self) -> None:
        best = {}
        for theta, point in self._collect(self._summary):
            if point is None:
                continue
            # Keep the farthest point per direction key (first on ties).
            existing = best.get(theta)
            if existing is None or dot(point, unit(theta)) > dot(
                existing, unit(theta)
            ):
                best[theta] = point
        self._keys = sorted(best)
        self._points = [best[k] for k in self._keys]
        if not self._keys:
            raise ValueError(
                "cannot index an empty summary (a windowed summary may "
                "have expired every bucket; the index recovers once the "
                "summary holds points again)"
            )
        self._built_generation = self._summary.generation

    def _refresh(self) -> None:
        """Rebuild when the indexed summary has mutated since build.

        If the summary has become *empty* (windowed summaries reach
        that state routinely via expiry) the rebuild raises the same
        ValueError construction does — directional queries have no
        answer on an empty summary — and the next query after the
        summary refills rebuilds successfully."""
        if self._summary.generation != self._built_generation:
            self._build()

    @staticmethod
    def _collect(summary: HullSummary) -> List[Tuple[float, Optional[Point]]]:
        out: List[Tuple[float, Optional[Point]]] = []
        if isinstance(summary, AdaptiveHull):
            uni = summary.uniform_layer
            for j in range(uni.r):
                out.append((uni.direction(j), uni.extreme(j)))
            for root in summary._roots:
                if root is None:
                    continue
                for node in root.iter_internal():
                    out.append((node.mid_vector, node.t))
            return [(DirectionalExtentIndex._angle(v), p) for v, p in out]
        if isinstance(summary, UniformHull):
            return [
                (j * summary.theta0, summary.extreme(j))
                for j in range(summary.r)
            ]
        # Generic fallback: hull vertices indexed by an interior normal
        # of their supporting-direction range.
        hull = summary.hull()
        entries: List[Tuple[float, Optional[Point]]] = []
        n = len(hull)
        if n == 1:
            return [(0.0, hull[0])]
        for i, v in enumerate(hull):
            prev_v = hull[(i - 1) % n]
            next_v = hull[(i + 1) % n]
            n1 = DirectionalExtentIndex._angle(
                (v[1] - prev_v[1], prev_v[0] - v[0])
            )
            n2 = DirectionalExtentIndex._angle(
                (next_v[1] - v[1], v[0] - next_v[0])
            )
            span = (n2 - n1) % _TWO_PI
            entries.append(((n1 + span / 2.0) % _TWO_PI, v))
        return entries

    @staticmethod
    def _angle(v) -> float:
        return math.atan2(v[1], v[0]) % _TWO_PI

    def __len__(self) -> int:
        self._refresh()
        return len(self._keys)

    # -- queries (each one circular bisect: O(log r)) ----------------------

    def extreme_vertex(self, theta: float) -> Point:
        """Stored extremum of the sampled direction nearest to ``theta``."""
        self._refresh()
        theta %= _TWO_PI
        keys = self._keys
        # Floor wraps to the last entry (index -1), ceiling to the first.
        lo = bisect_right(keys, theta) - 1
        hi = bisect_left(keys, theta) % len(keys)
        gap_lo = (theta - keys[lo]) % _TWO_PI
        gap_hi = (keys[hi] - theta) % _TWO_PI
        return self._points[lo] if gap_lo <= gap_hi else self._points[hi]

    def support(self, theta: float) -> float:
        """Inner bound on the stream support function at angle ``theta``.

        Evaluates the nearest sampled direction's extremum against
        ``theta`` itself, so the value never exceeds the true support
        and is within a ``cos(gap)`` factor of it (Lemma 3.1's argument).
        """
        return dot(self.extreme_vertex(theta), unit(theta))

    def extent(self, theta: float) -> float:
        """Directional extent at angle ``theta`` (two support queries)."""
        return self.support(theta) + self.support(theta + math.pi)

    def max_gap(self) -> float:
        """Largest angular gap between indexed directions (quality of
        the support approximation: error factor ``1 - cos(gap/2)``)."""
        self._refresh()
        angles = self._keys
        if len(angles) == 1:
            return _TWO_PI
        worst = 0.0
        for a, b in zip(angles, angles[1:] + [angles[0] + _TWO_PI]):
            worst = max(worst, b - a)
        return worst
