"""The uniformly sampled hull (Section 3).

Maintains the extreme input point in each of ``r`` fixed, evenly spaced
directions ``j * theta0`` (``theta0 = 2*pi/r``).  The convex hull of
these extrema approximates the true hull with error O(D/r) (Lemma 3.2)
and approximates the diameter within a ``1 + O(1/r^2)`` factor
(Lemma 3.1).  This is both the base layer of the adaptive scheme and —
run with parameter ``2r`` — the principal comparator in the paper's
experiments.

Update cost: a point inside the current sample hull is discarded after
an O(log r) containment test.  A point outside triggers an O(r) pass
over the fixed directions plus an O(r log r) hull-cache rebuild.  Over
the random streams of the paper's experiments, hull-changing points are
a vanishing fraction of the stream, so the amortized cost per point is
O(log r) in practice; the worst-case per-point cost is O(r) (the paper's
"straightforward implementation" of Section 3.1; its O(log r) worst-case
variant trades considerable bookkeeping for the same amortized result —
see DESIGN.md, substitutions).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..geometry.hull import convex_hull
from ..geometry.polygon import (
    contains_point,
    contains_points,
    perimeter as polygon_perimeter,
)
from ..geometry.vec import Point, Vector, dot, unit
from .base import HullSummary, coerce_point
from .batch import (
    DEFAULT_CHUNK,
    SURVIVOR_LOOKAHEAD,
    SURVIVOR_SCALAR_PREFIX,
    prefiltered_insert_many,
)
from .uncertainty import triangle_for_edge

__all__ = ["UniformHull"]


class UniformHull(HullSummary):
    """Extrema of the stream in ``r`` fixed, evenly spaced directions.

    Args:
        r: number of sampling directions (>= 3; the paper assumes r even
            when pairing opposite directions for the diameter, and >= 8
            is sensible in practice).

    Attributes:
        r: the direction count.
        theta0: angular spacing ``2*pi / r``.
        points_seen: total points offered to the summary.
        points_processed: points that survived the fast discard and were
            tested against every direction (an operation-count proxy for
            the amortized analysis).
    """

    name = "uniform"

    def __init__(self, r: int):
        if r < 3:
            raise ValueError("UniformHull requires r >= 3 directions")
        self.r = r
        self.theta0 = 2.0 * math.pi / r
        self._dirs: List[Vector] = [unit(j * self.theta0) for j in range(r)]
        # Direction components as (r,) arrays and supports as one (r,)
        # float64 array: offer() is a single elementwise multiply-add +
        # compare instead of a Python loop over directions.  Elementwise
        # ops (never a BLAS matvec) keep every support value bit-equal
        # to the scalar expression ``p[0]*dx + p[1]*dy``.
        self._dx = np.array([d[0] for d in self._dirs], dtype=np.float64)
        self._dy = np.array([d[1] for d in self._dirs], dtype=np.float64)
        self._extreme: List[Optional[Point]] = [None] * r
        self._support = np.full(r, -math.inf, dtype=np.float64)
        self._hull: List[Point] = []
        self._perimeter = 0.0
        self.points_seen = 0
        self.points_processed = 0

    # -- HullSummary interface -------------------------------------------

    def insert(self, p: Point) -> bool:
        """Process one stream point (with the fast containment discard).

        The point is normalised to a float tuple at the boundary, so
        NumPy rows and lists are stored in the same hashable form the
        hull structures require.

        Raises:
            ValueError / TypeError: on non-finite or malformed points.
        """
        p = coerce_point(p)
        self.points_seen += 1
        if self._hull and contains_point(self._hull, p):
            return False
        return len(self.offer_changed(p)) > 0

    def insert_many(self, points, chunk: int = DEFAULT_CHUNK) -> int:
        """Vectorised batch ingestion (see :mod:`repro.core.batch`).

        Pre-filters each chunk against the current sample hull with one
        NumPy orientation sweep; only the rare survivors take the
        per-point path.  A batch under 16 points is validated whole and
        then takes :meth:`insert` point by point, since no sweep
        amortises at that size.  Exactly equivalent to sequential
        :meth:`insert` — same hull, samples, and counters.
        """
        return prefiltered_insert_many(self, points, chunk=chunk)

    def hull(self) -> List[Point]:
        """Convex hull of the stored extrema (CCW, cached)."""
        return self._hull

    def samples(self) -> List[Point]:
        """Distinct stored extrema."""
        return list(dict.fromkeys(e for e in self._extreme if e is not None))

    # -- merging -------------------------------------------------------------

    def merge(self, other: "UniformHull") -> "UniformHull":
        """Direction-bucket-wise union: keep the extreme point per direction.

        Both operands sample the same ``r`` fixed directions, so the
        union of the two streams has, in each direction ``j``, exactly
        the operand extremum with the larger support — one vectorised
        comparison of the support arrays replaces re-ingesting the other
        side's samples.  Equal supports keep ``self``'s extremum (the
        streaming tie-break: an incoming point must *strictly* beat the
        stored support).  Counters afterwards describe the union stream.
        """
        self._require_mergeable(other)
        self.merge_directions(other)
        self.points_seen += other.points_seen
        self.points_processed += other.points_processed
        return self

    def merge_directions(self, other: "UniformHull") -> bool:
        """Union the per-direction extrema only (no counters, no rebuild
        of this layer's hull cache beyond the standard one).

        The adaptive hull's merge uses this to fold another summary's
        uniform layer in before re-syncing its refinement forest;
        returns True when any direction changed.
        """
        wins = np.flatnonzero(other._support > self._support)
        if not len(wins):
            return False
        self._support[wins] = other._support[wins]
        for j in wins:
            self._extreme[int(j)] = other._extreme[int(j)]
        self._rebuild()
        return True

    # -- persistence ---------------------------------------------------------

    def get_config(self) -> Dict:
        """Constructor kwargs that recreate an equivalent empty summary."""
        return {"r": self.r}

    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of the full summary state."""
        return {
            "extreme": [list(e) if e is not None else None for e in self._extreme],
            "support": [float(s) for s in self._support],
            "points_seen": self.points_seen,
            "points_processed": self.points_processed,
        }

    def load_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place, exact)."""
        extreme = state["extreme"]
        support = state["support"]
        if len(extreme) != self.r or len(support) != self.r:
            raise ValueError(
                f"snapshot has {len(extreme)} directions, summary has {self.r}"
            )
        self._extreme = [
            (float(e[0]), float(e[1])) if e is not None else None for e in extreme
        ]
        self._support = np.array([float(s) for s in support], dtype=np.float64)
        self.points_seen = int(state["points_seen"])
        self.points_processed = int(state["points_processed"])
        if any(e is not None for e in self._extreme):
            self._rebuild()
        else:
            self._hull = []
            self._perimeter = 0.0

    # -- uniform-hull specifics ---------------------------------------------

    def offer(self, p: Point) -> bool:
        """Update the extrema with ``p`` without the containment fast path.

        Used by the adaptive hull, which performs its own (larger-hull)
        discard test before delegating here.  Returns True if any
        direction's extremum changed.
        """
        return len(self.offer_changed(p)) > 0

    def offer_changed(self, p: Point) -> np.ndarray:
        """Like :meth:`offer`, but return the array of direction indices
        whose extremum ``p`` replaced (ascending; empty for no change).

        One elementwise multiply-add over the direction components plus
        one compare against the support array — the vectorised form of
        the per-direction loop, producing bit-identical supports.
        """
        self.points_processed += 1
        s = p[0] * self._dx + p[1] * self._dy
        wins = np.flatnonzero(s > self._support)
        if len(wins):
            self._support[wins] = s[wins]
            for j in wins:
                self._extreme[int(j)] = p
            self._rebuild()
        return wins

    def consume_survivors(self, sxs: np.ndarray, sys: np.ndarray):
        """Bulk-ingest a leading run of prefilter survivors (see
        :func:`repro.core.batch.prefiltered_insert_many`).

        The rows are points the conservative inside-mask could not
        certify.  One exact vectorised containment sweep plus one
        support sweep classifies them; rows that sequential
        :meth:`insert` would discard (exactly inside) or process without
        changing any extremum are accounted for in bulk, and the first
        row that would actually change a direction goes through the real
        :meth:`insert`.  Returns ``(consumed, changed, mutated)``.
        """
        hull = self._hull
        if len(hull) < 3:
            return 1, int(self.insert((float(sxs[0]), float(sys[0])))), True
        k = min(len(sxs), SURVIVOR_LOOKAHEAD)
        # Scalar prefix: while mutations are dense (young hull) the
        # vectorised sweep's fixed cost cannot amortise — step the first
        # few rows through the sequential insert, bailing at the first
        # extremum change.
        split = k if k < 2 * SURVIVOR_SCALAR_PREFIX else SURVIVOR_SCALAR_PREFIX
        for i in range(split):
            if self.insert((float(sxs[i]), float(sys[i]))):
                return i + 1, 1, True
        if split == k:
            return k, 0, False
        sxs = sxs[split:k]
        sys = sys[split:k]
        k -= split
        inside = contains_points(hull, sxs, sys)
        beats = (
            (sxs[:, None] * self._dx[None, :] + sys[:, None] * self._dy[None, :])
            > self._support[None, :]
        ).any(axis=1)
        mutating = ~inside & beats
        first = int(np.argmax(mutating)) if mutating.any() else k
        # Sequential accounting for the non-mutating prefix: every row
        # bumps points_seen; exact outsiders also reach _offer (one
        # points_processed each) but beat nothing and return False.
        self.points_seen += first
        self.points_processed += first - int(np.count_nonzero(inside[:first]))
        if first < k:
            changed = int(self.insert((float(sxs[first]), float(sys[first]))))
            return split + first + 1, changed, True
        return split + k, 0, False

    def _rebuild(self) -> None:
        # Every extremum-changing path (offer, merge_directions,
        # load_state) funnels through here, making it the one chokepoint
        # for the staleness counter.
        self._bump_generation()
        self._hull = convex_hull(
            e for e in self._extreme if e is not None
        )
        self._perimeter = polygon_perimeter(self._hull)

    @property
    def perimeter(self) -> float:
        """Perimeter P of the sample hull (degenerate hulls measure the
        out-and-back boundary, e.g. ``2 * length`` for a segment)."""
        return self._perimeter

    def extreme(self, j: int) -> Optional[Point]:
        """The stored extremum in direction ``j * theta0`` (None before
        any point has arrived)."""
        return self._extreme[j % self.r]

    def support(self, j: int) -> float:
        """The support value ``max dot(p, u_j)`` over processed points."""
        return float(self._support[j % self.r])

    def direction(self, j: int) -> Vector:
        """Unit vector of sampling direction ``j``."""
        return self._dirs[j % self.r]

    def beats(self, p: Point, j: int) -> bool:
        """Would ``p`` strictly improve the extremum in direction ``j``?"""
        return dot(p, self._dirs[j % self.r]) > float(self._support[j % self.r])

    def edge_triangles(self):
        """Uncertainty triangles of the uniformly sampled hull's edges.

        For every adjacent direction pair ``(j, j+1)`` whose extrema
        differ, yields the triangle bounded by the connecting edge and
        the two supporting lines (angular range exactly ``theta0``).
        Together these form the uniform hull's uncertainty ring
        (Lemma 3.2: heights are O(D/r)).
        """
        for j in range(self.r):
            a = self._extreme[j]
            b = self._extreme[(j + 1) % self.r]
            if a is None or b is None or a == b:
                continue
            yield triangle_for_edge(
                a, b, self._dirs[j], self._dirs[(j + 1) % self.r]
            )

    def sampled_extent(self, j: int) -> float:
        """Extent along direction ``j`` between the stored extrema of the
        opposite sampled directions ``j`` and ``j + r/2`` (requires even
        ``r``); ``0`` before any data."""
        if self.r % 2 != 0:
            raise ValueError("opposite-direction extent requires even r")
        opp = (j + self.r // 2) % self.r
        if self._extreme[j % self.r] is None:
            return 0.0
        return float(self._support[j % self.r] + self._support[opp])
