"""Reservoir-sampled hull — the naive comparator.

Keeps a uniform random sample of ``r`` stream points (classic reservoir
sampling) and reports the hull of the sample.  For extremal problems
this is hopeless — hull vertices are by definition atypical points, so
a uniform sample misses them — and the baseline benchmark quantifies
just how hopeless, motivating extremal (directional) sampling.
"""

from __future__ import annotations

import random
from typing import List

from ..core.base import HullSummary
from ..geometry.hull import convex_hull
from ..geometry.vec import Point

__all__ = ["RandomSampleHull"]


class RandomSampleHull(HullSummary):
    """Uniform reservoir sample of size ``r`` with hull-on-demand.

    Args:
        r: reservoir capacity.
        seed: RNG seed (reproducible experiments).
    """

    name = "random"

    def __init__(self, r: int, seed: int = 0):
        if r < 1:
            raise ValueError("RandomSampleHull requires r >= 1")
        self.r = r
        self.seed = seed
        self._rng = random.Random(seed)
        self._reservoir: List[Point] = []
        self._hull: List[Point] = []
        self._dirty = False
        self.points_seen = 0

    def get_config(self):
        """Constructor kwargs that recreate an equivalent empty summary
        (the RNG restarts from the seed)."""
        return {"r": self.r, "seed": self.seed}

    def insert(self, p: Point) -> bool:
        self.points_seen += 1
        self._bump_generation()  # conservative: any offer may mutate
        if len(self._reservoir) < self.r:
            self._reservoir.append(p)
            self._dirty = True
            return True
        j = self._rng.randrange(self.points_seen)
        if j < self.r:
            self._reservoir[j] = p
            self._dirty = True
            return True
        return False

    def hull(self) -> List[Point]:
        if self._dirty:
            self._hull = convex_hull(self._reservoir)
            self._dirty = False
        return self._hull

    def samples(self) -> List[Point]:
        return list(dict.fromkeys(self._reservoir))
