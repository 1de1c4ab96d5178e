"""Unrefinement threshold queues.

Section 5.3 of the paper keeps each refined (internal) tree node in a
priority queue indexed by the perimeter threshold at which the node
must be unrefined.  Two implementations are provided:

* :class:`HeapThresholdQueue` — an exact binary heap;
  ``PriQ(r) = O(log r)`` per operation (the "standard priority queue"
  of the paper's analysis).
* :class:`Pow2BucketQueue` — the Matias power-of-two bucket array:
  thresholds are rounded down to ``2**floor(log2 t)`` so that a node may
  be unrefined slightly early, buying ``PriQ(r) = O(1)`` amortized.
  The paper shows the approximation quality is asymptotically unchanged.

Both queues are *monotone*: the driving value (the uniformly sampled
hull's perimeter P) only grows, so popping is one-directional.  Entries
are handled lazily — a popped entry may be stale (its node was deleted
or its threshold recomputed); the caller revalidates.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, Iterator, List, Tuple

__all__ = ["HeapThresholdQueue", "Pow2BucketQueue", "make_threshold_queue"]


class HeapThresholdQueue:
    """Exact min-heap of (threshold, item); O(log n) push/pop."""

    def __init__(self):
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, threshold: float, item: Any) -> None:
        """Queue ``item`` to surface once the driver reaches ``threshold``."""
        self._counter += 1
        heapq.heappush(self._heap, (threshold, self._counter, item))

    def pop_due(self, driver: float) -> Iterator[Any]:
        """Yield every item whose threshold is <= ``driver``."""
        while self._heap and self._heap[0][0] <= driver:
            yield heapq.heappop(self._heap)[2]

    def drain_due(self, driver: float) -> List[Any]:
        """All due items as a list, in the exact :meth:`pop_due` order
        (threshold order, insertion-counter tiebreak) — one bulk call
        for the hot unrefinement sweep instead of a generator round trip
        per item."""
        heap = self._heap
        out: List[Any] = []
        while heap and heap[0][0] <= driver:
            out.append(heapq.heappop(heap)[2])
        return out

    def effective_threshold(self, threshold: float) -> float:
        """The threshold actually used (exact for the heap queue)."""
        return threshold

    def entries(self) -> List[Tuple[float, Any]]:
        """Every ``(threshold, item)`` entry, in pop order."""
        return [(e[0], e[2]) for e in sorted(self._heap, key=lambda e: e[:2])]

    def put(self, key: float, item: Any) -> None:
        """Re-add an :meth:`entries` pair (re-adding a whole list in
        order restores its pop order)."""
        self.push(key, item)


class Pow2BucketQueue:
    """Bucketed queue keyed by ``floor(log2 threshold)``; O(1) amortized.

    An item with threshold ``t`` is stored in bucket ``floor(log2 t)``
    and surfaces as soon as the driver reaches ``2**floor(log2 t)`` —
    i.e. possibly a factor <2 early, never late.  That is exactly the
    paper's Matias trick (Section 5.3): the priority queue becomes an
    array of ~log2(r) live buckets and each operation is O(1).
    """

    def __init__(self):
        self._buckets: Dict[int, List[Any]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @staticmethod
    def _bucket_of(threshold: float) -> int:
        if threshold <= 0.0 or not math.isfinite(threshold):
            # Non-positive thresholds are due immediately; park them in
            # a sentinel bucket below everything.
            return -(2**30) if threshold <= 0.0 else 2**30
        return math.floor(math.log2(threshold))

    def push(self, threshold: float, item: Any) -> None:
        """Queue ``item`` under the power-of-two rounding of ``threshold``."""
        b = self._bucket_of(threshold)
        self._buckets.setdefault(b, []).append(item)
        self._size += 1

    def pop_due(self, driver: float) -> Iterator[Any]:
        """Yield items whose rounded threshold is <= ``driver``.

        An item surfaces when ``driver >= 2**bucket`` — i.e. when the
        driver has reached the power of two at or below the item's true
        threshold (early by at most a factor of 2).
        """
        if driver <= 0.0:
            return
        cut = math.floor(math.log2(driver)) if driver >= 1.0 else (
            math.floor(math.log2(driver))
        )
        due = [b for b in self._buckets if b <= cut]
        for b in sorted(due):
            items = self._buckets.pop(b)
            self._size -= len(items)
            yield from items

    def drain_due(self, driver: float) -> List[Any]:
        """All due items as a list, in the exact :meth:`pop_due` order
        (bucket order, insertion order within a bucket)."""
        if driver <= 0.0:
            return []
        cut = math.floor(math.log2(driver))
        due = [b for b in self._buckets if b <= cut]
        out: List[Any] = []
        for b in sorted(due):
            items = self._buckets.pop(b)
            self._size -= len(items)
            out.extend(items)
        return out

    def effective_threshold(self, threshold: float) -> float:
        """The power-of-two value at which the item will actually surface."""
        if threshold <= 0.0:
            return 0.0
        return 2.0 ** math.floor(math.log2(threshold))

    def entries(self) -> List[Tuple[int, Any]]:
        """Every ``(bucket, item)`` entry, in pop order."""
        return [(b, item) for b in sorted(self._buckets) for item in self._buckets[b]]

    def put(self, key: int, item: Any) -> None:
        """Re-add an :meth:`entries` pair (re-adding a whole list in
        order restores its pop order)."""
        self._buckets.setdefault(key, []).append(item)
        self._size += 1


def make_threshold_queue(mode: str):
    """Factory: ``mode`` is ``"exact"`` (heap) or ``"pow2"`` (buckets)."""
    if mode == "exact":
        return HeapThresholdQueue()
    if mode == "pow2":
        return Pow2BucketQueue()
    raise ValueError(f"unknown threshold queue mode {mode!r}")
