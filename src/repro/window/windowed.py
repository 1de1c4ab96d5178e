"""Sliding-window hull summaries on the merge algebra.

Hershberger–Suri summaries answer extent queries over the *entire*
stream prefix; monitoring workloads ask about the recent past — "the
hull of the last N points", "the diameter over the last T seconds" —
where stale extremes must age out.  No single summary can un-insert a
point, but the merge layer (PR 2) makes a bucketed design work:

* the stream is chopped into **buckets**, each summarised independently
  by any registered scheme (:func:`repro.streams.io.scheme_registry`);
* old buckets are **expired whole** — dropping a bucket forgets its
  points exactly, no un-insertion needed;
* queries **tree-fold the live buckets** through
  :meth:`~repro.core.base.HullSummary.merge` into one ordinary summary
  (the *merged view*), on which the whole existing query surface —
  ``hull``, ``diameter``, ``width``, ``DirectionalExtentIndex`` — runs
  unchanged.

To keep the bucket count logarithmic, sealed buckets coalesce
geometrically in the style of exponential histograms (Datar, Gionis,
Indyk & Motwani, SODA 2002): at most ``level_width`` buckets per size
class; overflow merges the two oldest of the class into the next
class.  Space is therefore ``O(r * level_width * log n)`` points for a
window holding ``n`` points of an ``O(r)``-space scheme, against the
``O(n)`` of an exact re-compute baseline.

Window semantics are the usual bucketed approximation, and the slack is
explicit and bounded:

* **count windows** (``last_n=N``): the live buckets cover the most
  recent ``covered_count`` points, with ``N <= covered_count <=
  N + count_cap`` (``count_cap = max(head_capacity, N // 4)`` — bucket
  merges that would exceed it are refused, so the oldest bucket, the
  only source of over-coverage, stays small);
* **time windows** (``horizon=T``): every bucket's time span is capped
  at ``T / 4`` (the head is sealed early, merges that would span more
  are refused), and a bucket expires once its *newest* point falls out
  of the horizon — so a point is guaranteed gone once it is older than
  ``T + T/4``, and ``advance_time`` alone (no new points) also expires.

Every stored sample remains a genuine input point from a live bucket,
so the windowed hull never overshoots the true hull of the covered
points, and the scheme's one-sided error bound (Theorem 5.4 for the
adaptive hull, degraded by at most a constant factor through the
merges) holds against the covered window's true hull.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..core.base import HullSummary, coerce_point
from ..core.batch import DEFAULT_CHUNK, as_point_array, as_ts_array
from ..geometry.vec import Point, dot, unit
from ..obs import metrics as OBS
from ..streams.io import SummarySpec, summary_from_state, summary_state
from .config import WindowConfig, without_warm_start

__all__ = ["WindowedHullSummary", "windowed_factory"]


class _Bucket:
    """One sealed stream segment: a summary plus its count/time extent."""

    __slots__ = ("summary", "count", "level", "start_ts", "end_ts")

    def __init__(self, summary, count, level, start_ts, end_ts):
        self.summary = summary
        self.count = count
        self.level = level
        self.start_ts = start_ts
        self.end_ts = end_ts


def windowed_factory(spec, config: WindowConfig):
    """A zero-argument factory of windowed summaries of ``spec`` (a
    :class:`~repro.streams.io.SummarySpec`) under ``config``.

    This is how both engine tiers wrap their scheme, so the window
    policy is threaded in one place and the tiers cannot drift.
    """

    def build() -> "WindowedHullSummary":
        return WindowedHullSummary(
            spec,
            last_n=config.last_n,
            horizon=config.horizon,
            head_capacity=config.head_capacity,
            level_width=config.level_width,
        )

    return build


class WindowedHullSummary(HullSummary):
    """Hull summary of (approximately) the most recent window of a stream.

    Args:
        scheme: which summary each bucket gets — a
            :class:`~repro.streams.io.SummarySpec`, a registered
            :class:`~repro.core.base.HullSummary` class, instance, or
            zero-argument factory (e.g. ``lambda: AdaptiveHull(32)``),
            or a spec doc dict.
        last_n / horizon / head_capacity / level_width: the window
            policy — see :class:`~repro.window.WindowConfig`.

    Count windows take plain :meth:`insert` calls; time windows require
    an explicit, non-decreasing ``ts`` per insert and support
    :meth:`advance_time` for expiry without new data.  The summary
    quacks like any :class:`HullSummary` (``hull``/``samples``/
    ``insert_many``/snapshots), so it drops into the engines, trackers,
    and the query layer; direct cross-window :meth:`merge` is refused —
    merge :meth:`merged_view` snapshots instead (that is how the shard
    tier reduces windowed global queries).
    """

    name = "windowed"

    def __init__(
        self,
        scheme,
        *,
        last_n: Optional[int] = None,
        horizon: Optional[float] = None,
        head_capacity: Optional[int] = None,
        level_width: int = 2,
    ):
        self._cfg = WindowConfig(
            last_n=last_n,
            horizon=horizon,
            head_capacity=head_capacity,
            level_width=level_width,
        )
        self._spec = SummarySpec.coerce(scheme)
        self._head_capacity = self._cfg.effective_head_capacity
        if self._cfg.timed:
            self._count_cap = None
            self._span_cap = self._cfg.horizon / 4.0
        else:
            self._count_cap = max(self._head_capacity, self._cfg.last_n // 4)
            self._span_cap = None
        self._sealed: List[_Bucket] = []  # oldest first
        self._sealed_total = 0
        self._head: HullSummary = self._spec.build()
        self._head_count = 0
        self._head_start_ts: Optional[float] = None
        self._head_end_ts: Optional[float] = None
        self._now: Optional[float] = None
        self._sealed_cache: Optional[HullSummary] = None
        self._view: Optional[HullSummary] = None
        self._view_generation = -1
        self.points_seen = 0
        self.buckets_sealed = 0
        self.buckets_merged = 0
        self.buckets_expired = 0

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> WindowConfig:
        """The window policy this summary enforces."""
        return self._cfg

    @property
    def spec(self):
        """The per-bucket summary scheme (as a SummarySpec)."""
        return self._spec

    @property
    def covered_count(self) -> int:
        """Points currently held in live buckets — the actual window
        length (between the target and target + slack; live points are
        always exactly the most recent ``covered_count`` of the
        stream)."""
        return self._sealed_total + self._head_count

    @property
    def bucket_count(self) -> int:
        """Live buckets, counting a non-empty head."""
        return len(self._sealed) + (1 if self._head_count else 0)

    @property
    def last_ts(self) -> Optional[float]:
        """Latest time observed (insert ``ts`` or ``advance_time``)."""
        return self._now

    def buckets(self) -> List[Dict]:
        """Read-only bucket ledger, oldest first (diagnostics/CLI)."""
        out = [
            {
                "count": b.count,
                "level": b.level,
                "start_ts": b.start_ts,
                "end_ts": b.end_ts,
                "samples": b.summary.sample_size,
            }
            for b in self._sealed
        ]
        if self._head_count:
            out.append(
                {
                    "count": self._head_count,
                    "level": -1,  # the open head
                    "start_ts": self._head_start_ts,
                    "end_ts": self._head_end_ts,
                    "samples": self._head.sample_size,
                }
            )
        return out

    # -- ingestion ---------------------------------------------------------

    def insert(self, p: Point, ts: Optional[float] = None) -> bool:
        """Process one stream point (``ts`` required for time windows).

        Raises:
            ValueError: on non-finite points, a missing/decreasing
                timestamp (time windows enforce monotonic event time).
        """
        p = coerce_point(p)
        ts = self._check_ts(ts)
        # ``ts > start + cap`` (not ``ts - start > cap``): the same
        # float comparison insert_many's searchsorted makes, so both
        # paths seal at the same point.
        if (
            self._span_cap is not None
            and self._head_count
            and ts > self._head_start_ts + self._span_cap
        ):
            self._seal_head()
        changed = self._head.insert(p)
        self._note_head_point(ts)
        if self._head_count >= self._head_capacity:
            self._seal_head()
        self._expire()
        if changed:
            self._bump_generation()
        return changed

    def insert_many(
        self, points, chunk: int = DEFAULT_CHUNK, ts=None
    ) -> int:
        """Batch ingestion; returns the summary-changing point count.

        ``ts`` may be None (count windows), one timestamp for the whole
        batch, or a parallel length-``n`` non-decreasing sequence.  The
        batch is validated atomically before any point lands; slices
        are fed to the head bucket's own (vectorised)
        :meth:`insert_many` between seals.
        """
        arr = as_point_array(points)
        n = len(arr)
        ts_arr = self._check_ts_batch(ts, n)
        if n == 0:
            return 0
        changed = 0
        pos = 0
        while pos < n:
            room = self._head_capacity - self._head_count
            if room <= 0:
                self._seal_head()
                continue
            end = pos + min(room, n - pos)
            if ts_arr is not None and self._span_cap is not None:
                start = (
                    self._head_start_ts
                    if self._head_count
                    else float(ts_arr[pos])
                )
                limit = int(
                    np.searchsorted(
                        ts_arr, start + self._span_cap, side="right"
                    )
                )
                if limit <= pos:
                    if self._head_count:
                        self._seal_head()
                        continue
                    limit = pos + 1  # one point never exceeds the span
                end = min(end, limit)
            changed += self._head.insert_many(arr[pos:end], chunk=chunk)
            count = end - pos
            if ts_arr is not None:
                if self._head_count == 0:
                    self._head_start_ts = float(ts_arr[pos])
                self._head_end_ts = float(ts_arr[end - 1])
                self._now = float(ts_arr[end - 1])
            self._head_count += count
            self.points_seen += count
            pos = end
            if self._head_count >= self._head_capacity:
                self._seal_head()
            self._expire()
        if changed:
            self._bump_generation()
        return changed

    def advance_time(self, now: float) -> int:
        """Advance the window clock without new data; expire stale
        buckets.  Returns how many buckets were dropped.  ``now``
        earlier than the latest observed time is clamped (per-key event
        time may run ahead of a broadcast wall clock).

        Raises:
            ValueError: on count-based windows (no clock) or a
                non-finite ``now``.
        """
        if not self._cfg.timed:
            raise ValueError("advance_time requires a time-based window")
        now = float(now)
        if not math.isfinite(now):
            raise ValueError("advance_time requires a finite timestamp")
        if self._now is None or now > self._now:
            self._now = now
        before = self.buckets_expired
        self._expire()
        return self.buckets_expired - before

    # -- queries -----------------------------------------------------------

    def merged_view(self) -> HullSummary:
        """One ordinary summary covering the live window (cached).

        The full query layer — ``diameter``, ``width``,
        ``DirectionalExtentIndex`` — runs on it unchanged.  Treat it as
        read-only: it is rebuilt lazily (sealed buckets fold into a
        churn-invalidated sub-cache, so a rebuild after plain inserts
        costs two merges, not one per bucket) and callers may
        :meth:`~repro.core.base.HullSummary.merge` it into their own
        summaries (merging never mutates its right operand).
        """
        if self._view is not None and self._view_generation == self.generation:
            return self._view
        view = self._spec.build()
        view.merge(self._sealed_merged())
        if self._head_count:
            view.merge(self._head)
        self._view = view
        self._view_generation = self.generation
        return view

    def hull(self) -> List[Point]:
        """Approximate hull of the live window (CCW convex polygon)."""
        return self.merged_view().hull()

    def samples(self) -> List[Point]:
        """Stored samples of the merged view (all are live input points)."""
        return self.merged_view().samples()

    @property
    def sample_size(self) -> int:
        """Points actually stored across the live buckets.

        O(buckets), no view construction — the engine's ``stats()``
        calls this per key per call, and building a merged view just to
        count (which also dedups, under-reporting storage) would make
        stats a hull-merge workload.
        """
        total = sum(b.summary.sample_size for b in self._sealed)
        if self._head_count:
            total += self._head.sample_size
        return total

    def support(self, theta: float) -> float:
        """Inner bound on the window's support function at angle
        ``theta`` (``-inf`` while the window is empty)."""
        u = unit(theta)
        return max(
            (dot(s, u) for s in self.merged_view().samples()),
            default=-math.inf,
        )

    # -- merging -----------------------------------------------------------

    def merge(self, other) -> "HullSummary":
        """Refused: two windows' bucket timelines cannot interleave
        after the fact.  Merge :meth:`merged_view` snapshots instead —
        that is how the engines reduce windowed global queries."""
        raise TypeError(
            "windowed summaries do not merge; merge their merged_view() "
            "snapshots instead"
        )

    # -- persistence ---------------------------------------------------------

    def get_config(self) -> Dict:
        """Constructor kwargs recreating an equivalent empty window.

        ``max_delay`` (bounded-lateness tolerance) is engine-level
        policy, not summary state — the summary itself is always
        strictly monotonic and only ever sees watermark-released
        sorted runs — so it is not part of the summary config.
        """
        cfg = self._cfg.to_doc()
        cfg.pop("max_delay", None)
        return {"scheme": self._spec.to_doc(), **cfg}

    @classmethod
    def config_from_doc(cls, config: Dict) -> Dict:
        """A stored config minus the removed ``warm_start`` option
        (see :func:`~repro.window.config.without_warm_start`)."""
        return without_warm_start(config)

    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot: every bucket in the
        :mod:`repro.streams.io` summary format plus the window ledger."""
        return {
            "now": self._now,
            "points_seen": self.points_seen,
            "buckets_sealed": self.buckets_sealed,
            "buckets_merged": self.buckets_merged,
            "buckets_expired": self.buckets_expired,
            "head": {
                "count": self._head_count,
                "start_ts": self._head_start_ts,
                "end_ts": self._head_end_ts,
                "state": summary_state(self._head),
            },
            "sealed": [
                {
                    "count": b.count,
                    "level": b.level,
                    "start_ts": b.start_ts,
                    "end_ts": b.end_ts,
                    "state": summary_state(b.summary),
                }
                for b in self._sealed
            ],
        }

    def load_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this (fresh)
        window: identical buckets, counters, and clock."""
        self._sealed = [
            _Bucket(
                summary_from_state(doc["state"], factory=self._spec.build),
                int(doc["count"]),
                int(doc["level"]),
                doc["start_ts"],
                doc["end_ts"],
            )
            for doc in state["sealed"]
        ]
        self._sealed_total = sum(b.count for b in self._sealed)
        head = state["head"]
        self._head = summary_from_state(
            head["state"], factory=self._spec.build
        )
        self._head_count = int(head["count"])
        self._head_start_ts = head["start_ts"]
        self._head_end_ts = head["end_ts"]
        self._now = state["now"]
        self.points_seen = int(state["points_seen"])
        self.buckets_sealed = int(state["buckets_sealed"])
        self.buckets_merged = int(state["buckets_merged"])
        self.buckets_expired = int(state["buckets_expired"])
        self._sealed_cache = None
        self._view = None
        self._bump_generation()

    # -- internals -----------------------------------------------------------

    def _check_ts(self, ts) -> Optional[float]:
        if ts is None:
            if self._cfg.timed:
                raise ValueError(
                    "time-based windows require an explicit ts per insert"
                )
            return None
        ts = float(ts)
        if not math.isfinite(ts):
            raise ValueError("ts must be finite")
        if self._now is not None and ts < self._now:
            raise ValueError(
                f"timestamps must be non-decreasing: got {ts} after "
                f"{self._now}"
            )
        return ts

    def _check_ts_batch(self, ts, n: int) -> Optional[np.ndarray]:
        ts_arr = as_ts_array(ts, n)
        if ts_arr is None:
            if self._cfg.timed and n:
                raise ValueError(
                    "time-based windows require explicit ts for every batch"
                )
            return None
        if n == 0:
            return ts_arr
        if not np.isfinite(ts_arr).all():
            raise ValueError("ts must be finite")
        if (np.diff(ts_arr) < 0.0).any():
            raise ValueError("ts must be non-decreasing within a batch")
        if self._now is not None and ts_arr[0] < self._now:
            raise ValueError(
                f"timestamps must be non-decreasing: got {ts_arr[0]} "
                f"after {self._now}"
            )
        return ts_arr

    def _note_head_point(self, ts: Optional[float]) -> None:
        if ts is not None:
            if self._head_count == 0:
                self._head_start_ts = ts
            self._head_end_ts = ts
            self._now = ts
        self._head_count += 1
        self.points_seen += 1

    def _seal_head(self) -> None:
        if self._head_count == 0:
            return
        self._sealed.append(
            _Bucket(
                self._head,
                self._head_count,
                0,
                self._head_start_ts,
                self._head_end_ts,
            )
        )
        self._sealed_total += self._head_count
        self._reset_head()
        self.buckets_sealed += 1
        OBS.WINDOW_BUCKET_SEALS.inc()
        self._sealed_cache = None
        self._bump_generation()
        self._coalesce()

    def _reset_head(self) -> None:
        self._head = self._spec.build()
        self._head_count = 0
        self._head_start_ts = None
        self._head_end_ts = None

    def _can_merge(self, older: _Bucket, newer: _Bucket) -> bool:
        if (
            self._count_cap is not None
            and older.count + newer.count > self._count_cap
        ):
            return False
        if (
            self._span_cap is not None
            and older.start_ts is not None
            and newer.end_ts is not None
            and newer.end_ts - older.start_ts > self._span_cap
        ):
            return False
        return True

    def _coalesce(self) -> None:
        """Exponential-histogram compaction: while some size class holds
        more than ``level_width`` buckets, merge its two oldest
        (adjacent — levels are non-increasing oldest-to-newest) into
        the next class.  Merges that would break the count/span caps
        are refused, which is what keeps expiry granular."""
        while True:
            by_level: Dict[int, List[int]] = {}
            for i, b in enumerate(self._sealed):
                by_level.setdefault(b.level, []).append(i)
            merged = False
            for level in sorted(by_level):
                idxs = by_level[level]
                if len(idxs) <= self._cfg.level_width:
                    continue
                i = idxs[0]
                older, newer = self._sealed[i], self._sealed[i + 1]
                if newer.level != level or not self._can_merge(older, newer):
                    continue
                older.summary.merge(newer.summary)
                older.count += newer.count
                if newer.end_ts is not None:
                    older.end_ts = newer.end_ts
                older.level += 1
                del self._sealed[i + 1]
                self.buckets_merged += 1
                OBS.WINDOW_BUCKET_MERGES.inc()
                self._sealed_cache = None
                merged = True
                break
            if not merged:
                return

    def _expire(self) -> None:
        if self._cfg.timed:
            if self._now is None:
                return
            cutoff = self._now - self._cfg.horizon
            while (
                self._sealed
                and self._sealed[0].end_ts is not None
                and self._sealed[0].end_ts < cutoff
            ):
                self._drop_oldest()
            if (
                self._head_count
                and self._head_end_ts is not None
                and self._head_end_ts < cutoff
            ):
                # The open head itself went stale (advance_time with no
                # new data): drop its contents as one expiry.
                self._reset_head()
                self.buckets_expired += 1
                OBS.WINDOW_BUCKET_EXPIRIES.inc()
                self._bump_generation()
        else:
            n = self._cfg.last_n
            while (
                self._sealed
                and self.covered_count - self._sealed[0].count >= n
            ):
                self._drop_oldest()

    def _drop_oldest(self) -> None:
        b = self._sealed.pop(0)
        self._sealed_total -= b.count
        self.buckets_expired += 1
        OBS.WINDOW_BUCKET_EXPIRIES.inc()
        self._sealed_cache = None
        self._bump_generation()

    def _sealed_merged(self) -> HullSummary:
        if self._sealed_cache is None:
            folded = self._spec.build()
            for b in self._sealed:
                folded.merge(b.summary)
            self._sealed_cache = folded
        return self._sealed_cache
