"""The multi-stream hull engine.

One :class:`~repro.core.base.HullSummary` bounds one stream in O(r)
space — the engine manages *many* of them: a fleet of vehicles, a grid
of sensors, one summary per user.  It is the architectural seam the
scaling roadmap builds on (sharding keys across engines, batching
records per key, caching hot summaries) and deliberately stays simple:

* **factory-injected scheme** — the engine is agnostic to which summary
  it manages; pass ``lambda: AdaptiveHull(32)`` (exactly like the
  query-layer trackers) and every key lazily gets its own instance on
  first touch;
* **batch routing** — :meth:`StreamEngine.ingest` takes an iterable of
  ``(key, x, y)`` records, groups them by key, and hands each group to
  the summary's vectorised :meth:`insert_many`;
  :meth:`StreamEngine.ingest_arrays` takes a parallel ``keys`` array
  and ``(n, 2)`` points block and routes with NumPy grouping;
* **eviction/compaction hooks** — an optional ``max_streams`` LRU bound
  with an ``on_evict`` callback, plus :meth:`StreamEngine.compact` for
  predicate-driven sweeps (drop idle keys, persist-and-forget, …);
* **standing queries** — :meth:`StreamEngine.subscribe` registers a
  callback that fires after every batch with the set of touched keys,
  and :meth:`StreamEngine.attach_tracker` binds engine-owned summaries
  into a :class:`~repro.queries.trackers.MultiStreamTracker` so the
  paper's separation/containment/overlap queries run live against
  engine state;
* **snapshot/restore** — :meth:`StreamEngine.snapshot` serialises every
  summary through the :mod:`repro.streams.io` summary format;
  :meth:`StreamEngine.restore` rebuilds an identical engine (identical
  hulls, counters, and refinement state for the core schemes).

The engine is the in-process tier of the
:class:`~repro.engine.protocol.EngineProtocol` contract; the keyed
routing, subscription dispatch, and global query folds it shares with
the multi-process :class:`~repro.shard.engine.ShardedEngine` live in
:mod:`repro.engine.common`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..core.base import HullSummary
from ..core.batch import as_key_array, as_point_array, as_ts_array
from ..geometry.vec import Point
from ..obs import metrics as OBS
from ..obs import registry as obs_registry
from ..obs.trace import span
from ..streams.io import require_registered, summary_from_state, summary_state
from ..window import WindowConfig, windowed_factory
from .common import (
    BaseStats,
    EngineBase,
    Subscription,
    canonical_key_order,
    check_snapshot_doc,
    key_index_runs,
    split_records,
    validate_ts_batch,
)
from .time import ReorderBuffer, late_split

__all__ = ["StreamEngine", "EngineStats", "Subscription"]

SummaryFactory = Callable[[], HullSummary]
PathLike = Union[str, Path]

ENGINE_FORMAT = "repro.engine"
ENGINE_FORMAT_VERSION = 1


@dataclass
class EngineStats(BaseStats):
    """Aggregate bookkeeping across all keyed streams.

    The bucket fields describe the sliding-window layer and stay zero
    on unwindowed engines: ``buckets`` is the current live bucket
    total, ``bucket_merges``/``bucket_expiries`` count coalesces and
    whole-bucket expiries over the engine's lifetime (evicted keys'
    counts included).  The event-time fields stay zero under the
    strict (default) time policy: ``late_dropped`` counts records that
    arrived later than the bounded-lateness watermark (counted and
    dropped, never applied — per-key breakdown via
    :meth:`StreamEngine.late_drops`), ``buffered`` is the number of
    admitted records still held in reorder buffers, waiting for the
    watermark to pass them.
    """

    def __str__(self) -> str:
        return (
            f"streams={self.streams} points={self.points_ingested:,} "
            f"batches={self.batches_ingested} evictions={self.evictions} "
            f"stored={self.sample_points}" + self._suffix()
        )


class StreamEngine(EngineBase):
    """Thousands of keyed hull summaries behind one batch front door.

    Args:
        factory: zero-argument callable producing a fresh summary; one
            is created lazily per key on first touch.  Its scheme must
            be in :func:`repro.streams.io.scheme_registry` (the schemes
            whose snapshot restores exactly); construction refuses
            any other with an error that names it.
        max_streams: optional LRU bound on live summaries; exceeding it
            evicts the least-recently-touched key (after calling
            ``on_evict``).
        on_evict: optional ``callback(key, summary)`` invoked before a
            summary is dropped (eviction or :meth:`compact`) — the
            natural place to persist it via
            :func:`repro.streams.io.save_summary`.
        window: optional :class:`~repro.window.WindowConfig` (or kwargs
            dict).  When set, every key gets a
            :class:`~repro.window.WindowedHullSummary` wrapping the
            factory's scheme: ingestion accepts per-record timestamps,
            :meth:`advance_time` expires stale buckets across all keys,
            and every query answers over the sliding window instead of
            the whole stream prefix.  A config with ``max_delay`` opts
            a time window into bounded-lateness event time
            (:mod:`repro.engine.time`): out-of-order records within
            the bound are held in per-key reorder buffers and applied
            in sorted order once the watermark passes them (queries
            answer over the *applied* state), while later-than-
            watermark records are counted per key and dropped.
        on_late: optional dead-letter callback
            ``callback(key, points, ts, watermark)`` invoked with each
            key's later-than-watermark batch slice *before* it is
            dropped (``points`` is ``(n, 2)``, ``ts`` parallel, and
            ``watermark`` the cut the records missed).  Count-only
            accounting remains the default.  Requires a
            bounded-lateness window.  Callback exceptions propagate
            (like ``on_evict``), failing the offending ingest call.
        durability: optional
            :class:`~repro.durable.DurabilityConfig` (or a bare WAL
            directory path).  When set, every mutation is appended to
            a write-ahead log *before* it is applied — crash recovery
            via :func:`repro.durable.recover_stream_engine` replays
            the tail onto the latest compacted snapshot, bit-identical
            by determinism.  A fresh engine requires the directory
            empty; continuing an existing log goes through recovery.
    """

    def __init__(
        self,
        factory: SummaryFactory,
        *,
        max_streams: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, HullSummary], None]] = None,
        window=None,
        on_late=None,
        durability=None,
    ):
        if max_streams is not None and max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.window = WindowConfig.coerce(window)
        self._base_factory = factory
        if self.window is not None:
            self._factory = windowed_factory(factory, self.window)
        else:
            # One probe build: the engine hosts only schemes whose
            # snapshot restores exactly (restore, resize and replicas
            # all rest on it).
            require_registered(factory())
            self._factory = factory
        # Under bounded lateness the engine owns the watermark clock and
        # one reorder buffer per key (the window summaries themselves
        # stay strictly monotonic and untouched).
        self._init_event_time(on_late)
        self._buffers: Dict[Hashable, ReorderBuffer] = {}
        self._summaries: Dict[Hashable, HullSummary] = {}
        self._subscriptions: List[Subscription] = []
        self._tracker_bindings: Dict[Hashable, List] = {}
        self.max_streams = max_streams
        self.on_evict = on_evict
        self.points_ingested = 0
        self.batches_ingested = 0
        self.evictions = 0
        # Window counters of already-evicted keys, so engine-lifetime
        # stats survive LRU churn.
        self._retired_bucket_merges = 0
        self._retired_bucket_expiries = 0
        if durability is not None:
            self.attach_durability(durability, require_empty=True)

    # -- lifecycle / durability --------------------------------------------

    def close(self) -> None:
        """Release engine resources: seal the write-ahead and
        dead-letter logs if durability is attached (otherwise a no-op
        for the in-process tier, here for
        :class:`~repro.engine.protocol.EngineProtocol` lifecycle
        symmetry with the sharded tier)."""
        self._close_logs()

    def _wal_meta(self) -> dict:
        """Engine configuration captured into the log, so recovery can
        rebuild the factory/window without the caller restating them
        (possible only when the factory is a SummarySpec.build)."""
        owner = getattr(self._base_factory, "__self__", None)
        return {
            "tier": "engine",
            "spec": owner.to_doc()
            if owner is not None and hasattr(owner, "to_doc")
            else None,
            "window": self.window.to_doc() if self.window is not None else None,
        }

    # -- keyed access ------------------------------------------------------

    @property
    def summary_factory(self) -> SummaryFactory:
        """The effective per-key factory (window-wrapped when the
        engine is windowed) — what snapshot restore must produce."""
        return self._factory

    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._summaries

    def keys(self) -> List[Hashable]:
        """Live stream keys, least-recently-touched first."""
        return list(self._summaries)

    def get(self, key: Hashable) -> Optional[HullSummary]:
        """The summary for ``key``, or None if the key is not live."""
        return self._summaries.get(key)

    def summary(self, key: Hashable) -> HullSummary:
        """The summary for ``key``, created lazily on first use."""
        summary = self._summaries.get(key)
        if summary is None:
            summary = self._factory()
            self._summaries[key] = summary
            # Keep attached trackers pointing at the live object: after
            # an eviction, the key's next touch re-binds the fresh
            # summary so standing queries never read dead state.
            for tracker in self._tracker_bindings.get(key, ()):
                tracker.bind(key, summary)
            self._enforce_bound()
        return summary

    def hull(self, key: Hashable) -> List[Point]:
        """Approximate hull of a keyed stream ([] if never fed)."""
        summary = self._summaries.get(key)
        return summary.hull() if summary is not None else []

    def adopt(self, key: Hashable, summary: HullSummary) -> HullSummary:
        """Install an externally built summary under ``key``.

        Used by the shard layer when a resize (live, or as part of a
        restore onto a different worker count) moves a key: the
        deserialised summary is adopted by the engine that now owns
        it.  Replaces any live summary for the key, re-binds attached
        trackers, and enforces the LRU bound like any other touch.
        """
        self._summaries.pop(key, None)
        self._summaries[key] = summary
        for tracker in self._tracker_bindings.get(key, ()):
            tracker.bind(key, summary)
        self._enforce_bound()
        return summary

    def merged_summary(
        self, keys: Optional[Iterable[Hashable]] = None
    ) -> HullSummary:
        """One summary covering the union of the selected keyed streams.

        Builds a fresh summary from the engine's factory and folds every
        (live) selected summary into it — the all-keys reduction a shard
        worker answers global queries with (:meth:`HullSummary.merge`
        leaves its right operand untouched, so the engine's own
        summaries are never mutated; the cross-shard *tree* reduction
        over disposable deserialised summaries lives in
        :func:`~repro.core.base.tree_merge`).  ``keys=None`` merges
        every live stream; unknown keys are skipped.
        """
        # Fold in canonical key order: the merged answer then depends
        # only on what was ingested per key — never on batch
        # interleaving or LRU touch history — which is the property the
        # serving layer's bit-identical parity rests on.
        if keys is None:
            selection = list(self._summaries)
        else:
            selection = [k for k in keys if k in self._summaries]
        selection.sort(key=canonical_key_order)
        selected = [self._summaries[k] for k in selection]
        if self.window is not None:
            # Windowed engines reduce over per-key *merged views* (plain
            # summaries of the base scheme): windows themselves refuse
            # cross-key merging, and the global answer should cover the
            # union of the live windows.
            merged = self._base_factory()
            for s in selected:
                merged.merge(s.merged_view())
            return merged
        merged = self._factory()
        for s in selected:
            merged.merge(s)
        return merged

    # -- event time --------------------------------------------------------

    # ``watermark`` / ``late_drops`` / ``late_dropped`` come from
    # EventTimeAPI (shared with the sharded tier).

    @property
    def buffered_records(self) -> int:
        """Admitted records still waiting in reorder buffers."""
        return sum(len(b) for b in self._buffers.values())

    def adopt_pending(self, key: Hashable, buffer_doc: dict) -> None:
        """Install a serialised reorder buffer under ``key`` (the shard
        layer's resize hook, mirroring :meth:`adopt` for
        not-yet-released records).

        Raises:
            ValueError: on an engine without a bounded-lateness window
                (there is nothing to buffer into).
        """
        if self._event_clock is None:
            raise ValueError(
                "adopt_pending requires a bounded-lateness window"
            )
        buf = ReorderBuffer.from_doc(buffer_doc)
        if len(buf):
            self._buffers[key] = buf

    def advance_time(
        self, now: float, watermark: Optional[float] = None
    ) -> int:
        """Advance every live windowed summary's clock (time-based
        windows only); returns the total number of expired buckets.
        Clocks that already ran ahead are left alone.  Subscribers are
        notified with the keys whose windows expired buckets — their
        hulls moved without any new data.

        Under a bounded-lateness policy ``now`` is an *event-time
        heartbeat*: it advances the watermark to ``now - max_delay``,
        the reorder buffers flush everything the new watermark passed
        (released keys notify subscribers too), and only then do the
        summaries expire — and only up to the watermark, never to raw
        ``now``, so a bucket can never expire while in-bound records
        that belong near it are still buffered.  ``watermark`` is the
        shard tier's internal hook: the parent computes the global
        watermark once and ships it, so every worker releases at the
        same cut no matter how keys are sharded.

        Raises:
            ValueError: when the engine has no time-based window, on a
                non-finite ``now`` (both before anything is logged), or
                when ``watermark`` is passed under the strict policy.
        """
        return self.advance_time_detail(now, watermark=watermark)[0]

    def advance_time_detail(
        self, now: float, watermark: Optional[float] = None
    ) -> Tuple[int, List[Hashable]]:
        """:meth:`advance_time`, also returning the keys whose windows
        expired buckets (or received flushed records) — what a shard
        worker ships to the parent so ring-level subscribers see the
        same notifications as local ones."""
        now = self._begin_advance(now, watermark)
        if self._event_clock is None:
            if watermark is not None:
                raise ValueError(
                    "watermark requires a bounded-lateness window"
                )
            total = 0
            touched: Set[Hashable] = set()
            for key, s in self._summaries.items():
                expired = s.advance_time(now)
                if expired:
                    total += expired
                    touched.add(key)
            if total:
                OBS.ENGINE_EXPIRED_BUCKETS.inc(total)
            if touched:
                self._notify(touched)
            return total, list(touched)
        if watermark is None:
            wm = self._event_clock.observe(now)
        else:
            wm = self._event_clock.observe_watermark(float(watermark))
        touched = set()
        # Flush the reorder buffers FIRST: the advance may have made
        # buffered in-bound records final, and expiry must never run
        # before they reach their buckets (nor may the summary clocks
        # jump past timestamps still owed to them).
        for key in list(self._buffers):
            released = self._buffers[key].release(wm)
            if released is not None:
                self._apply_released(key, released[0], released[1])
                touched.add(key)
        total = 0
        if math.isfinite(wm):
            for key, s in self._summaries.items():
                expired = s.advance_time(wm)
                if expired:
                    total += expired
                    touched.add(key)
        if total:
            OBS.ENGINE_EXPIRED_BUCKETS.inc(total)
        if touched:
            self._notify(touched)
        return total, list(touched)

    def stats(self) -> EngineStats:
        """Aggregate counters across all live streams.

        Also refreshes the engine-level obs gauges and folds the
        process registry snapshot into the document's ``obs`` field
        (one of the three export surfaces of :mod:`repro.obs`).
        """
        live = list(self._summaries.values())
        sample_points = sum(s.sample_size for s in live)
        buffered = self.buffered_records
        OBS.ENGINE_STREAMS.set(len(live))
        OBS.ENGINE_SAMPLE_POINTS.set(sample_points)
        OBS.ENGINE_BUFFERED_RECORDS.set(buffered)
        return EngineStats(
            streams=len(live),
            points_ingested=self.points_ingested,
            batches_ingested=self.batches_ingested,
            evictions=self.evictions,
            sample_points=sample_points,
            buckets=sum(getattr(s, "bucket_count", 0) for s in live),
            bucket_merges=self._retired_bucket_merges
            + sum(getattr(s, "buckets_merged", 0) for s in live),
            bucket_expiries=self._retired_bucket_expiries
            + sum(getattr(s, "buckets_expired", 0) for s in live),
            late_dropped=self.late_dropped,
            buffered=buffered,
            obs=obs_registry().collect(),
        )

    # -- ingestion ---------------------------------------------------------

    # ``insert`` comes from EngineBase: a one-record ``ingest_arrays``.

    def ingest(
        self, records: Iterable[Tuple[Hashable, float, float]], chunk: int = 4096
    ) -> int:
        """Batch-route ``(key, x, y)`` records; returns changed count.

        Records are grouped by key and each group is ingested through
        the summary's (vectorised) :meth:`insert_many`.  On a windowed
        engine, records may instead be ``(key, x, y, ts)`` — all or
        none of a batch must carry timestamps.  Subscribers are
        notified once, after the whole batch, with the set of touched
        keys; an empty batch is a no-op.

        This is :func:`~repro.engine.common.split_records` feeding
        :meth:`ingest_arrays`, so both front doors (and both tiers —
        the sharded ``ingest`` delegates the same way) share one
        grouping/validation path.
        """
        keys, pts, ts_list = split_records(
            records, windowed=self.window is not None
        )
        return self.ingest_arrays(keys, pts, chunk=chunk, ts=ts_list)

    def ingest_arrays(
        self,
        keys: Sequence[Hashable],
        points,
        chunk: int = 4096,
        ts=None,
        watermark: Optional[float] = None,
    ) -> int:
        """Batch-route a parallel ``keys`` sequence and ``(n, 2)`` block.

        The NumPy-native front door: grouping is one ``argsort`` over
        the key array (:func:`~repro.engine.common.key_index_runs`), so
        a million-record batch routes without a Python-level loop over
        records.  On a windowed engine ``ts`` may carry event time —
        one scalar for the whole batch or a parallel length-``n``
        array; per-key timestamp runs must be non-decreasing (a
        globally time-ordered batch always is) under the strict
        policy.  Under bounded lateness the batch may be arbitrarily
        out of order: each record is judged in arrival order against
        the watermark of everything *before* it (late ones are counted
        and dropped, with subscribers notified), the rest are buffered
        and the runs the new watermark finalises are released sorted;
        the changed count covers records applied by this call's
        releases.  ``watermark`` is the shard tier's internal hook (a
        pre-screened slice plus the parent's global watermark).
        """
        arr = as_point_array(points)
        key_arr = as_key_array(keys, len(arr))
        ts_arr = self._check_batch_ts(ts, len(arr))
        if len(arr) == 0:
            return 0
        if self._wal is not None:
            # Write-ahead: the ack the caller gets implies the batch is
            # durable.  A slice the engine rejects *after* this point
            # rejects identically on replay (determinism), so recovery
            # skips it and still lands on the acknowledged state.
            self._wal.append_batch(key_arr, arr, ts_arr, watermark)
        p0, b0 = self.points_ingested, self.batches_ingested
        with span("engine.ingest", records=len(arr)) as sp:
            changed = self._ingest_validated(
                key_arr, arr, ts_arr, chunk, watermark
            )
        OBS.ENGINE_INGEST_BATCH_SECONDS.observe(sp.duration)
        if self.points_ingested > p0:
            OBS.ENGINE_INGEST_RECORDS.inc(self.points_ingested - p0)
        if self.batches_ingested > b0:
            OBS.ENGINE_INGEST_BATCHES.inc(self.batches_ingested - b0)
        self._maybe_compact()
        return changed

    def _ingest_validated(
        self,
        key_arr: np.ndarray,
        arr: np.ndarray,
        ts_arr,
        chunk: int,
        watermark: Optional[float],
    ) -> int:
        if self._event_clock is not None:
            return self._ingest_bounded(key_arr, arr, ts_arr, chunk, watermark)
        if watermark is not None:
            raise ValueError("watermark requires a bounded-lateness window")
        if ts_arr is None:
            # Untimestamped: stream the groups lazily — no reason to
            # hold every per-key slice of a huge batch at once.
            groups = (
                (k, arr[idx], None) for k, idx in key_index_runs(key_arr)
            )
            return self._ingest_groups(groups, chunk)
        # Timestamped runs are validated for every key before any is
        # applied, mirroring the records path's cross-key atomicity.
        validated = []
        for k, idx in key_index_runs(key_arr):
            validated.append(
                (k, arr[idx], self._check_group_ts(k, ts_arr[idx]))
            )
        return self._ingest_groups(validated, chunk)

    def _check_batch_ts(self, ts, n: int):
        """Normalise a batch-level ts argument (None, scalar, or
        parallel array) without per-key semantics yet.  Missing ts on a
        timed window (and, under bounded lateness, any non-finite ts)
        is rejected here — before any key is touched or evicted — to
        keep the batch rejection atomic."""
        if ts is not None and self.window is None:
            raise ValueError("ts requires a windowed engine")
        if (
            ts is None
            and n
            and self.window is not None
            and self.window.timed
        ):
            raise ValueError(
                "time-based windows require a ts on every record"
            )
        ts_arr = as_ts_array(ts, n)
        if ts_arr is not None and self.time_policy.bounded:
            validate_ts_batch(ts_arr, None, "", policy=self.time_policy)
        return ts_arr

    def _check_group_ts(self, key: Hashable, run_ts) -> np.ndarray:
        """Validate one key's timestamp run against its live summary so
        the whole batch can be rejected before any group is applied."""
        seq = np.asarray(run_ts, dtype=np.float64)
        summary = self._summaries.get(key)
        last = summary.last_ts if summary is not None else None
        validate_ts_batch(seq, last, f"key {key!r}: ")
        return seq

    def _ingest_groups(self, groups, chunk: int) -> int:
        changed = 0
        touched: Set[Hashable] = set()
        for key, pts, ts in groups:
            self._touch(key)
            summary = self.summary(key)
            before = summary.points_seen if hasattr(summary, "points_seen") else None
            if ts is None:
                changed += summary.insert_many(pts, chunk=chunk)
            else:
                changed += summary.insert_many(pts, chunk=chunk, ts=ts)
            self.points_ingested += (
                summary.points_seen - before if before is not None else len(pts)
            )
            touched.add(key)
        if not touched:
            return 0  # an empty batch is a no-op on every tier
        self.batches_ingested += 1
        self._notify(touched)
        return changed

    def _ingest_bounded(
        self,
        key_arr: np.ndarray,
        arr: np.ndarray,
        ts_arr: np.ndarray,
        chunk: int,
        ext_watermark: Optional[float],
    ) -> int:
        """Batch bounded-lateness path: split late records off in
        arrival order, buffer the rest per key, release every touched
        key's finalised run under the new watermark.  Late drops are
        counted per key and surfaced to subscribers alongside the keys
        whose summaries actually changed."""
        if ext_watermark is None:
            late, new_max = late_split(
                ts_arr, self._event_clock.max_ts, self._event_clock.max_delay
            )
            wm = self._event_clock.observe(new_max)
        else:
            # The shard parent pre-screened the slice and computed the
            # global watermark; nothing here can be late.
            late = None
            wm = self._event_clock.observe_watermark(float(ext_watermark))
        changed = 0
        admitted = 0
        # Notification contract (same on both tiers): a batch notifies
        # every key with admitted records — buffered or applied — plus
        # the keys with late drops; release-without-new-data paths
        # (advance_time) notify the released keys separately.
        touched: Set[Hashable] = set()
        for key, idx in key_index_runs(key_arr):
            if late is not None:
                late_mask = late[idx]
                late_count = int(late_mask.sum())
                if late_count:
                    late_idx = idx[late_mask]
                    self._record_late(
                        key,
                        late_count,
                        points=arr[late_idx],
                        ts=ts_arr[late_idx],
                    )
                    touched.add(key)
                    idx = idx[~late_mask]
                    if len(idx) == 0:
                        continue
            admitted += len(idx)
            touched.add(key)
            buf = self._buffers.setdefault(key, ReorderBuffer())
            buf.add(arr[idx], ts_arr[idx])
            released = buf.release(wm)
            if released is not None:
                changed += self._apply_released(
                    key, released[0], released[1], chunk
                )
        if admitted:
            self.points_ingested += admitted
            self.batches_ingested += 1
        if touched:
            self._notify(touched)
        return changed

    def _apply_released(
        self, key: Hashable, pts: np.ndarray, ts_run: np.ndarray, chunk: int = 4096
    ) -> int:
        """Feed one finalised (sorted) run to the key's summary through
        the unchanged strictly-monotonic window path."""
        self._touch(key)
        summary = self.summary(key)
        OBS.ENGINE_RELEASED_RECORDS.inc(len(pts))
        return summary.insert_many(pts, chunk=chunk, ts=ts_run)

    # -- eviction / compaction ---------------------------------------------

    def evict(self, key: Hashable) -> HullSummary:
        """Drop a keyed summary (KeyError if not live) and return it.

        The ``on_evict`` hook runs first, while the summary is still
        queryable — persist it there if it must survive.  Eviction
        drops the key's *whole* state: on a bounded-lateness engine
        any not-yet-released buffered records go with it (they would
        otherwise resurrect the key with only the buffered tail once
        the watermark passed them).  Lifetime accounting — late-drop
        counts, retired bucket counters — survives, like any other
        engine-level stat.
        """
        summary = self._summaries[key]
        if self.on_evict is not None:
            self.on_evict(key, summary)
        del self._summaries[key]
        self._buffers.pop(key, None)
        self.evictions += 1
        OBS.ENGINE_EVICTIONS.inc()
        self._retired_bucket_merges += getattr(summary, "buckets_merged", 0)
        self._retired_bucket_expiries += getattr(summary, "buckets_expired", 0)
        return summary

    def extract(
        self, key: Hashable
    ) -> Optional[Tuple[Optional[HullSummary], Optional[dict]]]:
        """Remove a key *for migration*: returns ``(summary,
        buffer_doc)``, or None when the key holds no state here.

        Unlike :meth:`evict` this is not an eviction — no ``on_evict``
        hook, no eviction counter: the key's whole state (summary plus
        any not-yet-released reorder buffer) is leaving for another
        engine, which adopts it via :meth:`adopt` /
        :meth:`adopt_pending`.  ``points_ingested`` drops by the
        summary's own stream length, mirroring what adoption adds on
        the destination, so per-engine counters stay truthful across a
        live resharding.  ``summary`` may be None when only buffered
        records exist (admitted but never released under bounded
        lateness)."""
        summary = self._summaries.pop(key, None)
        buf = self._buffers.pop(key, None)
        if summary is None and buf is None:
            return None
        if summary is not None:
            self.points_ingested -= int(
                getattr(summary, "points_seen", 0) or 0
            )
        buffer_doc = buf.to_doc() if buf is not None and len(buf) else None
        return summary, buffer_doc

    def compact(
        self, drop: Callable[[Hashable, HullSummary], bool]
    ) -> List[Hashable]:
        """Evict every key for which ``drop(key, summary)`` is true;
        returns the evicted keys.  The workhorse for idle-key sweeps
        (e.g. ``engine.compact(lambda k, s: s.points_seen == 0)``)."""
        victims = [k for k, s in self._summaries.items() if drop(k, s)]
        for k in victims:
            self.evict(k)
        return victims

    def _touch(self, key: Hashable) -> None:
        """Mark a key most-recently-used (dict order is the LRU list)."""
        summary = self._summaries.pop(key, None)
        if summary is not None:
            self._summaries[key] = summary

    def _enforce_bound(self) -> None:
        if self.max_streams is None:
            return
        while len(self._summaries) > self.max_streams:
            self.evict(next(iter(self._summaries)))

    # -- standing queries ---------------------------------------------------

    # ``subscribe`` / ``_notify`` come from SubscriberAPI (shared with
    # the sharded tier, reentrancy-safe dispatch included).

    def attach_tracker(
        self,
        tracker,
        keys: Iterable[Hashable],
        on_update: Optional[Callable[[Set[Hashable]], None]] = None,
    ) -> Optional[Subscription]:
        """Bind engine-owned summaries into a multi-stream tracker.

        Each key's (lazily created) summary is registered with
        ``tracker`` under the same name, so tracker queries — distance,
        separability, containment, overlap — read the live engine
        state without copying points.  An optional ``on_update``
        callback is subscribed to batches touching the bound keys —
        the hook for re-evaluating the tracker's standing queries only
        when the hulls they watch may have moved; the returned
        :class:`Subscription` cancels it.

        Bindings survive LRU eviction: when an evicted key is touched
        again and a fresh summary is created, every tracker attached to
        that key is re-bound to the new object (until then the tracker
        answers from the last pre-eviction state).  Note that binding
        more keys than ``max_streams`` allows will itself evict the
        earliest ones.
        """
        keys = list(keys)
        for key in keys:
            self._tracker_bindings.setdefault(key, [])
            if tracker not in self._tracker_bindings[key]:
                self._tracker_bindings[key].append(tracker)
            tracker.bind(key, self.summary(key))
        if on_update is not None:
            return self.subscribe(on_update, keys)
        return None

    # -- snapshot / restore --------------------------------------------------

    def snapshot_state(self) -> dict:
        """The engine's full state as a JSON-compatible document.

        This is the payload :meth:`snapshot` writes to disk and the
        shard layer ships over worker pipes — one entry per live summary
        through the :mod:`repro.streams.io` summary format, plus the
        engine counters.  Keys must be JSON scalars (str/int/float/
        bool); anything else raises TypeError — hash-only keys cannot
        round-trip a text format.
        """
        entries = []
        for key, summary in self._summaries.items():
            self._check_snapshot_key(key)
            entries.append([key, summary_state(summary)])
        doc = {
            "format": ENGINE_FORMAT,
            "version": ENGINE_FORMAT_VERSION,
            "points_ingested": self.points_ingested,
            "batches_ingested": self.batches_ingested,
            "evictions": self.evictions,
            "window": self.window.to_doc() if self.window else None,
            "summaries": entries,
        }
        if self._event_clock is not None:
            buffers = []
            for key, buf in self._buffers.items():
                if not len(buf):
                    continue
                self._check_snapshot_key(key)
                buffers.append([key, buf.to_doc()])
            late = []
            for key, n in self._late_drops.items():
                self._check_snapshot_key(key)
                late.append([key, n])
            doc["time"] = {
                **self._event_clock.to_doc(),
                "buffers": buffers,
                "late_drops": late,
            }
        return doc

    @classmethod
    def from_snapshot_state(
        cls,
        doc: dict,
        factory: SummaryFactory,
        *,
        max_streams: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, HullSummary], None]] = None,
        window=None,
        on_late=None,
    ) -> "StreamEngine":
        """Rebuild an engine from a :meth:`snapshot_state` document.

        ``factory`` must produce the same scheme/configuration the
        snapshot was taken with (checked per summary); the restored
        engine has identical hulls and counters and keeps streaming.
        A windowed snapshot restores its own window config by default;
        passing ``window`` explicitly must match the snapshot's.
        """
        check_snapshot_doc(
            doc, ENGINE_FORMAT, ENGINE_FORMAT_VERSION, "an engine snapshot"
        )
        snap_window = doc.get("window")
        snap_window = (
            WindowConfig.from_doc(snap_window) if snap_window else None
        )
        window = WindowConfig.coerce(window)
        if window is None:
            window = snap_window
        elif window != snap_window:
            raise ValueError(
                f"snapshot window {snap_window!r} does not match requested "
                f"window {window!r}; the restored engine would expire under "
                "a different policy"
            )
        engine = cls(
            factory,
            max_streams=max_streams,
            on_evict=on_evict,
            window=window,
            on_late=on_late,
        )
        for key, snap in doc["summaries"]:
            engine._summaries[key] = summary_from_state(
                snap, factory=engine._factory
            )
        engine.points_ingested = int(doc.get("points_ingested", 0))
        engine.batches_ingested = int(doc.get("batches_ingested", 0))
        engine.evictions = int(doc.get("evictions", 0))
        time_doc = doc.get("time")
        if time_doc is not None:
            if engine._event_clock is None:  # window said strict, doc says not
                raise ValueError(
                    "snapshot carries reorder-buffer state but the window "
                    "has no bounded-lateness policy"
                )
            engine._event_clock.load_doc(time_doc)
            for key, buf_doc in time_doc.get("buffers", []):
                engine.adopt_pending(key, buf_doc)
            engine._late_drops = {
                key: int(n) for key, n in time_doc.get("late_drops", [])
            }
        engine._enforce_bound()
        return engine

    @classmethod
    def restore(
        cls,
        path: PathLike,
        factory: SummaryFactory,
        *,
        max_streams: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, HullSummary], None]] = None,
        window=None,
        on_late=None,
    ) -> "StreamEngine":
        """Rebuild an engine from a :meth:`snapshot` file."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_snapshot_state(
            doc,
            factory,
            max_streams=max_streams,
            on_evict=on_evict,
            window=window,
            on_late=on_late,
        )
