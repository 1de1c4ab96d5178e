"""Shared plumbing for every engine tier.

:class:`~repro.engine.engine.StreamEngine` (in-process) and
:class:`~repro.shard.engine.ShardedEngine` (multi-process) present the
same :class:`~repro.engine.protocol.EngineProtocol` surface, and the
logic that must not drift between them lives here:

* **standing queries** — :class:`Subscription` plus the
  :class:`SubscriberAPI` mixin (``subscribe`` / ``_notify``), with
  reentrancy-safe dispatch: callbacks may ``cancel()`` any subscription
  or ``subscribe()`` new ones mid-dispatch without corrupting the
  iteration (a subscription cancelled during dispatch never fires late,
  a subscription added during dispatch first fires on the *next*
  batch);
* **keyed routing** — :func:`split_records` normalises the record-tuple
  front door (3- vs 4-tuples, all-or-none timestamps, the clear error
  for timestamps on an unwindowed engine) and :func:`key_index_runs`
  groups a parallel key array into per-key index runs (one stable
  ``argsort`` for comparable dtypes, dict grouping for arbitrary
  hashables);
* **timestamp validation** — :func:`validate_ts_batch` applies the
  shared event-time policy with a tier-specific boundary: finite and
  non-decreasing under the strict default, finiteness only under a
  bounded-lateness :class:`~repro.engine.time.TimePolicy` (ordering is
  then the reorder layer's job, not an error);
* **query folds** — the :class:`ExtentQueryAPI` mixin derives
  ``merged_hull`` / ``diameter`` / ``width`` from ``merged_summary``,
  so every tier answers the Section 6 global queries identically;
* **snapshot headers** — :func:`check_snapshot_doc` validates the
  format/version header every engine snapshot carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..geometry.vec import Point
from ..obs import metrics as _obs

__all__ = [
    "BaseStats",
    "Subscription",
    "SubscriberAPI",
    "ExtentQueryAPI",
    "EventTimeAPI",
    "split_records",
    "key_index_runs",
    "unique_key_inverse",
    "canonical_key_order",
    "validate_ts_batch",
    "check_snapshot_doc",
]


@dataclass
class BaseStats:
    """Counters shared by every engine tier's ``stats()`` document.

    ``EngineStats`` and ``ShardStats`` both derive from this so the shared
    fields — and the late/buffered repr suffix logic — cannot drift between
    the tiers (the PR 4 must-not-drift convention).  ``obs`` carries the
    tier's :meth:`repro.obs.Registry.collect` snapshot: for the shard tier
    it is the parent registry merged with every worker's, so one document
    holds the whole ring's metrics.
    """

    streams: int = 0
    points_ingested: int = 0
    batches_ingested: int = 0
    evictions: int = 0
    sample_points: int = 0
    buckets: int = 0
    bucket_merges: int = 0
    bucket_expiries: int = 0
    late_dropped: int = 0
    buffered: int = 0
    obs: Dict[str, dict] = field(default_factory=dict, repr=False)

    def _suffix(self) -> str:
        """The windowed/event-time tail both tiers append to ``__str__``."""
        out = ""
        if self.buckets or self.bucket_merges or self.bucket_expiries:
            out += (
                f" buckets={self.buckets} merges={self.bucket_merges}"
                f" expiries={self.bucket_expiries}"
            )
        if self.late_dropped or self.buffered:
            out += f" late={self.late_dropped} buffered={self.buffered}"
        return out


def canonical_key_order(key: Hashable) -> Tuple[str, str]:
    """A total order over arbitrary (possibly incomparable) keys.

    Global reductions fold per-key summaries in this order, so a
    merged answer depends only on *what* was ingested per key — never
    on batch interleaving, LRU touch order, or whether keys arrived as
    NumPy or Python values.  That is what makes results through the
    async/HTTP front door bit-identical to direct synchronous calls.

    Keys with a deterministic value encoding (str/bytes/numbers/None
    and tuples thereof — everything the shard ring can route and a
    snapshot can store) order by that encoding, so the order is stable
    across processes and runs.  Exotic key objects fall back to
    ``repr``: still a total order, but identity-bearing reprs
    (``<Foo at 0x...>``) make it process-local, and equal reprs of
    distinct keys degrade to insertion order.
    """
    # Lazy import: the shard package imports the engine at module
    # import time; by query time the cycle is long resolved.
    from ..shard.hashing import _key_bytes

    try:
        token = _key_bytes(key).hex()
    except TypeError:
        token = repr(key)
    return (type(key).__name__, token)


class Subscription:
    """Handle for a standing-query callback (see
    :meth:`SubscriberAPI.subscribe`); call :meth:`cancel` to detach."""

    def __init__(
        self,
        owner: "SubscriberAPI",
        callback: Callable[[Set[Hashable]], None],
        keys: Optional[Set[Hashable]],
    ):
        self._owner = owner
        self.callback = callback
        self.keys = keys
        self.fired = 0

    def cancel(self) -> None:
        """Detach this subscription; no further notifications fire —
        including later in a dispatch already in flight."""
        self._owner._subscriptions = [
            s for s in self._owner._subscriptions if s is not self
        ]

    def _notify(self, touched: Set[Hashable]) -> None:
        relevant = touched if self.keys is None else touched & self.keys
        if relevant:
            self.fired += 1
            self.callback(relevant)


class SubscriberAPI:
    """Mixin: standing-query subscriptions over batch notifications.

    The host engine initialises ``self._subscriptions = []`` and calls
    :meth:`_notify` once per applied batch with the set of touched keys
    (and once per ``advance_time`` with the keys whose windows expired
    buckets).
    """

    _subscriptions: List[Subscription]

    def subscribe(
        self,
        callback: Callable[[Set[Hashable]], None],
        keys: Optional[Iterable[Hashable]] = None,
    ) -> Subscription:
        """Register ``callback(touched_keys)`` to fire after every batch
        that touches a subscribed key (all keys when ``keys`` is None).

        This is the engine half of the paper's standing queries: a
        subscriber re-evaluates its tracker predicates only when the
        hulls it watches may have moved.
        """
        sub = Subscription(self, callback, None if keys is None else set(keys))
        self._subscriptions.append(sub)
        return sub

    def _notify(self, touched: Set[Hashable]) -> None:
        # Snapshot the list, then re-check membership per subscription:
        # a callback may cancel any subscription (itself included) or
        # add new ones mid-dispatch.  Cancelled ones must not fire late;
        # fresh ones first see the next batch.
        for sub in tuple(self._subscriptions):
            if sub in self._subscriptions:
                sub._notify(touched)


class ExtentQueryAPI:
    """Mixin: global extent queries folded over ``merged_summary``.

    Any engine exposing ``merged_summary(keys)`` gets the Section 6
    global answers — the union hull, diameter, and width — with one
    shared definition, so the tiers cannot diverge on query semantics.
    Each call builds one merged reduction; callers wanting several
    answers from the same state should take ``merged_summary()`` once
    and run the query layer on it directly.
    """

    def merged_hull(
        self, keys: Optional[Iterable[Hashable]] = None
    ) -> List[Point]:
        """The all-keys (or selected-keys) approximate union hull."""
        return self.merged_summary(keys).hull()

    def diameter(self, keys: Optional[Iterable[Hashable]] = None) -> float:
        """Approximate diameter of the union of the selected streams
        (0.0 before any data) via the existing query layer."""
        from ..queries import diameter as diameter_query

        merged = self.merged_summary(keys)
        if not merged.hull():
            return 0.0
        return diameter_query(merged)

    def width(self, keys: Optional[Iterable[Hashable]] = None) -> float:
        """Approximate width of the union of the selected streams
        (0.0 before any data) via the existing query layer."""
        from ..queries import width as width_query

        merged = self.merged_summary(keys)
        if not merged.hull():
            return 0.0
        return width_query(merged)


class EventTimeAPI:
    """Mixin: the bounded-lateness event-time surface both tiers share.

    The host engine sets ``self._event_clock`` (an
    :class:`~repro.engine.time.EventClock`, or None under the strict
    policy) and ``self._late_drops`` (the per-key count-and-drop
    ledger) — the watermark translation and the late accounting then
    cannot drift between the tiers.  An engine may also set
    ``self._on_late`` (the dead-letter hook): every late batch slice is
    then handed to the callback as ``(key, points, ts, watermark)``
    before being dropped, with the hand-off counted in
    ``repro_dead_letter_records_total``.
    """

    _late_drops: dict
    _on_late: Optional[Callable] = None

    @property
    def watermark(self) -> Optional[float]:
        """The bounded-lateness watermark — the event time at or
        before which the stream is final (None under the strict policy
        or before any event time was observed)."""
        clock = self._event_clock
        if clock is None or clock.watermark == -math.inf:
            return None
        return clock.watermark

    def late_drops(self) -> dict:
        """Per-key counts of records dropped for arriving later than
        the watermark (empty under the strict policy — there, a stale
        timestamp is an error, never a silent drop)."""
        return dict(self._late_drops)

    @property
    def late_dropped(self) -> int:
        """Total records dropped as later-than-watermark."""
        return sum(self._late_drops.values())

    def _record_late(
        self, key: Hashable, count: int, points=None, ts=None
    ) -> None:
        """Account one key's late slice; dead-letter it if hooked.

        ``points``/``ts`` are the raw dropped records (any array-likes);
        they are only materialised as arrays when a hook is installed,
        so the count-only default pays nothing beyond the counters.
        """
        self._late_drops[key] = self._late_drops.get(key, 0) + count
        _obs.LATE_DROPPED_RECORDS.inc(count)
        hook = self._on_late
        if hook is None:
            return
        pts = (
            np.asarray(points, dtype=np.float64).reshape(-1, 2)
            if points is not None
            else np.empty((0, 2), dtype=np.float64)
        )
        ts_run = (
            np.asarray(ts, dtype=np.float64)
            if ts is not None
            else np.empty(0, dtype=np.float64)
        )
        hook(key, pts, ts_run, self.watermark)
        _obs.DEAD_LETTER_RECORDS.inc(count)


def split_records(
    records: Iterable[tuple], *, windowed: bool
) -> Tuple[List[Hashable], List[Tuple[float, float]], Optional[List[float]]]:
    """Normalise a ``(key, x, y[, ts])`` record iterable.

    Returns parallel ``(keys, points, ts)`` lists (``ts`` is None for an
    untimestamped batch).  Point values are passed through untouched —
    callers validate them vectorised via
    :func:`~repro.core.batch.as_point_array`, so one malformed record
    still rejects the whole batch before any summary is touched.

    Raises:
        ValueError: on 4-tuples for an unwindowed engine (the classic
            "ts requires a windowed engine" mistake gets a clear
            message instead of an unpacking error) and on batches that
            mix timestamped and untimestamped records.
    """
    keys: List[Hashable] = []
    pts: List[Tuple[float, float]] = []
    ts_list: List[float] = []
    saw_ts = saw_bare = False
    if not windowed:
        try:
            for key, x, y in records:
                keys.append(key)
                pts.append((x, y))
        except ValueError as exc:
            raise ValueError(
                "records must be (key, x, y) 3-tuples; ts requires a "
                "windowed engine"
            ) from exc
        return keys, pts, None
    for rec in records:
        keys.append(rec[0])
        pts.append((rec[1], rec[2]))
        # A 4-tuple with ts=None counts as untimestamped — callers that
        # always build 4-tuples can pass None on count windows.
        if len(rec) > 3 and rec[3] is not None:
            saw_ts = True
            ts_list.append(rec[3])
        else:
            saw_bare = True
    if saw_ts and saw_bare:
        raise ValueError(
            "mixed timestamped and untimestamped records in one batch"
        )
    return keys, pts, (ts_list if saw_ts else None)


def key_index_runs(
    key_arr: np.ndarray,
) -> Iterator[Tuple[Hashable, np.ndarray]]:
    """Group a parallel key array into per-key index runs.

    Yields ``(key, indices)`` with indices in stream order per key —
    the grouping primitive behind both tiers' array front doors.
    Comparable dtypes group with one stable ``argsort`` (no Python-level
    loop over records); object arrays (arbitrary, possibly incomparable
    hashables) group through a dict.  NumPy scalar keys are unboxed to
    native Python values so routing and storage see one key identity.
    """
    if key_arr.dtype == object:
        index_map: dict = {}
        for i, k in enumerate(key_arr.tolist()):
            index_map.setdefault(k, []).append(i)
        for k, idx in index_map.items():
            yield k, np.asarray(idx)
        return
    order = np.argsort(key_arr, kind="stable")
    sorted_keys = key_arr[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(key_arr)]))
    for s, e in zip(starts, ends):
        key = sorted_keys[s]
        if isinstance(key, np.generic):
            key = key.item()  # native str/int, not a NumPy scalar
        yield key, order[s:e]


def unique_key_inverse(
    key_arr: np.ndarray,
) -> Tuple[List[Hashable], np.ndarray]:
    """The batch's distinct keys plus an inverse index array.

    Returns ``(uniq_keys, inverse)`` with ``uniq_keys`` native Python
    values (NumPy scalars unboxed, like :func:`key_index_runs`) and
    ``inverse[i]`` the position of record ``i``'s key in ``uniq_keys``
    — the fully vectorised grouping form: per-key aggregates become
    ``np.bincount(inverse, ...)`` and per-record lookups become one
    fancy index, with no Python-level loop over records.  Comparable
    dtypes go through one ``np.unique`` pass; object arrays (arbitrary
    hashables) group through a dict in first-appearance order.  Used by
    the shard tier's routing hot path, which maps ``uniq_keys`` through
    the hash ring once and broadcasts shard ids with the inverse.
    """
    if key_arr.dtype == object:
        index_of: dict = {}
        inverse = np.empty(len(key_arr), dtype=np.int64)
        for i, k in enumerate(key_arr.tolist()):
            inverse[i] = index_of.setdefault(k, len(index_of))
        return list(index_of), inverse
    uniq, inverse = np.unique(key_arr, return_inverse=True)
    return uniq.tolist(), inverse.astype(np.int64, copy=False)


def validate_ts_batch(
    ts_arr: np.ndarray,
    last: Optional[float],
    label: str,
    policy=None,
) -> None:
    """Shared timestamp validation, parameterised by the time policy.

    Under the default strict policy (``policy`` None or
    ``TimePolicy.strict()``): finite and non-decreasing, starting no
    earlier than ``last`` (the tier's boundary — a key's live summary
    clock, or a ring's high-water clock).  Under a bounded-lateness
    policy (:class:`~repro.engine.time.TimePolicy`), ordering is no
    longer an *error* — out-of-order arrivals are the point, and the
    reorder buffer / late-drop accounting own them — so only
    finiteness is enforced here.  ``label`` prefixes the error so the
    offending key/ring is named.

    Raises:
        ValueError: on non-finite timestamps; on decreasing timestamps
            under the strict policy.
    """
    if len(ts_arr) == 0:
        return
    if not np.isfinite(ts_arr).all():
        raise ValueError(f"{label}ts must be finite")
    if policy is not None and policy.bounded:
        return
    if (np.diff(ts_arr) < 0.0).any():
        raise ValueError(f"{label}ts must be non-decreasing within a batch")
    if last is not None and ts_arr[0] < last:
        raise ValueError(
            f"{label}ts must be non-decreasing: got {ts_arr[0]} after {last}"
        )


def check_snapshot_doc(doc: dict, fmt: str, version: int, what: str) -> None:
    """Validate the format/version header of an engine snapshot doc.

    Raises:
        ValueError: on a foreign format or unsupported version.
    """
    if doc.get("format") != fmt:
        raise ValueError(f"not {what}: {doc.get('format')!r}")
    if doc.get("version") != version:
        raise ValueError(
            f"unsupported {what} version {doc.get('version')!r}"
        )
