"""The engine contract both tiers implement.

:class:`EngineProtocol` is the formal shape of "a keyed hull engine":
the in-process :class:`~repro.engine.engine.StreamEngine` and the
multi-process :class:`~repro.shard.engine.ShardedEngine` both satisfy
it, so callers — the CLI, the examples, the benchmarks, and above all
the :mod:`repro.serve` asyncio front door — are written once against
the protocol and take either tier (windowed or not) as a drop-in.

The contract, grouped by concern:

* **ingestion** — ``insert`` (one record: a one-record
  ``ingest_arrays`` batch on both tiers, counted as a batch),
  ``ingest`` (record tuples), ``ingest_arrays`` (parallel keys +
  ``(n, 2)`` block); windowed
  engines accept per-record ``ts`` and reject malformed batches
  atomically (no key touched on failure);
* **time** — ``advance_time(now)`` expires stale window buckets with
  no new data (ValueError on engines without a time-based window);
  under a bounded-lateness window policy (see :mod:`repro.engine.time`)
  it doubles as the event-time heartbeat that advances the watermark
  and flushes the reorder buffers, and ``watermark`` /
  ``late_drops()`` expose the policy's state and count-and-drop
  accounting;
* **keyed queries** — ``keys``, ``__len__``, ``hull(key)``,
  ``summary(key)`` (created lazily on first touch; the sharded tier
  returns a detached copy of the worker-owned state);
* **global queries** — ``merged_summary`` folds the selected live
  streams into one summary of the base scheme; ``merged_hull`` /
  ``diameter`` / ``width`` derive from it (see
  :class:`~repro.engine.common.ExtentQueryAPI`);
* **standing queries** — ``subscribe(callback, keys=None)`` fires after
  every batch with the touched key set (and after ``advance_time``
  with the keys whose windows expired);
* **persistence** — ``snapshot_state()`` returns the engine's full
  JSON-compatible state, scheme spec included, and ``snapshot(path)``
  writes it; every tier also offers ``from_snapshot_state(doc)`` /
  ``restore(path)`` constructors that need nothing but the document
  (tier-specific options — ``shards=``, ``on_evict=`` — stay keyword
  arguments);
* **bookkeeping / lifecycle** — ``stats()`` (an object with at least
  ``streams`` / ``points_ingested`` / ``batches_ingested`` /
  ``evictions`` / ``sample_points`` and the window bucket counters),
  ``close()``, and context-manager use.

``isinstance(engine, EngineProtocol)`` checks structurally (the class
is ``runtime_checkable``); the behavioural half of the contract —
identical results and identical error behaviour across tiers — is
enforced by ``tests/engine/test_protocol_conformance.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.base import HullSummary
from ..geometry.vec import Point

__all__ = ["EngineProtocol", "PROTOCOL_MEMBERS"]


#: Every member the conformance suite checks for on both tiers.
PROTOCOL_MEMBERS: Tuple[str, ...] = (
    "spec",
    "window",
    "insert",
    "ingest",
    "ingest_arrays",
    "advance_time",
    "keys",
    "__len__",
    "hull",
    "summary",
    "merged_summary",
    "merged_hull",
    "diameter",
    "width",
    "watermark",
    "late_drops",
    "subscribe",
    "stats",
    "snapshot_state",
    "snapshot",
    "close",
    "__enter__",
    "__exit__",
)


@runtime_checkable
class EngineProtocol(Protocol):
    """Structural type for a keyed hull engine (either tier)."""

    @property
    def spec(self):
        """The scheme as a :class:`~repro.streams.io.SummarySpec`."""
        ...

    @property
    def window(self):
        """The engine's :class:`~repro.window.WindowConfig`, or None."""
        ...

    # -- ingestion ---------------------------------------------------------

    def insert(
        self, key: Hashable, x: float, y: float, ts: Optional[float] = None
    ) -> bool:
        """Route one record as a one-record batch; True if the key's
        summary changed."""
        ...

    def ingest(self, records: Iterable[tuple]) -> int:
        """Batch-route ``(key, x, y[, ts])`` records; changed count."""
        ...

    def ingest_arrays(
        self, keys: Sequence[Hashable], points, ts=None
    ) -> int:
        """Route a parallel key sequence and ``(n, 2)`` point block."""
        ...

    def advance_time(self, now: float) -> int:
        """Expire stale window buckets; total expired across keys."""
        ...

    # -- queries -----------------------------------------------------------

    def keys(self) -> List[Hashable]:
        """All live stream keys."""
        ...

    def __len__(self) -> int: ...

    def hull(self, key: Hashable) -> List[Point]:
        """Approximate hull of one keyed stream ([] if never fed)."""
        ...

    def summary(self, key: Hashable) -> HullSummary:
        """The summary for ``key``, created lazily on first use."""
        ...

    def merged_summary(
        self, keys: Optional[Iterable[Hashable]] = None
    ) -> HullSummary:
        """One summary covering the union of the selected streams."""
        ...

    def merged_hull(
        self, keys: Optional[Iterable[Hashable]] = None
    ) -> List[Point]:
        """The union hull of the selected streams."""
        ...

    def diameter(self, keys: Optional[Iterable[Hashable]] = None) -> float:
        """Approximate diameter of the union of the selected streams."""
        ...

    def width(self, keys: Optional[Iterable[Hashable]] = None) -> float:
        """Approximate width of the union of the selected streams."""
        ...

    @property
    def watermark(self) -> Optional[float]:
        """The bounded-lateness watermark (event time at or before
        which the stream is final), or None under the strict policy."""
        ...

    def late_drops(self) -> dict:
        """Per-key counts of later-than-watermark dropped records
        (empty under the strict policy)."""
        ...

    def subscribe(self, callback, keys=None):
        """Standing-query callback fired per batch with touched keys."""
        ...

    def stats(self):
        """Aggregate counters across all live streams."""
        ...

    # -- persistence / lifecycle -------------------------------------------

    def snapshot_state(self) -> dict:
        """The engine's full state as a JSON-compatible document."""
        ...

    def snapshot(self, path) -> Path:
        """Write :meth:`snapshot_state` to a JSON file."""
        ...

    def close(self) -> None:
        """Release engine resources (idempotent)."""
        ...

    def __enter__(self): ...

    def __exit__(self, *exc) -> None: ...
