"""repro.durable — write-ahead log, crash recovery, and dead letters.

The durability layer for both engine tiers:

- :mod:`repro.durable.wal` — append-only checksummed segment files
  (the shard transport's skeleton/raw-buffer codec per entry),
  configurable fsync policy, segment rotation, and periodic snapshot
  compaction.
- :mod:`repro.durable.recovery` — load the latest snapshot and replay
  the tail; bit-identical to an uninterrupted run because the engines
  are deterministic.
- :mod:`repro.durable.deadletter` — later-than-watermark drops as a
  durable, replayable queue instead of a counter.

Quickstart::

    from repro import AdaptiveHull, DurabilityConfig, StreamEngine
    from repro.durable import recover_engine

    cfg = DurabilityConfig("waldir", fsync="batch", snapshot_every=512)
    engine = StreamEngine(lambda: AdaptiveHull(32), durability=cfg)
    engine.ingest_arrays(keys, points)      # framed + logged, then applied
    engine.close()                          # ... or the process dies here

    engine = recover_engine("waldir", durability=cfg)
    # snapshot + tail replay: same hulls, same counters, logging resumes;
    # the scheme and window come from the log, even for a lambda factory

Replica standbys and online resharding live on
:class:`~repro.shard.ShardedEngine` (``standbys=`` and ``resize()``)
and build on the same determinism: a standby applying the same slices
*is* a recovery that never has to replay.
"""

from .deadletter import DeadLetterLog, attach_dead_letters
from .recovery import recover_engine, replay_into
from .wal import (
    DurabilityConfig,
    WalError,
    WalWriter,
    fsck,
    iter_entries,
    list_segments,
    list_snapshots,
    load_latest_snapshot,
    read_meta,
    wal_exists,
)

__all__ = [
    "DurabilityConfig",
    "WalError",
    "WalWriter",
    "DeadLetterLog",
    "attach_dead_letters",
    "fsck",
    "iter_entries",
    "list_segments",
    "list_snapshots",
    "load_latest_snapshot",
    "read_meta",
    "wal_exists",
    "recover_engine",
    "replay_into",
]
