"""Recovery: latest snapshot + WAL tail replay, bit-identical by determinism.

The engines are deterministic functions of their input sequence, so
``load_latest_snapshot() ∘ replay(tail)`` reproduces the pre-crash
state *exactly* — per-key summaries, window buckets, reorder buffers,
event clocks, and counters all match an uninterrupted run bit for bit.
Entries the engine rejected live (e.g. a strict-window timestamp
regression raised ``ValueError`` after the write-ahead append) are
rejected identically on replay and skipped, so the recovered state is
the state of exactly the *acknowledged* prefix.

The entry points mirror the two tiers::

    engine = recover_stream_engine("waldir", durability=cfg)
    ring = recover_sharded_engine("waldir", shards=4, durability=cfg)
    either = recover_engine("waldir")        # tier from the logged meta

Passing ``durability=`` re-attaches a continuing :class:`WalWriter`
(and dead-letter hook) so the recovered engine keeps logging; omit it
for read-only recovery (inspection, parity checks).
"""

from __future__ import annotations

from typing import Optional

from .wal import (
    DurabilityConfig,
    WalError,
    iter_entries,
    load_latest_snapshot,
    read_meta,
)
from ..obs import metrics as OBS

__all__ = [
    "recover_engine",
    "recover_sharded_engine",
    "recover_stream_engine",
    "replay_into",
]

_UNSET = object()


def replay_into(engine, entries) -> dict:
    """Apply WAL entries to ``engine`` through its public ingest API.

    Returns ``{"entries", "records", "rejected"}``.  ``rejected``
    counts entries the engine refused with ``ValueError`` — by
    determinism the same refusal the live ingest produced after
    logging them, so skipping reproduces the acknowledged state.
    """
    import numpy as np

    applied = records = rejected = 0
    for entry in entries:
        kind = entry[1]
        try:
            # A None watermark is omitted rather than passed: the
            # sharded tier logs None always (the parent recomputes its
            # own watermark) and its API has no watermark kwargs.
            if kind == "batch":
                _, _, keys, points, ts, watermark = entry
                kw = {} if watermark is None else {"watermark": watermark}
                engine.ingest_arrays(np.asarray(keys), points, ts=ts, **kw)
                records += len(points)
            elif kind == "insert":
                _, _, key, x, y, ts, watermark = entry
                kw = {} if watermark is None else {"watermark": watermark}
                engine.insert(key, x, y, ts=ts, **kw)
                records += 1
            elif kind == "advance":
                _, _, now, watermark = entry
                if watermark is None:
                    engine.advance_time(now)
                else:
                    engine.advance_time(now, watermark=watermark)
            elif kind == "meta":
                continue
            else:
                raise WalError(f"unknown WAL entry kind {kind!r}")
        except ValueError:
            rejected += 1
            OBS.WAL_REPLAY_REJECTED.inc()
            continue
        applied += 1
    OBS.WAL_REPLAYED_ENTRIES.inc(applied)
    OBS.WAL_REPLAYED_RECORDS.inc(records)
    return {"entries": applied, "records": records, "rejected": rejected}


def _meta_window(meta: Optional[dict]):
    from ..window import WindowConfig

    doc = (meta or {}).get("window")
    return WindowConfig.from_doc(doc) if doc else None


def _meta_factory(meta: Optional[dict]):
    from ..shard import SummarySpec

    doc = (meta or {}).get("spec")
    return SummarySpec.from_doc(doc).build if doc else None


def recover_stream_engine(
    wal_dir,
    factory=None,
    *,
    max_streams=None,
    on_evict=None,
    window=_UNSET,
    on_late=None,
    durability: Optional[DurabilityConfig] = None,
):
    """Rebuild a :class:`~repro.engine.StreamEngine` from ``wal_dir``.

    ``factory``/``window`` default to the configuration captured in the
    log's meta entry; pass them explicitly for logs written by engines
    whose factory was not a :class:`~repro.shard.SummarySpec`.
    """
    from ..engine import StreamEngine

    meta = read_meta(wal_dir)
    if factory is None:
        factory = _meta_factory(meta)
        if factory is None:
            raise WalError(
                "log meta carries no summary spec; pass factory= explicitly"
            )
    if window is _UNSET:
        window = _meta_window(meta)
    snap = load_latest_snapshot(wal_dir)
    if snap is not None:
        engine = StreamEngine.from_snapshot_state(
            snap[1],
            factory,
            max_streams=max_streams,
            on_evict=on_evict,
            window=window,
            on_late=on_late,
        )
        after = snap[0]
    else:
        engine = StreamEngine(
            factory,
            max_streams=max_streams,
            on_evict=on_evict,
            window=window,
            on_late=on_late,
        )
        after = 0
    engine.last_replay = replay_into(engine, iter_entries(wal_dir, after=after))
    if durability is not None:
        engine.attach_durability(durability)
    return engine


def recover_sharded_engine(
    wal_dir,
    spec=None,
    *,
    shards=None,
    standbys=0,
    replicas=None,
    max_streams=None,
    start_method=None,
    window=_UNSET,
    worker_push=True,
    on_late=None,
    durability: Optional[DurabilityConfig] = None,
):
    """Rebuild a :class:`~repro.shard.ShardedEngine` ring from ``wal_dir``.

    ``shards=None`` keeps the snapshot's worker count (or the logged
    meta's for a snapshotless log); any other count re-routes per key
    through the existing adopt path — recovery doubles as resizing.
    """
    from ..shard import ShardedEngine, SummarySpec

    meta = read_meta(wal_dir)
    if spec is None:
        doc = (meta or {}).get("spec")
        if doc is None:
            raise WalError("log meta carries no summary spec; pass spec=")
        spec = SummarySpec.from_doc(doc)
    if window is _UNSET:
        window = _meta_window(meta)
    snap = load_latest_snapshot(wal_dir)
    common = dict(
        max_streams=max_streams,
        start_method=start_method,
        worker_push=worker_push,
        on_late=on_late,
        standbys=standbys,
    )
    if snap is not None:
        engine = ShardedEngine.from_snapshot_state(
            snap[1],
            shards=shards,
            replicas=replicas,
            window=window,
            **common,
        )
        after = snap[0]
    else:
        engine = ShardedEngine(
            spec,
            shards=shards or (meta or {}).get("shards") or 2,
            replicas=replicas or 64,
            window=window,
            **common,
        )
        after = 0
    engine.last_replay = replay_into(engine, iter_entries(wal_dir, after=after))
    if durability is not None:
        engine.attach_durability(durability)
    return engine


def recover_engine(wal_dir, *, workers: Optional[int] = None, **kwargs):
    """Tier-dispatching recovery: the logged meta (or snapshot format)
    says whether ``wal_dir`` belongs to a ring or an in-process engine.

    ``workers`` overrides: 0 forces a :class:`StreamEngine`, >= 1 a
    ring of that many shards.  Remaining kwargs go to the tier's
    ``recover_*`` function.
    """
    meta = read_meta(wal_dir)
    tier = (meta or {}).get("tier")
    if tier is None:
        snap = load_latest_snapshot(wal_dir)
        if snap is not None:
            fmt = snap[1].get("format", "")
            tier = "shard" if fmt.endswith("shard") else "engine"
    sharded = (workers or 0) > 0 if workers is not None else tier == "shard"
    if sharded:
        return recover_sharded_engine(wal_dir, shards=workers or None, **kwargs)
    kwargs.pop("standbys", None)
    return recover_stream_engine(wal_dir, **kwargs)
