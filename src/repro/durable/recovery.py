"""Recovery: latest snapshot + WAL tail replay, bit-identical by determinism.

The engines are deterministic functions of their input sequence, so
``load_latest_snapshot() ∘ replay(tail)`` reproduces the pre-crash
state *exactly* — per-key summaries, window buckets, reorder buffers,
event clocks, and counters all match an uninterrupted run bit for bit.
Entries the engine rejected live (e.g. a strict-window timestamp
regression raised ``ValueError`` after the write-ahead append) are
rejected identically on replay and skipped, so the recovered state is
the state of exactly the *acknowledged* prefix.

One entry point serves both tiers; the log's meta records the tier,
the scheme's :class:`~repro.streams.io.SummarySpec` and the window, so
nothing needs restating::

    engine = recover_engine("waldir", durability=cfg)  # as logged
    ring = recover_engine("waldir", workers=4)          # onto 4 shards

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

__all__ = ["recover_engine", "replay_into"]


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
            if kind in ("batch", "insert"):
                if kind == "batch":
                    _, _, keys, points, ts, watermark = entry
                    keys = np.asarray(keys)
                else:
                    # Legacy single-record entry: a one-record batch.
                    _, _, key, x, y, ts, watermark = entry
                    keys, points = [key], [(x, y)]
                    ts = None if ts is None else [ts]
                kw = {} if watermark is None else {"watermark": watermark}
                engine.ingest_arrays(keys, points, ts=ts, **kw)
                records += len(points)
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


def recover_engine(
    wal_dir,
    *,
    workers: Optional[int] = None,
    spec=None,
    durability: Optional[DurabilityConfig] = None,
    **options,
):
    """Rebuild an engine from ``wal_dir``: the latest snapshot plus the
    replayed tail.

    The tier, scheme and window come from the log's meta (the snapshot
    format, for a log without meta).  ``workers`` overrides the tier: 0
    recovers a :class:`~repro.engine.StreamEngine`, ``N >= 1`` a
    :class:`~repro.shard.ShardedEngine` of ``N`` shards (a compacted
    ring snapshot is loaded onto its own layout, then resized — so
    recovery doubles as resharding).  A *compacted* log recovers only
    on the tier that wrote it: the snapshot is tier-specific, so
    forcing the other tier raises :class:`WalError` naming the logged
    one.  ``spec`` is needed only for logs whose meta lacks one.
    ``options`` go to the tier's constructor (``max_streams``,
    ``on_late``, ``window`` — default: the logged window — and
    ``standbys`` for a ring).
    """
    from ..engine import StreamEngine
    from ..shard import ShardedEngine
    from ..window import WindowConfig

    meta = read_meta(wal_dir) or {}
    snap = load_latest_snapshot(wal_dir)
    logged = meta.get("tier")
    if snap is not None:
        logged = snap[1].get("format", "").rpartition(".")[2]
    sharded = workers > 0 if workers is not None else logged == "shard"
    cls = ShardedEngine if sharded else StreamEngine
    if snap is not None and logged != cls._tier:
        raise WalError(
            f"{wal_dir} holds a compacted {logged!r}-tier snapshot; "
            f"recover it on that tier, not as a {cls.__name__}"
        )
    if "window" not in options:
        window = meta.get("window")
        options["window"] = WindowConfig.from_doc(window) if window else None
    if not sharded:
        options.pop("standbys", None)
    if spec is None:
        spec = meta.get("spec")
    if snap is not None:
        if sharded:
            engine = cls.from_snapshot_state(
                snap[1], shards=workers or None, **options
            )
        else:
            engine = cls.from_snapshot_state(snap[1], spec, **options)
        after = snap[0]
    else:
        if spec is None:
            raise WalError("log meta carries no summary spec; pass spec=")
        if sharded:
            options["shards"] = workers or meta.get("shards") or 2
        engine = cls(spec, **options)
        after = 0
    engine.last_replay = replay_into(engine, iter_entries(wal_dir, after=after))
    if durability is not None:
        engine.attach_durability(durability)
    return engine
