"""Logs holding single-record ``("insert", …)`` entries still recover.

``insert`` is a one-record ``ingest_arrays`` batch and is logged as a
``batch`` entry; nothing writes the old ``insert`` kind any more.  Logs
written before that change carry it, and recovery replays each one as
a one-record batch — landing on exactly the state a live engine fed the
same records through ``insert`` holds today.
"""

import json

import numpy as np
import pytest

from repro.durable import DurabilityConfig, WalWriter, recover_engine
from repro.engine import StreamEngine
from repro.shard import ShardedEngine, SummarySpec
from repro.streams import bounded_shuffle
from repro.window import WindowConfig

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
N = 240

WINDOWS = {
    "none": None,
    "timed": WindowConfig(horizon=2.0),
    "lateness": WindowConfig(horizon=2.0, max_delay=0.3),
}


def records(mode):
    """``(key, x, y, ts)`` tuples; shuffled within the bound, with a
    few records far behind it, under bounded lateness."""
    rng = np.random.default_rng(4)
    keys = [f"key-{i}" for i in rng.integers(0, 5, N)]
    pts = rng.normal(0.0, 10.0, (N, 2))
    ts = np.arange(N, dtype=np.float64) / 20.0
    if mode == "lateness":
        order = bounded_shuffle(ts, 0.3, seed=2)
        keys = [keys[i] for i in order]
        pts, ts = pts[order], ts[order].copy()
        ts[::30] -= 1.0
    return [
        (k, float(p[0]), float(p[1]), None if mode == "none" else float(t))
        for k, p, t in zip(keys, pts, ts)
    ]


def live_engine(tier, window):
    if tier == "stream":
        return StreamEngine(SPEC.build, window=window)
    return ShardedEngine(SPEC, shards=2, window=window)


def write_legacy_log(wal_dir, tier, window, recs, advance_at):
    """A log as engines wrote it before ``insert`` became a batch."""
    meta = {
        "tier": "engine" if tier == "stream" else "shard",
        "spec": SPEC.to_doc(),
        "window": window.to_doc() if window is not None else None,
    }
    if tier == "sharded":
        meta["shards"] = 2
    with WalWriter(DurabilityConfig(wal_dir), meta=meta) as wal:
        for i, (key, x, y, ts) in enumerate(recs):
            wal.append("insert", key, x, y, ts, None)
            if i == advance_at:
                wal.append("advance", ts, None)


@pytest.mark.parametrize("mode", list(WINDOWS))
@pytest.mark.parametrize("tier", ["stream", "sharded"])
def test_legacy_insert_entries_recover_like_live_inserts(tmp_path, tier, mode):
    window = WINDOWS[mode]
    recs = records(mode)
    advance_at = N // 2 if window is not None else None
    write_legacy_log(tmp_path / "wal", tier, window, recs, advance_at)
    with live_engine(tier, window) as live:
        for i, (key, x, y, ts) in enumerate(recs):
            live.insert(key, x, y, ts=ts)
            if i == advance_at:
                live.advance_time(ts)
        expect = json.dumps(live.snapshot_state(), sort_keys=True)
        late = live.late_drops()
    rec = recover_engine(tmp_path / "wal")
    try:
        assert isinstance(rec, StreamEngine) == (tier == "stream")
        assert rec.last_replay["records"] == N
        assert rec.last_replay["rejected"] == 0
        assert json.dumps(rec.snapshot_state(), sort_keys=True) == expect
        assert rec.late_drops() == late
        if mode == "lateness":
            assert late
    finally:
        rec.close()


def test_legacy_insert_watermark_passes_through(tmp_path):
    """An in-process entry logged with a watermark replays with it,
    exactly as the one-record batch with that watermark applies."""
    window = WINDOWS["lateness"]
    recs = records("timed")
    with WalWriter(
        DurabilityConfig(tmp_path / "wal"),
        meta={"tier": "engine", "spec": SPEC.to_doc(),
              "window": window.to_doc()},
    ) as wal:
        for key, x, y, ts in recs:
            wal.append("insert", key, x, y, ts, ts - 0.5)
    with StreamEngine(SPEC.build, window=window) as live:
        for key, x, y, ts in recs:
            live.ingest_arrays([key], [(x, y)], ts=[ts], watermark=ts - 0.5)
        expect = json.dumps(live.snapshot_state(), sort_keys=True)
    rec = recover_engine(tmp_path / "wal")
    try:
        assert rec.last_replay["rejected"] == 0
        assert json.dumps(rec.snapshot_state(), sort_keys=True) == expect
        assert rec.watermark == recs[-1][3] - 0.5
    finally:
        rec.close()
