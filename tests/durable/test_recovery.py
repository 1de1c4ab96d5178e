"""Recovery = latest snapshot + tail replay, bit-identical by determinism."""

import numpy as np
import pytest

from repro.durable import DurabilityConfig, WalError, recover_engine
from repro.engine import StreamEngine
from repro.shard import ShardedEngine, SummarySpec
from repro.window import WindowConfig

SPEC = SummarySpec("AdaptiveHull", {"r": 8})


def workload(n=300, n_keys=6, seed=7):
    rng = np.random.default_rng(seed)
    pool = np.array([f"key-{i:02d}" for i in range(n_keys)])
    keys = pool[rng.integers(0, n_keys, n)]
    pts = rng.normal(0.0, 10.0, (n, 2))
    ts = np.arange(n, dtype=np.float64) / 10.0
    return keys, pts, ts, pool


def cfg(tmp_path, **kw):
    return DurabilityConfig(tmp_path / "wal", **kw)


class TestStreamRecovery:
    def test_plain_engine_bit_identical(self, tmp_path):
        keys, pts, _, pool = workload()
        eng = StreamEngine(SPEC.build, durability=cfg(tmp_path))
        eng.ingest_arrays(keys[:200], pts[:200])
        eng.insert("solo", 1.25, -3.5)
        eng.ingest_arrays(keys[200:], pts[200:])
        expect = eng.snapshot_state()
        eng.close()

        rec = recover_engine(tmp_path / "wal")
        assert rec.last_replay["rejected"] == 0
        assert rec.last_replay["records"] == len(keys) + 1
        assert rec.snapshot_state() == expect
        for k in pool:
            assert rec.hull(k) == eng.hull(k)
        rec.close()

    def test_count_window_bit_identical(self, tmp_path):
        keys, pts, _, _ = workload()
        eng = StreamEngine(
            SPEC.build,
            window=WindowConfig(last_n=50),
            durability=cfg(tmp_path),
        )
        for lo in range(0, len(keys), 60):
            eng.ingest_arrays(keys[lo:lo + 60], pts[lo:lo + 60])
        expect = eng.snapshot_state()
        eng.close()

        rec = recover_engine(tmp_path / "wal")
        assert isinstance(rec, StreamEngine)
        assert rec.window.last_n == 50  # window came from the logged meta
        assert rec.snapshot_state() == expect
        rec.close()

    def test_event_time_window_bit_identical(self, tmp_path):
        from repro.streams import bounded_shuffle

        keys, pts, ts, _ = workload()
        window = WindowConfig(horizon=5.0, max_delay=1.0)
        order = bounded_shuffle(ts, window.max_delay, seed=3)
        eng = StreamEngine(
            SPEC.build, window=window, durability=cfg(tmp_path)
        )
        for lo in range(0, len(order), 50):
            sl = order[lo:lo + 50]
            eng.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
        # One record far beyond the bound: dropped (and dead-lettered).
        eng.ingest_arrays(
            np.array(["late"]), np.zeros((1, 2)), ts=np.array([0.0])
        )
        eng.advance_time(float(ts[-1]) + 2.0)
        expect = eng.snapshot_state()
        dropped = eng.late_dropped
        eng.close()
        assert dropped == 1

        rec = recover_engine(tmp_path / "wal")
        assert rec.snapshot_state() == expect
        assert rec.late_dropped == dropped  # the verdict replays too
        rec.close()

    def test_rejected_entries_skip_identically(self, tmp_path):
        # Strict time policy: a timestamp regression is logged (write-
        # ahead) and then refused; replay must refuse it identically.
        eng = StreamEngine(
            SPEC.build,
            window=WindowConfig(horizon=5.0),
            durability=cfg(tmp_path),
        )
        eng.ingest_arrays(
            np.array(["a", "a"]), np.zeros((2, 2)), ts=np.array([1.0, 2.0])
        )
        with pytest.raises(ValueError):
            eng.ingest_arrays(
                np.array(["a"]), np.ones((1, 2)), ts=np.array([1.0])
            )
        expect = eng.snapshot_state()
        eng.close()

        rec = recover_engine(tmp_path / "wal")
        assert rec.last_replay["rejected"] == 1
        assert rec.snapshot_state() == expect
        rec.close()

    def test_recovery_with_compaction_mid_stream(self, tmp_path):
        keys, pts, _, _ = workload()
        eng = StreamEngine(
            SPEC.build, durability=cfg(tmp_path, snapshot_every=3)
        )
        for lo in range(0, len(keys), 30):
            eng.ingest_arrays(keys[lo:lo + 30], pts[lo:lo + 30])
        expect = eng.snapshot_state()
        eng.close()
        from repro.durable import list_snapshots

        assert list_snapshots(tmp_path / "wal")  # compaction actually ran
        rec = recover_engine(tmp_path / "wal")
        assert rec.snapshot_state() == expect
        # Only the post-snapshot tail was replayed.
        assert rec.last_replay["records"] < len(keys)
        rec.close()

    def test_lambda_factory_needs_explicit_factory(self, tmp_path):
        # The log meta records the lambda's spec, so recovery needs no
        # restated factory (the test name predates that contract).
        from repro import AdaptiveHull

        eng = StreamEngine(
            lambda: AdaptiveHull(8), durability=cfg(tmp_path)
        )
        eng.insert("k", 1.0, 2.0)
        expect = eng.snapshot_state()
        eng.close()
        rec = recover_engine(tmp_path / "wal")
        assert isinstance(rec, StreamEngine)
        assert rec.spec == SummarySpec.coerce(SPEC)
        assert rec.snapshot_state() == expect
        rec.close()

    def test_attached_writer_continues_the_log(self, tmp_path):
        keys, pts, _, _ = workload(n=100)
        eng = StreamEngine(SPEC.build, durability=cfg(tmp_path))
        eng.ingest_arrays(keys[:50], pts[:50])
        eng.close()

        mid = recover_engine(
            tmp_path / "wal", durability=cfg(tmp_path)
        )
        mid.ingest_arrays(keys[50:], pts[50:])
        expect = mid.snapshot_state()
        mid.close()

        rec = recover_engine(tmp_path / "wal")
        assert rec.last_replay["records"] == 100
        assert rec.snapshot_state() == expect
        rec.close()

    def test_fresh_engine_refuses_existing_log(self, tmp_path):
        eng = StreamEngine(SPEC.build, durability=cfg(tmp_path))
        eng.insert("k", 1.0, 2.0)
        eng.close()
        with pytest.raises(WalError, match="already holds"):
            StreamEngine(SPEC.build, durability=cfg(tmp_path))


class TestShardedRecovery:
    def test_ring_bit_identical(self, tmp_path):
        keys, pts, _, pool = workload()
        with ShardedEngine(
            SPEC, shards=2, durability=cfg(tmp_path)
        ) as eng:
            for lo in range(0, len(keys), 60):
                eng.ingest_arrays(keys[lo:lo + 60], pts[lo:lo + 60])
            expect = eng.snapshot_state()
            hulls = {k: eng.hull(k) for k in pool}

        rec = recover_engine(tmp_path / "wal")
        try:
            assert isinstance(rec, ShardedEngine)
            assert rec.num_shards == 2  # shard count from the log
            assert rec.snapshot_state() == expect
            for k in pool:
                assert rec.hull(k) == hulls[k]
        finally:
            rec.close()

    def test_recovery_onto_different_worker_count(self, tmp_path):
        keys, pts, _, pool = workload()
        with ShardedEngine(
            SPEC, shards=2, durability=cfg(tmp_path)
        ) as eng:
            eng.ingest_arrays(keys, pts)
            hulls = {k: eng.hull(k) for k in pool}
            merged = eng.merged_hull()

        rec = recover_engine(tmp_path / "wal", workers=3)
        try:
            assert rec.num_shards == 3
            for k in pool:
                assert rec.hull(k) == hulls[k]
            assert rec.merged_hull() == merged
        finally:
            rec.close()

    def test_workers_zero_forces_stream_tier(self, tmp_path):
        keys, pts, _, pool = workload(n=120)
        with ShardedEngine(
            SPEC, shards=2, durability=cfg(tmp_path)
        ) as eng:
            eng.ingest_arrays(keys, pts)
            hulls = {k: eng.hull(k) for k in pool}

        rec = recover_engine(tmp_path / "wal", workers=0)
        assert isinstance(rec, StreamEngine)
        for k in pool:
            assert rec.hull(k) == hulls[k]
        rec.close()

    def test_compacted_ring_log_refuses_stream_tier(self, tmp_path):
        keys, pts, _, _ = workload(n=120)
        with ShardedEngine(
            SPEC, shards=2, durability=cfg(tmp_path, snapshot_every=1)
        ) as eng:
            eng.ingest_arrays(keys, pts)
        with pytest.raises(WalError, match="'shard'-tier snapshot"):
            recover_engine(tmp_path / "wal", workers=0)

    def test_compacted_engine_log_refuses_ring(self, tmp_path):
        keys, pts, _, _ = workload(n=120)
        eng = StreamEngine(SPEC, durability=cfg(tmp_path, snapshot_every=1))
        eng.ingest_arrays(keys, pts)
        eng.close()
        with pytest.raises(WalError, match="'engine'-tier snapshot"):
            recover_engine(tmp_path / "wal", workers=2)

    def test_event_time_ring_replays_drops(self, tmp_path):
        from repro.streams import bounded_shuffle

        keys, pts, ts, _ = workload()
        window = WindowConfig(horizon=5.0, max_delay=1.0)
        order = bounded_shuffle(ts, window.max_delay, seed=5)
        with ShardedEngine(
            SPEC, shards=2, window=window, durability=cfg(tmp_path)
        ) as eng:
            for lo in range(0, len(order), 50):
                sl = order[lo:lo + 50]
                eng.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
            eng.ingest_arrays(
                np.array(["late"]), np.zeros((1, 2)), ts=np.array([0.0])
            )
            eng.advance_time(float(ts[-1]) + 2.0)
            expect = eng.snapshot_state()
            dropped = eng.late_dropped
        assert dropped == 1

        rec = recover_engine(tmp_path / "wal")
        try:
            assert rec.snapshot_state() == expect
            assert rec.late_dropped == dropped
        finally:
            rec.close()
