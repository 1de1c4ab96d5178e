"""Durable dead-letter queue: persist, inspect, redrive, truncate."""

import numpy as np
import pytest

from repro.durable import (
    DeadLetterLog,
    DurabilityConfig,
    attach_dead_letters,
    recover_engine,
)
from repro.engine import StreamEngine
from repro.shard import ShardedEngine, SummarySpec
from repro.window import WindowConfig

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
WINDOW = WindowConfig(horizon=5.0, max_delay=1.0)


def feed_with_late(engine, n_late=3):
    """Advance the watermark, then send ``n_late`` too-late slices."""
    ts = np.arange(40, dtype=np.float64) / 4.0
    keys = np.array([f"k-{i % 4}" for i in range(40)])
    pts = np.arange(80, dtype=np.float64).reshape(40, 2)
    engine.ingest_arrays(keys, pts, ts=ts)
    for i in range(n_late):
        engine.ingest_arrays(
            np.array([f"late-{i}"]),
            np.array([[float(i), -float(i)]]),
            ts=np.array([0.0]),  # far behind the watermark
        )


class TestDeadLetterLog:
    def test_appends_persist_and_iterate(self, tmp_path):
        log = DeadLetterLog(tmp_path)
        log.append("k", np.array([[1.0, 2.0]]), np.array([3.0]), 9.0)
        log.append("j", np.array([[4.0, 5.0]]), np.array([6.0]), 9.5)
        log.close()
        reread = DeadLetterLog(tmp_path)
        entries = list(reread.iter_entries())
        assert [e[0] for e in entries] == [1, 2]
        assert entries[0][2] == "k"
        assert np.asarray(entries[1][3]).tolist() == [[4.0, 5.0]]
        assert len(reread) == 2
        # Sequence continues after reopen.
        assert reread.append("m", np.zeros((1, 2)), np.array([1.0]), 9.9) == 3
        reread.close()

    def test_truncate_drops_everything(self, tmp_path):
        log = DeadLetterLog(tmp_path)
        log.append("k", np.zeros((1, 2)), np.array([1.0]), 2.0)
        assert log.truncate() == 1
        assert len(log) == 0
        assert not log.path.exists()
        # Still usable after truncation.
        assert log.append("k", np.zeros((1, 2)), np.array([1.0]), 2.0) == 1
        log.close()


class TestAttach:
    def test_attach_requires_bounded_lateness(self, tmp_path):
        plain = StreamEngine(SPEC.build)
        assert attach_dead_letters(plain, tmp_path) is None
        strict = StreamEngine(SPEC.build, window=WindowConfig(horizon=5.0))
        assert attach_dead_letters(strict, tmp_path) is None

    def test_late_records_are_persisted(self, tmp_path):
        eng = StreamEngine(SPEC.build, window=WINDOW)
        log = attach_dead_letters(eng, tmp_path)
        feed_with_late(eng, n_late=3)
        assert eng.late_dropped == 3
        entries = list(log.iter_entries())
        assert len(entries) == 3
        assert {e[2] for e in entries} == {"late-0", "late-1", "late-2"}
        log.close()

    def test_prior_on_late_hook_still_fires(self, tmp_path):
        seen = []
        eng = StreamEngine(
            SPEC.build,
            window=WINDOW,
            on_late=lambda key, pts, ts, wm: seen.append(key),
        )
        log = attach_dead_letters(eng, tmp_path)
        feed_with_late(eng, n_late=2)
        assert sorted(seen) == ["late-0", "late-1"]
        assert len(log) == 2
        log.close()

    def test_durability_config_gates_dead_letters(self, tmp_path):
        eng = StreamEngine(
            SPEC.build,
            window=WINDOW,
            durability=DurabilityConfig(tmp_path / "wal", dead_letters=False),
        )
        feed_with_late(eng, n_late=1)
        eng.close()
        log = DeadLetterLog(tmp_path / "wal")
        assert len(log) == 0
        log.close()

    def test_sharded_late_records_are_persisted(self, tmp_path):
        with ShardedEngine(
            SPEC,
            shards=2,
            window=WINDOW,
            durability=DurabilityConfig(tmp_path / "wal"),
        ) as eng:
            feed_with_late(eng, n_late=2)
            assert eng.late_dropped == 2
        log = DeadLetterLog(tmp_path / "wal")
        assert len(log) == 2
        log.close()


class TestRedrive:
    def test_replay_clamps_to_watermark(self, tmp_path):
        eng = StreamEngine(
            SPEC.build,
            window=WINDOW,
            durability=DurabilityConfig(tmp_path / "wal"),
        )
        feed_with_late(eng, n_late=2)
        eng.close()

        rec = recover_engine(tmp_path / "wal")
        assert rec.late_dropped == 2  # replay reproduces the drops
        before = rec.points_ingested
        log = DeadLetterLog(tmp_path / "wal")
        result = log.replay_into(rec)
        assert result == {"entries": 2, "records": 2, "skipped": 0}
        assert rec.points_ingested == before + 2
        assert "late-0" in rec.keys() and "late-1" in rec.keys()
        # The redriven records are no longer late.
        assert rec.late_dropped == 2
        log.close()
        rec.close()

    def test_recovery_does_not_duplicate_dead_letters(self, tmp_path):
        eng = StreamEngine(
            SPEC.build,
            window=WINDOW,
            durability=DurabilityConfig(tmp_path / "wal"),
        )
        feed_with_late(eng, n_late=2)
        eng.close()
        # Recover WITH durability: replayed late drops must not be
        # re-appended to the dead-letter log (hook attaches after).
        rec = recover_engine(
            tmp_path / "wal", durability=DurabilityConfig(tmp_path / "wal")
        )
        assert rec.late_dropped == 2
        rec.close()
        log = DeadLetterLog(tmp_path / "wal")
        assert len(log) == 2
        log.close()
