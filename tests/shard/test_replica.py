"""Shard replicas: standby lanes, automatic promotion, failover parity.

The contract: with ``standbys >= 1`` every slice is teed to the
standby workers, so SIGKILLing a primary mid-stream loses nothing —
the next request drops the dead lane, promotes the standby, and every
acknowledged batch is still in the answers (bit-identical to an
uninterrupted single engine).
"""

import numpy as np
import pytest

from repro.engine import StreamEngine
from repro.shard import ShardedEngine, ShardError, SummarySpec
from repro.streams.io import summary_state

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
SPECS = [
    SPEC,
    SummarySpec("FixedSizeAdaptiveHull", {"r": 8}),
    SummarySpec("UniformHull", {"r": 16}),
]


def workload(n=400, n_keys=8, seed=3):
    rng = np.random.default_rng(seed)
    pool = np.array([f"key-{i:02d}" for i in range(n_keys)])
    idx = rng.integers(0, n_keys, n)
    return pool[idx], rng.normal(0.0, 10.0, (n, 2)), pool


def kill_primary(engine, shard):
    proc = engine._procs[shard]
    proc.kill()
    proc.join(timeout=5.0)
    assert not proc.is_alive()
    return proc


class TestSpawn:
    def test_standby_processes_exist(self):
        with ShardedEngine(SPEC, shards=2, standbys=1) as eng:
            assert len(eng._lanes) == 2
            assert all(len(lanes) == 2 for lanes in eng._lanes)
            procs = [l.proc for lanes in eng._lanes for l in lanes]
            assert all(p.is_alive() for p in procs)
            stats = eng.stats()
            assert stats.standbys == 2
            assert stats.promotions == 0

    def test_standby_names_are_labelled(self):
        with ShardedEngine(SPEC, shards=1, standbys=2) as eng:
            names = [l.proc.name for l in eng._lanes[0]]
            assert names[0] == "repro-shard-0"
            assert names[1] == "repro-shard-0-standby1"
            assert names[2] == "repro-shard-0-standby2"

    def test_negative_standbys_rejected(self):
        with pytest.raises(ValueError, match="standbys"):
            ShardedEngine(SPEC, shards=2, standbys=-1)

    def test_close_stops_every_lane(self):
        eng = ShardedEngine(SPEC, shards=2, standbys=1)
        procs = [l.proc for lanes in eng._lanes for l in lanes]
        eng.close()
        for p in procs:
            p.join(timeout=5.0)
            assert not p.is_alive()


class TestPromotion:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.scheme)
    def test_kill_mid_stream_loses_no_acknowledged_batch(self, spec):
        keys, pts, pool = workload()
        ref = StreamEngine(spec.build)
        with ShardedEngine(spec, shards=3, standbys=1) as eng, \
                ShardedEngine(spec, shards=3) as ring_ref:
            for lo in range(0, len(keys), 50):
                eng.ingest_arrays(keys[lo:lo + 50], pts[lo:lo + 50])
                ref.ingest_arrays(keys[lo:lo + 50], pts[lo:lo + 50])
                ring_ref.ingest_arrays(keys[lo:lo + 50], pts[lo:lo + 50])
                if lo == 150:
                    kill_primary(eng, 1)
            # Every acknowledged batch (including post-kill ones) is
            # present, bit-identically.
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
                assert summary_state(eng.get(k)) == summary_state(ref.get(k))
            assert eng.merged_hull() == ring_ref.merged_hull()
            stats = eng.stats()
            assert stats.promotions == 1
            assert stats.points_ingested == len(keys)

    def test_promotion_is_recorded_per_shard(self):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=2, standbys=2) as eng:
            eng.ingest_arrays(keys, pts)
            kill_primary(eng, 0)
            eng.merged_hull()  # trigger detection
            assert eng.promotions == [{"shard": 0, "standbys_left": 1}]
            stats = eng.stats()
            assert stats.promotions == 1
            assert stats.standbys == 3  # one standby was consumed

    def test_promoted_lane_becomes_visible_primary(self):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=2, standbys=1) as eng:
            eng.ingest_arrays(keys, pts)
            dead = kill_primary(eng, 1)
            eng.merged_hull()
            assert eng._procs[1] is not dead
            assert eng._procs[1].is_alive()

    def test_query_during_promotion_still_answers(self):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        ref.ingest_arrays(keys, pts)
        with ShardedEngine(SPEC, shards=3, standbys=1) as eng, \
                ShardedEngine(SPEC, shards=3) as ring_ref:
            eng.ingest_arrays(keys, pts)
            ring_ref.ingest_arrays(keys, pts)
            kill_primary(eng, 0)
            # The very request that discovers the corpse must succeed.
            assert eng.merged_hull() == ring_ref.merged_hull()
            for k in pool:
                assert eng.hull(k) == ref.hull(k)

    def test_second_death_exhausts_the_lane_group(self):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=2, standbys=1) as eng:
            eng.ingest_arrays(keys, pts)
            kill_primary(eng, 0)
            eng.merged_hull()  # promote
            kill_primary(eng, 0)  # now the promoted lane
            with pytest.raises(ShardError, match="shard 0"):
                eng.merged_hull()
            # And it stays failed, cleanly.
            with pytest.raises(ShardError):
                eng.merged_hull()

    def test_zero_standbys_keeps_fail_fast_contract(self):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=2, standbys=0) as eng:
            eng.ingest_arrays(keys, pts)
            kill_primary(eng, 0)
            with pytest.raises(ShardError):
                eng.merged_hull()

    def test_snapshot_restore_carries_standbys_option(self, tmp_path):
        keys, pts, pool = workload(n=150)
        with ShardedEngine(SPEC, shards=2, standbys=1) as eng:
            eng.ingest_arrays(keys, pts)
            path = eng.snapshot(tmp_path / "ring.json")
            hulls = {k: eng.hull(k) for k in pool}
        rec = ShardedEngine.restore(path, standbys=1)
        try:
            assert all(len(lanes) == 2 for lanes in rec._lanes)
            for k in pool:
                assert rec.hull(k) == hulls[k]
            # The restored standbys are warm: killing a primary after
            # restore still promotes with full state.
            kill_primary(rec, 0)
            for k in pool:
                assert rec.hull(k) == hulls[k]
            assert rec.stats().promotions == 1
        finally:
            rec.close()

    def test_windowed_ring_failover_parity(self):
        from repro.window import WindowConfig

        keys, pts, pool = workload()
        ts = np.arange(len(keys), dtype=np.float64) / 20.0
        window = WindowConfig(horizon=5.0)
        ref = StreamEngine(SPEC.build, window=window)
        with ShardedEngine(
            SPEC, shards=2, standbys=1, window=window
        ) as eng:
            for lo in range(0, len(keys), 80):
                sl = slice(lo, lo + 80)
                eng.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
                ref.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
                if lo == 80:
                    kill_primary(eng, 1)
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
            assert eng.late_dropped == ref.late_dropped
