"""Chaos layer for the sharded ring: dead and slow workers.

The failure contract under test: a worker killed mid-batch or mid-query
surfaces as a *clear, prompt* :class:`ShardError` — never a hang, never
a desynchronised pipe — the surviving shards keep answering per-key
queries, and :meth:`ShardedEngine.close` still completes.  A worker
that is merely slow (the ``set_latency`` chaos hook) must change
nothing but latency: global reductions still fold every shard's state
correctly.
"""

import time

import numpy as np
import pytest

from repro.engine import StreamEngine
from repro.shard import ShardedEngine, ShardError, SummarySpec

SPEC = SummarySpec("AdaptiveHull", {"r": 8})

#: The shard pipe protocol (frames is the only one); it names the arm
#: in each test id.
TRANSPORT_PARAMS = ["frames"]


def workload(n=400, n_keys=8, seed=3):
    rng = np.random.default_rng(seed)
    pool = np.array([f"key-{i:02d}" for i in range(n_keys)])
    idx = rng.integers(0, n_keys, n)
    return pool[idx], rng.normal(0.0, 10.0, (n, 2)), pool


def kill_worker(engine, shard):
    """SIGKILL one worker and wait for the corpse (its pipe end closes
    with it, so the parent sees EOF, not a stuck recv)."""
    proc = engine._procs[shard]
    proc.kill()
    proc.join(timeout=5.0)
    assert not proc.is_alive()


def keys_by_shard(engine, pool):
    owned = {}
    for k in pool:
        owned.setdefault(engine.shard_for(k), []).append(k)
    return owned


@pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
class TestDeadWorker:
    def test_kill_mid_batch_raises_not_hangs(self, transport):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=3) as eng:
            eng.ingest_arrays(keys, pts)
            victim = eng.shard_for(pool[0])
            kill_worker(eng, victim)
            t0 = time.monotonic()
            with pytest.raises(ShardError):
                eng.ingest_arrays(keys, pts)
            assert time.monotonic() - t0 < 10.0, "error was not prompt"

    def test_kill_mid_query_raises_not_hangs(self, transport):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=3) as eng:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 1)
            t0 = time.monotonic()
            with pytest.raises(ShardError):
                # Broadcast query: the dead shard's reply never comes.
                eng.merged_summary()
            assert time.monotonic() - t0 < 10.0, "error was not prompt"

    def test_survivors_still_answer_after_a_death(self, transport):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        ref.ingest_arrays(keys, pts)
        with ShardedEngine(SPEC, shards=3) as eng:
            eng.ingest_arrays(keys, pts)
            owned = keys_by_shard(eng, pool)
            victim = next(iter(owned))
            kill_worker(eng, victim)
            with pytest.raises(ShardError):
                eng.merged_summary()  # drained, first error raised
            # Per-key routing to live shards keeps working, and the
            # answers are still bit-identical to the single engine.
            for shard, shard_keys in owned.items():
                if shard == victim:
                    continue
                for k in shard_keys:
                    assert eng.hull(k) == ref.hull(k)

    def test_dead_shard_errors_are_repeatable(self, transport):
        keys, pts, pool = workload()
        with ShardedEngine(SPEC, shards=2) as eng:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 0)
            for _ in range(3):  # no desync: every retry fails cleanly
                with pytest.raises(ShardError):
                    eng.merged_summary()

    def test_close_completes_after_a_death(self, transport):
        keys, pts, pool = workload()
        eng = ShardedEngine(SPEC, shards=3)
        try:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 2)
        finally:
            t0 = time.monotonic()
            eng.close()  # must not hang on the corpse's pipe
            assert time.monotonic() - t0 < 10.0
        for proc in eng._procs:
            assert not proc.is_alive()

    def test_operations_after_close_raise(self, transport):
        eng = ShardedEngine(SPEC, shards=2)
        eng.close()
        with pytest.raises(ShardError, match="closed"):
            eng.merged_summary()


@pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
class TestSlowWorker:
    def test_slow_worker_is_correct_just_late(self, transport):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        ref.ingest_arrays(keys, pts)
        with ShardedEngine(SPEC, shards=3) as eng:
            eng.ingest_arrays(keys, pts)
            before = eng.merged_summary()
            # Make shard 0 sleep before every op: a straggler, not a
            # corpse.  Global folds must still include its state —
            # slowness changes nothing but latency.
            eng._call(0, "set_latency", 0.05)
            merged = eng.merged_summary()
            assert merged.hull() == before.hull()
            assert merged.points_seen == ref.merged_summary().points_seen
            for k in pool:
                assert eng.hull(k) == ref.hull(k)

    def test_slow_worker_still_ingests_in_order(self, transport):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        with ShardedEngine(SPEC, shards=2) as eng:
            eng._call(1, "set_latency", 0.02)
            for lo in range(0, len(keys), 100):
                eng.ingest_arrays(keys[lo:lo + 100], pts[lo:lo + 100])
                ref.ingest_arrays(keys[lo:lo + 100], pts[lo:lo + 100])
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
            assert eng.stats().points_ingested == len(keys)


@pytest.mark.parametrize("transport", TRANSPORT_PARAMS)
class TestDeadWorkerWithStandbys:
    """The same deaths, with replicas enabled: instead of the fail-fast
    ShardError the standby lane is promoted and service continues —
    the dead-worker contract above only holds when ``standbys=0``."""

    def test_kill_mid_batch_keeps_serving(self, transport):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        ref.ingest_arrays(keys, pts)
        ref.ingest_arrays(keys, pts)
        with ShardedEngine(
            SPEC, shards=3, standbys=1
        ) as eng:
            eng.ingest_arrays(keys, pts)
            victim = eng.shard_for(pool[0])
            kill_worker(eng, victim)
            eng.ingest_arrays(keys, pts)  # promotes in-line, no error
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
            assert eng.stats().promotions == 1

    def test_kill_mid_query_keeps_answering(self, transport):
        keys, pts, pool = workload()
        ref = StreamEngine(SPEC.build)
        ref.ingest_arrays(keys, pts)
        with ShardedEngine(
            SPEC, shards=3, standbys=1
        ) as eng:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 1)
            t0 = time.monotonic()
            merged = eng.merged_summary()  # broadcast survives the corpse
            assert time.monotonic() - t0 < 10.0
            assert merged.points_seen == ref.merged_summary().points_seen
            for k in pool:
                assert eng.hull(k) == ref.hull(k)

    def test_exhausted_lane_group_fails_fast_again(self, transport):
        keys, pts, pool = workload()
        with ShardedEngine(
            SPEC, shards=2, standbys=1
        ) as eng:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 0)
            eng.merged_summary()  # promotion consumed the standby
            kill_worker(eng, 0)
            for _ in range(3):  # back to the standbys=0 contract
                with pytest.raises(ShardError):
                    eng.merged_summary()

    def test_close_completes_with_standbys_after_death(self, transport):
        keys, pts, pool = workload()
        eng = ShardedEngine(
            SPEC, shards=3, standbys=1
        )
        try:
            eng.ingest_arrays(keys, pts)
            kill_worker(eng, 2)
        finally:
            t0 = time.monotonic()
            eng.close()
            assert time.monotonic() - t0 < 10.0
        for lanes in eng._lanes:
            for lane in lanes:
                assert not lane.proc.is_alive()
