"""Online ring resize: live migration of exactly the displaced keys.

Consistent hashing's contract makes ``resize(n)`` cheap: only the keys
whose route changes under the new ring move, everything else stays
where it is.  The contract under test: the resized ring is
bit-identical to a ring *born* at the target size, serving continues
throughout, and the moved set is exactly the proportional slice the
hash ring displaces.
"""

import numpy as np
import pytest

from repro.shard import HashRing, ShardedEngine, ShardError, SummarySpec
from repro.streams.io import summary_state
from repro.window import WindowConfig

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
# A migrated key travels as a snapshot doc, so the continue-after-move
# tests run over schemes with different restore paths.
SPECS = [
    SPEC,
    SummarySpec("FixedSizeAdaptiveHull", {"r": 8}),
    SummarySpec("UniformHull", {"r": 16}),
]
by_scheme = pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.scheme)


def workload(n=500, n_keys=24, seed=9):
    rng = np.random.default_rng(seed)
    pool = np.array([f"key-{i:02d}" for i in range(n_keys)])
    idx = rng.integers(0, n_keys, n)
    ts = np.arange(n, dtype=np.float64) / 25.0
    return pool[idx], rng.normal(0.0, 10.0, (n, 2)), ts, pool


def native_ring(shards, keys, pts, ts=None, window=None, spec=SPEC):
    """A reference ring born at the target size, fed the same stream."""
    eng = ShardedEngine(spec, shards=shards, window=window)
    kw = {} if ts is None else {"ts": ts}
    eng.ingest_arrays(keys, pts, **kw)
    return eng


def resize_then_continue(spec, start, target):
    """Feed half the stream, resize, feed the rest; every key's full
    summary doc (counters and structure included) must match a ring
    born at the target size."""
    keys, pts, _, pool = workload()
    half = len(keys) // 2
    with ShardedEngine(spec, shards=start) as eng, \
            native_ring(target, keys, pts, spec=spec) as ref:
        eng.ingest_arrays(keys[:half], pts[:half])
        eng.resize(target)
        eng.ingest_arrays(keys[half:], pts[half:])
        for k in pool:
            assert eng.hull(k) == ref.hull(k)
            assert summary_state(eng.get(k)) == summary_state(ref.get(k))
        assert eng.stats().points_ingested == len(keys)


class TestGrow:
    def test_grow_matches_native_ring(self):
        keys, pts, _, pool = workload()
        with ShardedEngine(SPEC, shards=2) as eng, \
                native_ring(4, keys, pts) as ref:
            eng.ingest_arrays(keys, pts)
            event = eng.resize(4)
            assert event["from"] == 2 and event["to"] == 4
            assert eng.num_shards == 4
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
                assert eng.shard_for(k) == ref.shard_for(k)
            assert eng.merged_hull() == ref.merged_hull()
            assert eng.stats().points_ingested == len(keys)

    def test_grow_moves_exactly_the_displaced_slice(self):
        keys, pts, _, pool = workload()
        with ShardedEngine(SPEC, shards=2) as eng:
            eng.ingest_arrays(keys, pts)
            old_ring = HashRing(2, replicas=eng.ring.replicas)
            new_ring = HashRing(4, replicas=eng.ring.replicas)
            live = eng.keys()
            expected_moves = sum(
                1 for k in live
                if old_ring.shard_for(k) != new_ring.shard_for(k)
            )
            event = eng.resize(4)
            assert event["moved_keys"] == expected_moves
            assert event["total_keys"] == len(live)
            # Proportional, not total: a grow must not reshuffle
            # everything.
            assert 0 < event["moved_keys"] < len(live)

    def test_growth_movers_land_only_on_new_shards(self):
        keys, pts, _, pool = workload()
        with ShardedEngine(SPEC, shards=2) as eng:
            eng.ingest_arrays(keys, pts)
            before = {k: eng.shard_for(k) for k in pool}
            eng.resize(4)
            for k in pool:
                after = eng.shard_for(k)
                if after != before[k]:
                    assert after in (2, 3)

    @by_scheme
    def test_ingest_continues_after_grow(self, spec):
        resize_then_continue(spec, 2, 3)


class TestShrink:
    def test_shrink_matches_native_ring(self):
        keys, pts, _, pool = workload()
        with ShardedEngine(SPEC, shards=4) as eng, \
                native_ring(2, keys, pts) as ref:
            eng.ingest_arrays(keys, pts)
            event = eng.resize(2)
            assert event["from"] == 4 and event["to"] == 2
            assert eng.num_shards == 2
            assert len(eng._lanes) == 2  # surplus lanes are retired
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
            assert eng.merged_hull() == ref.merged_hull()

    @by_scheme
    def test_ingest_continues_after_shrink(self, spec):
        resize_then_continue(spec, 4, 2)

    def test_shrink_retires_worker_processes(self):
        keys, pts, _, _ = workload(n=100)
        with ShardedEngine(SPEC, shards=4) as eng:
            eng.ingest_arrays(keys, pts)
            surplus = [l.proc for l in eng._lanes[2] + eng._lanes[3]]
            eng.resize(2)
            for p in surplus:
                p.join(timeout=5.0)
                assert not p.is_alive()


class TestResizeSemantics:
    def test_same_size_is_a_cheap_no_op(self):
        keys, pts, _, _ = workload(n=100)
        with ShardedEngine(SPEC, shards=2) as eng:
            eng.ingest_arrays(keys, pts)
            event = eng.resize(2)
            assert event["moved_keys"] == 0
            assert eng.num_shards == 2

    def test_resize_events_accumulate(self):
        keys, pts, _, _ = workload(n=100)
        with ShardedEngine(SPEC, shards=2) as eng:
            eng.ingest_arrays(keys, pts)
            eng.resize(3)
            eng.resize(2)
            assert [e["to"] for e in eng.resize_events] == [3, 2]

    def test_invalid_target_rejected(self):
        with ShardedEngine(SPEC, shards=2) as eng:
            with pytest.raises(ValueError):
                eng.resize(0)

    def test_resize_after_close_raises(self):
        eng = ShardedEngine(SPEC, shards=2)
        eng.close()
        with pytest.raises(ShardError, match="closed"):
            eng.resize(3)

    def test_resize_with_standbys_spawns_standby_lanes(self):
        keys, pts, _, pool = workload(n=200)
        with ShardedEngine(SPEC, shards=2, standbys=1) as eng:
            eng.ingest_arrays(keys, pts)
            eng.resize(3)
            assert all(len(lanes) == 2 for lanes in eng._lanes)
            # The new shard's standby is warm: kill its primary and the
            # migrated keys must still answer.
            moved = [k for k in pool if eng.shard_for(k) == 2]
            assert moved
            hulls = {k: eng.hull(k) for k in moved}
            eng._procs[2].kill()
            eng._procs[2].join(timeout=5.0)
            for k in moved:
                assert eng.hull(k) == hulls[k]
            assert eng.stats().promotions == 1


class TestWindowedResize:
    def test_windowed_grow_matches_native_ring(self):
        keys, pts, ts, pool = workload()
        window = WindowConfig(horizon=5.0)
        with ShardedEngine(SPEC, shards=2, window=window) as eng, \
                native_ring(3, keys, pts, ts=ts, window=window) as ref:
            eng.ingest_arrays(keys, pts, ts=ts)
            eng.resize(3)
            for k in pool:
                assert eng.hull(k) == ref.hull(k)

    def test_event_time_buffers_follow_their_keys(self):
        from repro.streams import bounded_shuffle

        keys, pts, ts, pool = workload()
        window = WindowConfig(horizon=5.0, max_delay=1.0)
        order = bounded_shuffle(ts, window.max_delay, seed=2)
        half = len(order) // 2
        with ShardedEngine(SPEC, shards=2, window=window) as eng, \
                ShardedEngine(SPEC, shards=3, window=window) as ref:
            for target, sl in ((eng, order[:half]), (ref, order[:half])):
                target.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
            # Mid-stream resize: un-released reorder buffers migrate
            # with their keys.
            eng.resize(3)
            for target, sl in ((eng, order[half:]), (ref, order[half:])):
                target.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
            for target in (eng, ref):
                target.advance_time(float(ts[-1]) + 2 * window.max_delay)
            for k in pool:
                assert eng.hull(k) == ref.hull(k)
            assert eng.late_dropped == ref.late_dropped
