"""ShardedEngine: routing exactness, global reductions, ring snapshots.

The contract under test: per-key results are bit-for-bit identical to a
single StreamEngine fed the same records (each key lives on one shard
and arrives in order), global queries come from a tree reduction of
per-shard merged summaries and respect the scheme's error bounds, and a
whole-ring snapshot restores onto the same *or a different* worker
count with identical per-key state.

Worker counts stay small (2) and streams short: these are protocol and
correctness tests, not throughput tests (benchmarks/bench_shard_scaling
covers that).
"""

import math
import multiprocessing

import numpy as np
import pytest

from repro.baselines import ExactHull
from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.experiments.metrics import hull_distance
from repro.shard import ShardedEngine, ShardError, SummarySpec
from repro.streams import disk_stream


@pytest.fixture(scope="module")
def keyed_workload():
    rng = np.random.default_rng(5)
    n, n_keys = 6000, 24
    keys_pool = np.array([f"sensor-{i:03d}" for i in range(n_keys)])
    centers = rng.uniform(-40.0, 40.0, (n_keys, 2))
    idx = rng.integers(0, n_keys, n)
    keys = keys_pool[idx]
    pts = centers[idx] + rng.normal(0.0, 1.0, (n, 2))
    return keys, pts


SPEC = SummarySpec("AdaptiveHull", {"r": 16})


def test_spec_coercion_and_validation():
    # Coercion fills partial kwargs to the full config; a canonical
    # spec comes back as itself.
    canonical = SummarySpec.coerce(SPEC)
    assert canonical.config == SPEC.build().get_config()
    assert SummarySpec.coerce(canonical) is canonical
    from_cls = SummarySpec.coerce(ExactHull)
    assert from_cls.build().name == "exact"
    from_inst = SummarySpec.coerce(AdaptiveHull(32, queue_mode="exact"))
    built = from_inst.build()
    assert (built.r, built.queue_mode) == (32, "exact")
    with pytest.raises(ValueError, match="unknown summary scheme"):
        SummarySpec("NoSuchHull", {})
    with pytest.raises(TypeError):
        SummarySpec.coerce(42)


def test_engine_validates_parameters():
    with pytest.raises(ValueError, match="at least one shard"):
        ShardedEngine(SPEC, shards=0)


def test_per_key_hulls_match_single_engine(keyed_workload):
    keys, pts = keyed_workload
    single = StreamEngine(SPEC.build)
    single.ingest_arrays(keys, pts)
    with ShardedEngine(SPEC, shards=2) as eng:
        changed = eng.ingest_arrays(keys, pts)
        assert changed > 0
        assert sorted(eng.keys()) == sorted(single.keys())
        assert len(eng) == len(single)
        for k in single.keys():
            assert eng.hull(k) == single.hull(k)
        # keys are spread across both shards, not piled on one
        stats = eng.stats()
        assert stats.streams == len(single)
        assert stats.points_ingested == len(pts)
        assert all(s["streams"] > 0 for s in stats.per_shard)


def test_record_ingest_matches_array_ingest(keyed_workload):
    keys, pts = keyed_workload
    records = [
        (k, float(x), float(y))
        for k, (x, y) in zip(keys.tolist()[:2000], pts[:2000])
    ]
    with ShardedEngine(SPEC, shards=2) as by_records:
        by_records.ingest(records)
        with ShardedEngine(SPEC, shards=2) as by_arrays:
            by_arrays.ingest_arrays(keys[:2000], pts[:2000])
            for k in by_arrays.keys():
                assert by_records.hull(k) == by_arrays.hull(k)


def test_global_merged_hull_within_error_bound(keyed_workload):
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        merged = eng.merged_summary()
        merged.check_invariants()
        assert merged.points_seen == len(pts)
        exact = ExactHull()
        exact.insert_many(pts)
        err = hull_distance(exact.hull(), merged.hull())
        bound = 16.0 * math.pi * merged.perimeter / (16 * 16)
        assert err <= bound + 1e-9
        # the query layer answers off the same reduction
        assert eng.diameter() > 0.0
        assert 0.0 < eng.width() <= eng.diameter() + 1e-9


def test_exact_scheme_global_hull_is_exact(keyed_workload):
    """With ExactHull summaries the tree-reduced global hull must equal
    the hull of every ingested point — sharding loses nothing."""
    keys, pts = keyed_workload
    spec = SummarySpec("ExactHull", {})
    with ShardedEngine(spec, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        whole = ExactHull()
        whole.insert_many(pts)
        assert eng.merged_hull() == whole.hull()


def test_selected_keys_reduction(keyed_workload):
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        some = sorted(set(keys.tolist()))[:3]
        merged = eng.merged_summary(some)
        mask = np.isin(keys, some)
        per_key_seen = int(mask.sum())
        assert merged.points_seen == per_key_seen
        assert eng.diameter(some) <= eng.diameter() + 1e-9


def test_summary_returns_a_detached_copy(keyed_workload):
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        k = keys[0]
        copy = eng.summary(k)
        assert copy.hull() == eng.hull(k)
        before = eng.hull(k)
        copy.insert((1e6, 1e6))  # mutate the copy only
        assert eng.hull(k) == before
        # The read-only probe never creates; ``summary`` (the protocol
        # surface) creates lazily, like StreamEngine.summary.
        assert eng.get("never-probed") is None
        assert "never-probed" not in eng.keys()
        lazy = eng.summary("never-fed")
        assert lazy.points_seen == 0
        assert "never-fed" in eng.keys()


def test_empty_engine_edge_cases():
    with ShardedEngine(SPEC, shards=2) as eng:
        assert eng.keys() == []
        assert len(eng) == 0
        assert eng.hull("nope") == []
        assert eng.diameter() == 0.0
        assert eng.width() == 0.0
        assert eng.ingest_arrays([], np.empty((0, 2))) == 0
        merged = eng.merged_summary()
        assert merged.hull() == []


def test_bad_batch_is_rejected_and_workers_survive(keyed_workload):
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys[:100], pts[:100])
        with pytest.raises((ValueError, TypeError)):
            eng.ingest_arrays(
                keys[:2], np.array([[0.0, 0.0], [np.nan, 1.0]])
            )
        # ring still serves queries and ingests afterwards
        assert len(eng) > 0
        eng.ingest_arrays(keys[100:200], pts[100:200])
        assert eng.stats().points_ingested == 200


def test_bad_record_rejected_atomically_across_shards():
    """The records path validates in the parent: a NaN record must
    reject the whole batch before any shard ingests its slice."""
    with ShardedEngine(SPEC, shards=2) as eng:
        records = [("a", 0.0, 0.0), ("b", 1.0, 1.0), ("c", float("nan"), 2.0)]
        with pytest.raises(ValueError):
            eng.ingest(records)
        assert eng.keys() == []
        assert eng.stats().points_ingested == 0
        # and the ring keeps working
        eng.ingest([("a", 0.0, 0.0), ("b", 1.0, 1.0)])
        assert sorted(eng.keys()) == ["a", "b"]


def test_worker_side_error_does_not_desync_the_protocol(keyed_workload):
    """When one shard errors mid-broadcast, the parent must drain the
    other shards' pending replies — the next request on every pipe has
    to see its own reply, not a stale one."""
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        # Tuples are hashable (workers accept them) but not JSON
        # scalars, so snapshot_state errors worker-side on the owning
        # shard only — a genuine mid-broadcast partial failure.
        eng.ingest([((1, 2), 0.5, 0.5)])
        with pytest.raises(ShardError, match="snapshot keys"):
            eng.snapshot("/tmp/never-written.json")
        # every subsequent op still pairs with its own reply
        stats = eng.stats()
        assert stats.streams == len(eng.keys())
        assert eng.hull(keys[0]) != []


def test_snapshot_restore_same_layout(tmp_path, keyed_workload):
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        path = eng.snapshot(tmp_path / "ring.json")
        restored = ShardedEngine.restore(path)
        try:
            assert sorted(restored.keys()) == sorted(eng.keys())
            for k in eng.keys():
                assert restored.hull(k) == eng.hull(k)
            assert restored.points_ingested == eng.points_ingested
            # the restored ring keeps streaming
            restored.ingest_arrays(keys[:50], pts[:50])
        finally:
            restored.close()


def test_snapshot_restore_resharded(tmp_path, keyed_workload):
    """Restoring onto a different worker count (load, then resize)
    moves keys through the new ring — per-key hulls must survive
    unchanged in both directions (grow and shrink)."""
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys, pts)
        path = eng.snapshot(tmp_path / "ring.json")
        expected = {k: eng.hull(k) for k in eng.keys()}
    for new_shards in (1, 3):
        restored = ShardedEngine.restore(path, shards=new_shards)
        try:
            assert restored.num_shards == new_shards
            assert sorted(restored.keys()) == sorted(expected)
            for k, hull in expected.items():
                assert restored.hull(k) == hull
            # per-shard point counters follow the moved summaries, so
            # stats stay truthful after the re-deal
            stats = restored.stats()
            assert sum(s["points_ingested"] for s in stats.per_shard) == len(pts)
        finally:
            restored.close()


def test_restore_rejects_foreign_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something.else", "version": 1}')
    with pytest.raises(ValueError, match="not a shard snapshot"):
        ShardedEngine.restore(bad)


@pytest.mark.parametrize("shards", [None, 3])
def test_failed_restore_stops_its_workers(keyed_workload, shards):
    """A restore that fails worker-side closes the ring it built: no
    worker may outlive the failed call, even while the exception (and
    with it the traceback's reference to the half-built ring) is
    still held."""
    keys, pts = keyed_workload
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(keys[:500], pts[:500])
        doc = eng.snapshot_state()
    key, _ = doc["engines"][0]["summaries"][0]
    doc["engines"][0]["summaries"][0] = [key, {"format": "garbage"}]
    before = set(multiprocessing.active_children())
    with pytest.raises(ShardError) as info:
        ShardedEngine.from_snapshot_state(doc, shards=shards)
    leaked = [
        p.name
        for p in multiprocessing.active_children()
        if p not in before and p.name.startswith("repro-shard")
    ]
    assert leaked == [], (leaked, info.value)


def test_closed_engine_raises(keyed_workload):
    keys, pts = keyed_workload
    eng = ShardedEngine(SPEC, shards=2)
    eng.close()
    eng.close()  # idempotent
    with pytest.raises(ShardError, match="closed"):
        eng.ingest_arrays(keys[:10], pts[:10])


def test_integer_and_mixed_keys_route_consistently():
    """Integer keys take the vectorised unique/inverse path; mixed
    object keys take the per-record path — both must agree with the
    plain engine."""
    pts = disk_stream(400, seed=3)
    int_keys = np.arange(400) % 5
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(int_keys, pts)
        single = StreamEngine(SPEC.build)
        single.ingest_arrays(int_keys, pts)
        for k in single.keys():
            assert eng.hull(k) == single.hull(k)
    mixed = [("a" if i % 2 else i % 3) for i in range(400)]
    with ShardedEngine(SPEC, shards=2) as eng:
        eng.ingest_arrays(mixed, pts)
        single = StreamEngine(SPEC.build)
        single.ingest_arrays(mixed, pts)
        for k in single.keys():
            assert eng.hull(k) == single.hull(k)
