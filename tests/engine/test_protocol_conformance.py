"""EngineProtocol conformance: both tiers, one behavioural contract.

The structural half (``isinstance`` against the runtime-checkable
protocol, every member present) and the behavioural half: an identical
workload fed to the in-process :class:`StreamEngine` and the
multi-process :class:`ShardedEngine` must produce identical per-key
results, identical counters, identical standing-query notifications,
and identical *error* behaviour (same exception type, batch rejected
atomically) — windowed and unwindowed.  Global reductions are
bit-identical on a single-shard ring and bound-compatible across a
multi-shard one (merge order differs across shards by design).
"""

import json
import math
import time

import numpy as np
import pytest

from repro.core import AdaptiveHull
from repro.engine import EngineProtocol, PROTOCOL_MEMBERS, StreamEngine
from repro.experiments.metrics import hull_distance
from repro.shard import ShardedEngine, SummarySpec
from repro.streams import bounded_shuffle, drifting_clusters_stream
from repro.streams.io import summary_state
from repro.window import WindowConfig

R = 8
KEYS = [f"s-{i}" for i in range(6)]
N = 600

MAX_DELAY = 0.3

WINDOWS = {
    "none": None,
    "count": WindowConfig(last_n=120),
    "timed": WindowConfig(horizon=2.0),
    "lateness": WindowConfig(horizon=2.0, max_delay=MAX_DELAY),
}

TIERS = ["stream", "sharded"]

#: The wire protocol the sharded tier speaks (frames is the only one);
#: it names the arm in each sharded test id.
TRANSPORT_MATRIX = ["frames"]


def make_engine(tier, window, shards=2):
    if tier == "stream":
        return StreamEngine(lambda: AdaptiveHull(R), window=window)
    return ShardedEngine(
        SummarySpec("AdaptiveHull", {"r": R}), shards=shards, window=window
    )


def workload():
    pts = drifting_clusters_stream(N, n_clusters=2, drift=0.15, seed=11)
    keys = np.array([KEYS[i % len(KEYS)] for i in range(N)])
    ts = np.arange(N, dtype=np.float64) / 100.0
    return keys, pts, ts


def feed(engine, timed):
    """The shared mixed-surface workload: records, arrays, singles."""
    keys, pts, ts = workload()
    third = N // 3
    # records path
    if timed:
        engine.ingest(
            [
                (k, p[0], p[1], t)
                for k, p, t in zip(keys[:third], pts[:third], ts[:third])
            ]
        )
    else:
        engine.ingest(
            [(k, p[0], p[1]) for k, p in zip(keys[:third], pts[:third])]
        )
    # arrays path
    kw = {"ts": ts[third : 2 * third]} if timed else {}
    engine.ingest_arrays(keys[third : 2 * third], pts[third : 2 * third], **kw)
    # single-record path
    for i in range(2 * third, N):
        if timed:
            engine.insert(keys[i], pts[i][0], pts[i][1], ts=ts[i])
        else:
            engine.insert(keys[i], pts[i][0], pts[i][1])


@pytest.mark.parametrize("tier", TIERS)
def test_structural_conformance(tier):
    with make_engine(tier, None) as engine:
        assert isinstance(engine, EngineProtocol)
        for member in PROTOCOL_MEMBERS:
            assert hasattr(engine, member), member


@pytest.mark.parametrize("mode", list(WINDOWS))
def test_identical_results_across_tiers(mode):
    window = WINDOWS[mode]
    timed = window is not None and window.timed
    with make_engine("stream", window) as a, make_engine(
        "sharded", window
    ) as b:
        seen_a, seen_b = [], []
        a.subscribe(lambda ks: seen_a.append(sorted(ks)))
        b.subscribe(lambda ks: seen_b.append(sorted(ks)))
        feed(a, timed)
        feed(b, timed)
        assert len(a) == len(b)
        assert sorted(a.keys()) == sorted(b.keys())
        for k in a.keys():
            assert a.hull(k) == b.hull(k), f"per-key hull differs for {k}"
        sa, sb = a.stats(), b.stats()
        for field in (
            "streams",
            "points_ingested",
            "batches_ingested",
            "evictions",
            "sample_points",
            "buckets",
            "bucket_merges",
            "bucket_expiries",
        ):
            assert getattr(sa, field) == getattr(sb, field), field
        assert seen_a == seen_b
        if timed:
            # Expiry notifications and totals match too.
            exp_a = a.advance_time(100.0)
            exp_b = b.advance_time(100.0)
            assert exp_a == exp_b > 0
            assert seen_a == seen_b
        # summary() creates lazily on both tiers; get() never creates.
        assert a.get("never") is None and b.get("never") is None
        assert a.summary("lazy").points_seen == 0
        assert b.summary("lazy").points_seen == 0
        assert len(a) == len(b)


def test_global_queries_bit_identical_on_single_shard():
    for mode, window in WINDOWS.items():
        timed = window is not None and window.timed
        with make_engine("stream", window) as a, make_engine(
            "sharded", window, shards=1
        ) as b:
            feed(a, timed)
            feed(b, timed)
            assert a.merged_hull() == b.merged_hull(), mode
            assert a.diameter() == b.diameter(), mode
            assert a.width() == b.width(), mode
            some = KEYS[:3]
            assert a.merged_hull(some) == b.merged_hull(some), mode


def test_global_queries_bounded_on_multi_shard():
    with make_engine("stream", None) as a, make_engine(
        "sharded", None, shards=3
    ) as b:
        feed(a, False)
        feed(b, False)
        ha, hb = a.merged_hull(), b.merged_hull()
        merged = a.merged_summary()
        bound = 4.0 * 16.0 * math.pi * merged.perimeter / (R * R)
        assert hull_distance(ha, hb) <= bound
        assert hull_distance(hb, ha) <= bound
        assert b.diameter() <= a.diameter() + bound
        assert a.diameter() <= b.diameter() + bound


def _error_cases(mode):
    """Each case: (name, needs_window, callable(engine))."""
    cases = [
        ("nan-records", None, lambda e: e.ingest([("a", 1.0, 1.0), ("b", float("nan"), 0.0)])),
        ("nan-arrays", None, lambda e: e.ingest_arrays(["a", "b"], [[1.0, 1.0], [np.nan, 0.0]])),
        ("nan-insert", None, lambda e: e.insert("a", float("inf"), 0.0)),
    ]
    if mode == "none":
        cases += [
            ("ts-records-unwindowed", None, lambda e: e.ingest([("a", 1.0, 1.0, 0.5)])),
            ("ts-arrays-unwindowed", None, lambda e: e.ingest_arrays(["a"], [[1.0, 1.0]], ts=[0.5])),
            ("ts-insert-unwindowed", None, lambda e: e.insert("a", 1.0, 1.0, ts=0.5)),
            ("advance-time-unwindowed", None, lambda e: e.advance_time(1.0)),
        ]
    if mode == "count":
        cases += [("advance-time-count", None, lambda e: e.advance_time(1.0))]
    if mode == "timed":
        cases += [
            ("missing-ts-records", None, lambda e: e.ingest([("a", 1.0, 1.0)])),
            ("missing-ts-arrays", None, lambda e: e.ingest_arrays(["a"], [[1.0, 1.0]])),
            ("missing-ts-insert", None, lambda e: e.insert("a", 1.0, 1.0)),
            ("mixed-ts-records", None, lambda e: e.ingest([("a", 1.0, 1.0, 0.5), ("b", 2.0, 2.0)])),
            ("decreasing-ts", None, lambda e: e.ingest([("a", 1.0, 1.0, 5.0), ("a", 2.0, 2.0, 1.0)])),
            ("non-finite-ts", None, lambda e: e.insert("a", 1.0, 1.0, ts=float("nan"))),
        ]
    return cases


@pytest.mark.parametrize("mode", list(WINDOWS))
def test_error_behaviour_identical_and_atomic(mode):
    window = WINDOWS[mode]
    for name, _, attempt in _error_cases(mode):
        with make_engine("stream", window) as a, make_engine(
            "sharded", window
        ) as b:
            for engine in (a, b):
                fired = []
                engine.subscribe(lambda ks: fired.append(ks))
                with pytest.raises(ValueError):
                    attempt(engine)
                # Atomic: nothing ingested, no key created, no
                # subscriber fired, counters untouched.
                tier = type(engine).__name__
                assert len(engine) == 0, (name, tier)
                assert engine.stats().points_ingested == 0, (name, tier)
                assert fired == [], (name, tier)


def test_four_tuple_none_ts_is_untimestamped_on_count_windows():
    """``(key, x, y, None)`` records count as untimestamped — callers
    that always build 4-tuples may pass None on count windows (both
    tiers; regression: the unified record path briefly coerced None to
    NaN and rejected them)."""
    window = WINDOWS["count"]
    recs = [("a", 1.0, 2.0, None), ("a", 2.0, 3.0, None)]
    with make_engine("stream", window) as a, make_engine(
        "sharded", window
    ) as b:
        for engine in (a, b):
            engine.ingest(recs)
            assert engine.stats().points_ingested == 2
        assert a.hull("a") == b.hull("a")
    # On a timed window the same batch is missing its timestamps.
    with make_engine("stream", WINDOWS["timed"]) as a, make_engine(
        "sharded", WINDOWS["timed"]
    ) as b:
        for engine in (a, b):
            with pytest.raises(ValueError, match="require a ts"):
                engine.ingest(recs)


def test_stale_cross_batch_ts_rejected_on_both_tiers():
    window = WINDOWS["timed"]
    with make_engine("stream", window) as a, make_engine(
        "sharded", window
    ) as b:
        for engine in (a, b):
            engine.ingest([("a", 1.0, 1.0, 5.0)])
            with pytest.raises(ValueError):
                engine.ingest([("a", 2.0, 2.0, 1.0)])
            assert engine.stats().points_ingested == 1


@pytest.mark.parametrize("mode", ["none", "timed"])
def test_snapshot_state_roundtrip_both_tiers(mode):
    window = WINDOWS[mode]
    timed = window is not None and window.timed
    with make_engine("stream", window) as a:
        feed(a, timed)
        doc = a.snapshot_state()
        with StreamEngine.from_snapshot_state(
            doc, lambda: AdaptiveHull(R), window=window
        ) as restored:
            assert sorted(restored.keys()) == sorted(a.keys())
            for k in a.keys():
                assert restored.hull(k) == a.hull(k)
    with make_engine("sharded", window) as b:
        feed(b, timed)
        doc = b.snapshot_state()
        with ShardedEngine.from_snapshot_state(doc) as restored:
            assert sorted(restored.keys()) == sorted(b.keys())
            for k in b.keys():
                assert restored.hull(k) == b.hull(k)


# -- transport matrix: the frames wire, bit-identical --------------------


@pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
@pytest.mark.parametrize("mode", list(WINDOWS))
def test_transport_matrix_identical_results(mode, transport):
    """The full conformance workload over the shard pipes: per-key
    results and counters must not depend on how the bytes cross them."""
    window = WINDOWS[mode]
    timed = window is not None and window.timed
    with make_engine("stream", window) as a, make_engine(
        "sharded", window
    ) as b:
        feed(a, timed)
        feed(b, timed)
        assert sorted(a.keys()) == sorted(b.keys())
        for k in a.keys():
            assert a.hull(k) == b.hull(k), (mode, transport, k)
        sa, sb = a.stats(), b.stats()
        assert sa.points_ingested == sb.points_ingested
        assert sa.sample_points == sb.sample_points
        if timed:
            assert a.advance_time(100.0) == b.advance_time(100.0)


@pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
def test_event_time_shuffle_bit_identical(transport):
    """Bounded-lateness parity under disorder: the same shuffled
    arrival order fed to both tiers gives bit-identical per-key state,
    and (after the flush) matches the sorted feed too."""
    window = WINDOWS["lateness"]
    keys, pts, ts = workload()
    order = bounded_shuffle(ts, MAX_DELAY, seed=5)
    sk, sp, sts = keys[order], pts[order], ts[order]
    with StreamEngine(
        lambda: AdaptiveHull(R), window=window
    ) as a, make_engine(
        "sharded", window
    ) as b, StreamEngine(
        lambda: AdaptiveHull(R), window=window
    ) as sorted_ref:
        for lo in range(0, N, 150):
            a.ingest_arrays(sk[lo:lo + 150], sp[lo:lo + 150], ts=sts[lo:lo + 150])
            b.ingest_arrays(sk[lo:lo + 150], sp[lo:lo + 150], ts=sts[lo:lo + 150])
        sorted_ref.ingest_arrays(keys, pts, ts=ts)
        # Same arrivals, different tiers: identical mid-stream.
        assert sorted(a.keys()) == sorted(b.keys())
        for k in a.keys():
            assert a.hull(k) == b.hull(k), (transport, k)
        assert a.stats().late_dropped == b.stats().late_dropped == 0
        # After the watermark flushes everything, disorder is invisible.
        horizon = float(ts[-1]) + MAX_DELAY + 1.0
        a.advance_time(horizon)
        b.advance_time(horizon)
        sorted_ref.advance_time(horizon)
        for k in sorted_ref.keys():
            assert b.hull(k) == sorted_ref.hull(k), (transport, k)


# -- the cached shard partial ---------------------------------------------


def cache_count(ring, result):
    """The ring-wide ``repro_partial_cache_total{result}`` reading."""
    values = ring.stats().obs["repro_partial_cache_total"]["values"]
    return values.get(f'result="{result}"', 0.0)


def fresh_folds(ring, some):
    """The whole-ring and ``some``-keys folds of a ring rebuilt from
    ``ring``'s snapshot: same layout, hence the same fold order, and no
    cache behind it."""
    with ShardedEngine.from_snapshot_state(ring.snapshot_state()) as fresh:
        return (
            summary_state(fresh.merged_summary()),
            summary_state(fresh.merged_summary(some)),
        )


MUTATIONS = ["ingest", "advance_time", "resize", "summary", "restore"]


@pytest.mark.parametrize("verb", MUTATIONS)
def test_cached_partial_matches_fresh_fold(verb):
    """A whole-ring answer served after a mutating verb is the fold of
    the mutated state, never a stale cache: it equals a fresh fold,
    and so does the repeat the cache serves.  Key-selection folds
    bypass the cache and match too."""
    window = WINDOWS["timed"] if verb == "advance_time" else None
    timed = window is not None
    with make_engine("sharded", window) as ring:
        feed(ring, timed)
        ring.merged_summary()  # fill every shard's cache
        if verb == "ingest":
            ring.ingest([("fresh", 123.0, 456.0)])
        elif verb == "advance_time":
            assert ring.advance_time(7.0) > 0
        elif verb == "resize":
            ring.resize(3)
        elif verb == "summary":
            ring.summary("brand-new")
        if verb == "restore":
            target = ShardedEngine.from_snapshot_state(
                ring.snapshot_state(), shards=3
            )
        else:
            target = ring
        try:
            expected, expected_some = fresh_folds(target, KEYS[:2])
            first = summary_state(target.merged_summary())
            hits = cache_count(target, "hit")
            repeat = summary_state(target.merged_summary())
            assert cache_count(target, "hit") == hits + target.num_shards
            assert first == repeat == expected
            some = summary_state(target.merged_summary(KEYS[:2]))
            assert some == expected_some
            assert cache_count(target, "hit") == hits + target.num_shards
        finally:
            if target is not ring:
                target.close()
        if verb == "ingest":
            assert (123.0, 456.0) in ring.merged_hull()


def test_no_fold_while_the_pipe_is_idle():
    """Idle time folds nothing: after paced ingests with idle gaps, the
    next whole-ring query misses on every shard."""
    keys, pts, _ = workload()
    with make_engine("sharded", None) as ring:
        feed(ring, False)
        ring.merged_summary()
        for lo in range(0, 120, 40):
            ring.ingest_arrays(keys[lo:lo + 40], pts[lo:lo + 40] + 1.0)
            time.sleep(0.05)
        misses = cache_count(ring, "miss")
        ring.merged_summary()
        assert cache_count(ring, "miss") == misses + ring.num_shards


@pytest.mark.parametrize("mode", ["none", "lateness"])
def test_resharded_restore_equals_restore_then_resize(tmp_path, mode):
    """``restore(path, shards=3)`` is ``restore(path)`` followed by
    ``resize(3)``: byte-identical per-key state, pending reorder
    buffers included."""
    window = WINDOWS[mode]
    keys, pts, ts = workload()
    with make_engine("sharded", window) as ring:
        if window is None:
            ring.ingest_arrays(keys, pts)
        else:
            order = bounded_shuffle(ts, MAX_DELAY, seed=5)
            ring.ingest_arrays(keys[order], pts[order], ts=ts[order])
            assert ring.stats().buffered > 0
        path = ring.snapshot(tmp_path / "ring.json")
        want = {k: ring.hull(k) for k in ring.keys()}
    with ShardedEngine.restore(path, shards=3) as direct, ShardedEngine.restore(
        path
    ) as stepped:
        stepped.resize(3)
        assert sorted(direct.keys()) == sorted(stepped.keys()) == sorted(want)
        for k in want:
            assert json.dumps(summary_state(direct.get(k))) == json.dumps(
                summary_state(stepped.get(k))
            )
            assert direct.hull(k) == want[k]
        assert json.dumps(direct.snapshot_state()) == json.dumps(
            stepped.snapshot_state()
        )


@pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
def test_snapshot_restore_across_transports(transport):
    """A ring snapshot restores onto a fresh ring with identical
    per-key state."""
    with make_engine("sharded", None) as b:
        feed(b, False)
        doc = b.snapshot_state()
        with ShardedEngine.from_snapshot_state(doc) as restored:
            assert sorted(restored.keys()) == sorted(b.keys())
            for k in b.keys():
                assert restored.hull(k) == b.hull(k)


@pytest.mark.parametrize("tier", TIERS)
def test_subscribe_filter_and_cancel(tier):
    with make_engine(tier, None) as engine:
        all_seen, filtered = [], []
        engine.subscribe(lambda ks: all_seen.append(sorted(ks)))
        sub = engine.subscribe(lambda ks: filtered.append(sorted(ks)), keys=["a"])
        engine.ingest([("b", 1.0, 1.0)])
        engine.ingest([("a", 1.0, 1.0), ("b", 0.0, 0.0)])
        assert all_seen == [["b"], ["a", "b"]]
        assert filtered == [["a"]]
        assert sub.fired == 1
        sub.cancel()
        engine.ingest([("a", 2.0, 2.0)])
        assert filtered == [["a"]]
        # Empty batches are a uniform no-op.
        before = engine.stats().batches_ingested
        assert engine.ingest([]) == 0
        assert engine.ingest_arrays([], np.empty((0, 2))) == 0
        assert engine.stats().batches_ingested == before
        assert all_seen[-1] == ["a"]


# -- insert is a one-record batch ------------------------------------------

#: Scheme specs for the insert-equivalence matrix (the stream tier
#: builds from the same spec, so both tiers run identical summaries).
EQUIV_SCHEMES = {
    "adaptive": SummarySpec("AdaptiveHull", {"r": R}),
    "uniform": SummarySpec("UniformHull", {"r": R}),
    "fixed": SummarySpec("FixedSizeAdaptiveHull", {"r": R}),
    "exact": SummarySpec("ExactHull", {}),
}
EQUIV_WINDOWS = {
    "none": None,
    "count": WindowConfig(last_n=50),
    "timed": WindowConfig(horizon=1.0),
    "lateness": WindowConfig(horizon=1.0, max_delay=0.2),
}
EQUIV_N = 400


def equiv_records(mode):
    """400 records over 5 keys; under bounded lateness the arrival
    order is shuffled within the bound and every 25th record arrives
    0.5 behind its slot, so some are dropped as late."""
    pts = drifting_clusters_stream(EQUIV_N, n_clusters=2, drift=0.15, seed=3)
    keys = [f"k{i % 5}" for i in range(EQUIV_N)]
    if EQUIV_WINDOWS[mode] is None or not EQUIV_WINDOWS[mode].timed:
        return keys, pts, None
    ts = np.arange(EQUIV_N, dtype=np.float64) / 100.0
    if mode == "lateness":
        order = bounded_shuffle(ts, 0.2, seed=9)
        keys = [keys[i] for i in order]
        pts, ts = pts[order], ts[order].copy()
        ts[::25] -= 0.5
    return keys, pts, ts


def equiv_engine(tier, scheme, mode):
    spec, window = EQUIV_SCHEMES[scheme], EQUIV_WINDOWS[mode]
    if tier == "stream":
        return StreamEngine(spec.build, window=window)
    return ShardedEngine(spec, shards=2, window=window)


def run_singles(engine, keys, pts, ts, one_record_batch):
    """Feed record by record; returns (changed flags, notifications)."""
    seen = []
    engine.subscribe(lambda ks: seen.append(sorted(ks)))
    changed = []
    for i, key in enumerate(keys):
        t = None if ts is None else float(ts[i])
        x, y = float(pts[i][0]), float(pts[i][1])
        if one_record_batch:
            run_ts = None if t is None else [t]
            changed.append(engine.ingest_arrays([key], [(x, y)], ts=run_ts) > 0)
        else:
            changed.append(engine.insert(key, x, y, ts=t))
    return changed, seen


def engine_state_json(engine):
    return json.dumps(engine.snapshot_state(), sort_keys=True)


@pytest.mark.parametrize("mode", list(EQUIV_WINDOWS))
@pytest.mark.parametrize("scheme", list(EQUIV_SCHEMES))
@pytest.mark.parametrize("tier", TIERS)
def test_insert_is_a_one_record_batch(tier, scheme, mode):
    """``insert`` and a one-record ``ingest_arrays`` are the same call:
    same return values, notifications, counters (one batch per
    record), late drops and byte-identical per-key state."""
    keys, pts, ts = equiv_records(mode)
    with equiv_engine(tier, scheme, mode) as a, equiv_engine(
        tier, scheme, mode
    ) as b:
        changed_a, seen_a = run_singles(a, keys, pts, ts, False)
        changed_b, seen_b = run_singles(b, keys, pts, ts, True)
        assert changed_a == changed_b
        assert any(changed_a)
        assert seen_a == seen_b
        sa, sb = a.stats(), b.stats()
        for field in ("points_ingested", "batches_ingested", "late_dropped",
                      "buffered", "sample_points", "buckets"):
            assert getattr(sa, field) == getattr(sb, field), field
        admitted = EQUIV_N - sa.late_dropped
        assert sa.batches_ingested == admitted
        assert a.late_drops() == b.late_drops()
        if mode == "lateness":
            assert sa.late_dropped > 0
        else:
            assert sa.points_ingested == EQUIV_N
        # The snapshot holds every key's summary_state (per worker
        # engine on the sharded tier) plus the engine counters.
        assert engine_state_json(a) == engine_state_json(b)
        if mode in ("timed", "lateness"):
            assert a.advance_time(10.0) == b.advance_time(10.0)
            assert seen_a == seen_b
            assert engine_state_json(a) == engine_state_json(b)


@pytest.mark.parametrize("mode", ["none", "count", "timed"])
@pytest.mark.parametrize("scheme", list(EQUIV_SCHEMES))
def test_insert_matches_per_point_summary_step(scheme, mode):
    """Without reordering, the engine's ``insert`` runs the paper's
    per-point step: each key's state equals a standalone summary fed
    the same points one ``insert`` at a time."""
    keys, pts, ts = equiv_records(mode)
    with equiv_engine("stream", scheme, mode) as engine:
        run_singles(engine, keys, pts, ts, False)
        reference = {}
        for i, key in enumerate(keys):
            summary = reference.get(key)
            if summary is None:
                summary = reference[key] = engine.summary_factory()
            p = (float(pts[i][0]), float(pts[i][1]))
            if ts is None:
                summary.insert(p)
            else:
                summary.insert(p, ts=float(ts[i]))
        for key, summary in reference.items():
            assert json.dumps(
                summary_state(engine.get(key)), sort_keys=True
            ) == json.dumps(summary_state(summary), sort_keys=True), key


# -- advance_time refuses a non-finite clock before any side effect -------


@pytest.mark.parametrize("now", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mode", ["timed", "lateness"])
@pytest.mark.parametrize("tier", TIERS)
def test_advance_time_rejects_non_finite_now(tier, mode, now, tmp_path):
    """Both tiers raise ``ValueError`` on a non-finite ``now`` before
    logging it or moving any clock; the engine stays usable."""
    keys, pts, ts = workload()
    with make_engine(tier, WINDOWS[mode]) as engine:
        engine.attach_durability(tmp_path / "wal")
        engine.ingest_arrays(keys[:200], pts[:200], ts=ts[:200])
        engine.advance_time(1.0)
        seq, watermark = engine.wal.last_seq, engine.watermark
        before = engine.snapshot_state()
        with pytest.raises(ValueError, match="finite"):
            engine.advance_time(now)
        assert engine.wal.last_seq == seq
        assert engine.watermark == watermark
        assert engine.snapshot_state() == before
        engine.advance_time(float(ts[199]) + 1.0)
        assert engine.wal.last_seq == seq + 1
