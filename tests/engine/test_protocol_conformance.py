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

import math

import numpy as np
import pytest

from repro.core import AdaptiveHull
from repro.engine import EngineProtocol, PROTOCOL_MEMBERS, StreamEngine
from repro.experiments.metrics import hull_distance
from repro.shard import ShardedEngine, SummarySpec
from repro.streams import bounded_shuffle, drifting_clusters_stream
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


def make_engine(tier, window, shards=2, worker_push=True):
    if tier == "stream":
        return StreamEngine(lambda: AdaptiveHull(R), window=window)
    return ShardedEngine(
        SummarySpec("AdaptiveHull", {"r": R}),
        shards=shards,
        window=window,
        worker_push=worker_push,
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


# -- worker-push partials vs cold tree-reduce ----------------------------


@pytest.mark.parametrize("mode", ["none", "timed"])
def test_worker_push_partials_bit_identical_to_cold(mode):
    """Global reductions must not care whether a shard's partial was
    folded opportunistically (worker-push) or on the query path (cold
    tree-reduce): the warm partial is the same canonical-order fold."""
    window = WINDOWS[mode]
    timed = window is not None and window.timed
    with make_engine(
        "sharded", window, worker_push=True
    ) as warm, make_engine(
        "sharded", window, worker_push=False
    ) as cold:
        feed(warm, timed)
        feed(cold, timed)
        # Query twice: the first fold warms the push ring's partials,
        # the second is served straight from them.
        for _ in range(2):
            assert warm.merged_hull() == cold.merged_hull()
            assert warm.diameter() == cold.diameter()
            assert warm.width() == cold.width()
        s_warm, s_cold = warm.stats(), cold.stats()
        assert s_warm.partials_served >= warm.num_shards
        assert s_cold.partials_served == 0
        # Mutate after the warm query: the partial must go dirty, never
        # serve stale state.
        warm.ingest([("fresh", 123.0, 456.0, 7.0)] if timed else [("fresh", 123.0, 456.0)])
        cold.ingest([("fresh", 123.0, 456.0, 7.0)] if timed else [("fresh", 123.0, 456.0)])
        assert warm.merged_hull() == cold.merged_hull()
        assert any(
            (123.0, 456.0) == v for v in warm.merged_hull()
        ), "post-warm ingest missing from the global fold"


def test_worker_push_selection_queries_never_use_partials():
    """Key-selection folds always compute directly (the partial covers
    the whole shard, not a selection)."""
    with make_engine("sharded", None, worker_push=True) as eng:
        feed(eng, False)
        eng.merged_hull()  # warm the partials
        some = KEYS[:2]
        with make_engine("sharded", None, worker_push=False) as cold:
            feed(cold, False)
            assert eng.merged_hull(some) == cold.merged_hull(some)


@pytest.mark.parametrize("transport", TRANSPORT_MATRIX)
def test_snapshot_restore_across_transports(transport):
    """A ring snapshot restores onto a fresh ring (worker push off)
    with identical per-key state."""
    with make_engine("sharded", None) as b:
        feed(b, False)
        doc = b.snapshot_state()
        with ShardedEngine.from_snapshot_state(
            doc, worker_push=False
        ) as restored:
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
