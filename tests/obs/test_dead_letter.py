"""Dead-letter hook: ``on_late=`` hands dropped-late slices to a
callback as ``(key, points, ts, watermark)`` on both tiers, while the
count-only default stays zero-cost and bit-identical."""

import numpy as np
import pytest

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.obs import registry as obs_registry
from repro.shard import ShardedEngine, SummarySpec

WINDOW = {"horizon": 50.0, "max_delay": 5.0}


class Collector:
    def __init__(self):
        self.calls = []

    def __call__(self, key, points, ts, watermark):
        self.calls.append((key, np.array(points), np.array(ts), watermark))


def push_late(engine):
    """Warm the watermark to 95.0, then send 2 late records on one key
    and 1 on another."""
    engine.ingest_arrays(
        np.array(["a", "b"]),
        np.array([[0.0, 0.0], [1.0, 1.0]]),
        ts=np.array([10.0, 10.0]),
    )
    engine.advance_time(100.0)
    engine.ingest_arrays(
        np.array(["a", "a", "b"]),
        np.array([[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]),
        ts=np.array([0.5, 1.5, 2.5]),
    )


def check_calls(calls):
    by_key = {key: (pts, ts, wm) for key, pts, ts, wm in calls}
    assert set(by_key) == {"a", "b"}
    pts_a, ts_a, wm_a = by_key["a"]
    np.testing.assert_allclose(pts_a, [[2.0, 2.0], [3.0, 3.0]])
    np.testing.assert_allclose(ts_a, [0.5, 1.5])
    assert wm_a == pytest.approx(95.0)
    pts_b, ts_b, wm_b = by_key["b"]
    np.testing.assert_allclose(pts_b, [[4.0, 4.0]])
    np.testing.assert_allclose(ts_b, [2.5])
    assert wm_b == pytest.approx(95.0)


def test_engine_on_late_receives_dropped_slices():
    hook = Collector()
    engine = StreamEngine(
        lambda: AdaptiveHull(8), window=WINDOW, on_late=hook
    )
    push_late(engine)
    check_calls(hook.calls)
    stats = engine.stats()
    assert stats.late_dropped == 3
    assert engine.late_drops() == {"a": 2, "b": 1}
    assert (
        stats.obs["repro_dead_letter_records_total"]["values"][""] == 3
    )


def test_shard_on_late_fires_in_parent_process():
    hook = Collector()
    with ShardedEngine(
        SummarySpec("AdaptiveHull", {"r": 8}),
        shards=2,
        window=WINDOW,
        on_late=hook,
    ) as engine:
        push_late(engine)
        check_calls(hook.calls)
        stats = engine.stats()
        assert stats.late_dropped == 3
        assert (
            stats.obs["repro_dead_letter_records_total"]["values"][""]
            == 3
        )


def test_count_only_default_pays_nothing():
    engine = StreamEngine(lambda: AdaptiveHull(8), window=WINDOW)
    push_late(engine)
    assert engine.stats().late_dropped == 3
    assert (
        obs_registry().value("repro_dead_letter_records_total") == 0
    )


def test_on_late_requires_bounded_lateness():
    with pytest.raises(ValueError):
        StreamEngine(
            lambda: AdaptiveHull(8),
            window={"horizon": 50.0},
            on_late=lambda *a: None,
        )
    with pytest.raises(ValueError):
        ShardedEngine(
            SummarySpec("AdaptiveHull", {"r": 8}),
            shards=2,
            on_late=lambda *a: None,
        )
    with pytest.raises(TypeError, match="callable"):
        StreamEngine(lambda: AdaptiveHull(8), window=WINDOW, on_late="nope")
    with pytest.raises(TypeError, match="callable"):
        ShardedEngine(
            SummarySpec("AdaptiveHull", {"r": 8}),
            shards=2,
            window=WINDOW,
            on_late="nope",
        )


def test_on_late_survives_snapshot_roundtrip():
    hook = Collector()
    engine = StreamEngine(
        lambda: AdaptiveHull(8), window=WINDOW, on_late=hook
    )
    engine.ingest_arrays(
        np.array(["a"]), np.array([[0.0, 0.0]]), ts=np.array([10.0])
    )
    doc = engine.snapshot_state()
    restored = StreamEngine.from_snapshot_state(
        doc, lambda: AdaptiveHull(8), on_late=hook
    )
    restored.advance_time(100.0)
    restored.ingest_arrays(
        np.array(["a"]), np.array([[9.0, 9.0]]), ts=np.array([1.0])
    )
    assert len(hook.calls) == 1
    key, pts, ts, wm = hook.calls[0]
    assert key == "a"
    np.testing.assert_allclose(pts, [[9.0, 9.0]])
    assert wm == pytest.approx(95.0)
