"""Unit tests for the sliding-window summary (construction, expiry
semantics, timestamp policy, caching, persistence)."""

import json
import math

import pytest

from repro.baselines import ExactHull
from repro.core import AdaptiveHull, UniformHull
from repro.queries import DirectionalExtentIndex, diameter, width
from repro.shard import SummarySpec
from repro.streams.io import summary_from_state, summary_state
from repro.window import WindowConfig, WindowedHullSummary


def make(scheme=None, **kwargs):
    return WindowedHullSummary(scheme or (lambda: AdaptiveHull(16)), **kwargs)


class TestConstruction:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            make()
        with pytest.raises(ValueError):
            make(last_n=10, horizon=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"last_n": 0},
            {"horizon": 0.0},
            {"horizon": math.inf},
            {"last_n": 10, "head_capacity": 0},
            {"last_n": 10, "level_width": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            make(**kwargs)

    def test_scheme_forms(self):
        for scheme in (
            lambda: UniformHull(8),
            UniformHull(8),
            ExactHull,
            SummarySpec("UniformHull", {"r": 8}),
            {"class": "UniformHull", "config": {"r": 8}},
        ):
            w = make(scheme, last_n=100)
            w.insert((1.0, 2.0))
            assert w.hull() == [(1.0, 2.0)]

    def test_rejects_nested_window(self):
        with pytest.raises(TypeError):
            make(lambda: make(last_n=5), last_n=10)

    def test_rejects_non_summary(self):
        with pytest.raises(TypeError):
            make(42, last_n=10)


class TestCountWindow:
    def test_covered_count_tracks_target(self):
        w = make(last_n=100, head_capacity=10)
        for i in range(1000):
            w.insert((float(i % 7), float(i % 13)))
        # Coverage sits in [last_n, last_n + count_cap].
        assert 100 <= w.covered_count <= 100 + max(10, 100 // 4)
        assert w.points_seen == 1000
        assert w.buckets_expired > 0

    def test_live_points_are_stream_suffix(self):
        pts = [(float(i), float(i * i % 17)) for i in range(400)]
        w = make(last_n=50, head_capacity=8)
        for p in pts:
            w.insert(p)
        suffix = set(pts[-w.covered_count :])
        assert all(v in suffix for v in w.hull())
        assert all(s in suffix for s in w.samples())

    def test_old_extreme_expires(self):
        w = make(last_n=50, head_capacity=8)
        w.insert((1e6, 1e6))  # early outlier
        for i in range(500):
            w.insert((math.cos(i), math.sin(i)))
        assert (1e6, 1e6) not in w.hull()
        assert diameter(w) < 10.0

    def test_ts_optional_but_monotonic(self):
        w = make(last_n=10)
        w.insert((0.0, 0.0))          # untimestamped is fine
        w.insert((1.0, 1.0), ts=5.0)  # so is timestamped
        with pytest.raises(ValueError):
            w.insert((2.0, 2.0), ts=4.0)

    def test_advance_time_rejected(self):
        with pytest.raises(ValueError):
            make(last_n=10).advance_time(1.0)


class TestTimeWindow:
    def test_requires_ts(self):
        w = make(horizon=10.0)
        with pytest.raises(ValueError):
            w.insert((0.0, 0.0))
        with pytest.raises(ValueError):
            w.insert_many([(0.0, 0.0)])

    def test_monotonic_enforced(self):
        w = make(horizon=10.0)
        w.insert((0.0, 0.0), ts=5.0)
        with pytest.raises(ValueError):
            w.insert((1.0, 1.0), ts=4.0)
        with pytest.raises(ValueError):
            w.insert_many([(1.0, 1.0), (2.0, 2.0)], ts=[6.0, 5.5])
        with pytest.raises(ValueError):
            w.insert((1.0, 1.0), ts=math.nan)
        # Equal timestamps are allowed (same-instant readings).
        w.insert((1.0, 1.0), ts=5.0)

    def test_batch_rejected_atomically(self):
        w = make(horizon=10.0)
        w.insert((0.0, 0.0), ts=1.0)
        before = summary_state(w)
        with pytest.raises(ValueError):
            w.insert_many([(1.0, 1.0), (2.0, 2.0)], ts=[2.0, 1.5])
        assert summary_state(w) == before

    def test_advance_time_expires_everything(self):
        w = make(horizon=10.0)
        for i in range(100):
            w.insert((float(i), float(-i)), ts=float(i) / 10.0)
        assert w.hull()
        expired = w.advance_time(1e6)
        assert expired > 0
        assert w.hull() == [] and w.covered_count == 0
        # ...and the window keeps streaming afterwards.
        w.insert((3.0, 4.0), ts=1e6 + 1)
        assert w.hull() == [(3.0, 4.0)]

    def test_advance_time_clamps_backwards(self):
        w = make(horizon=10.0)
        w.insert((0.0, 0.0), ts=100.0)
        assert w.advance_time(50.0) == 0  # clamped, not an error
        assert w.last_ts == 100.0

    def test_bucket_spans_capped(self):
        w = make(horizon=20.0, head_capacity=1000)
        for i in range(200):
            w.insert((float(i % 5), float(i % 3)), ts=float(i))
        for b in w.buckets():
            assert b["end_ts"] - b["start_ts"] <= 20.0 / 4.0 + 1e-9

    def test_insert_and_insert_many_seal_alike(self):
        """The span-cap seal makes one float comparison on both paths:
        timestamps 0.05 apart put ``start + horizon/4`` on rounding
        edges, where ``ts - start > cap`` and ``ts > start + cap``
        disagree."""
        ts = [i / 100 for i in range(0, 400, 5)]
        pts = [(math.cos(i), math.sin(3.0 * i)) for i in range(len(ts))]
        one = make(scheme=lambda: ExactHull(), horizon=1.0)
        singles = make(scheme=lambda: ExactHull(), horizon=1.0)
        for p, t in zip(pts, ts):
            one.insert(p, ts=t)
            singles.insert_many([p], ts=[t])
        whole = make(scheme=lambda: ExactHull(), horizon=1.0)
        whole.insert_many(pts, ts=ts)
        assert one.buckets() == singles.buckets() == whole.buckets()
        assert summary_state(one) == summary_state(singles)
        assert summary_state(one) == summary_state(whole)

    def test_staleness_bounded(self):
        """A point older than horizon + span cap is never served."""
        w = make(horizon=20.0, head_capacity=4)
        w.insert((1e6, 1e6), ts=0.0)
        for i in range(1, 300):
            w.insert((math.cos(i), math.sin(i)), ts=float(i) / 4.0)
        # now = 74.75 >> 0 + 20 + 5: the outlier's bucket must be gone.
        assert (1e6, 1e6) not in w.samples()


class TestQuerySurface:
    @pytest.fixture()
    def loaded(self, small_ellipse_points):
        w = make(last_n=500, head_capacity=64)
        w.insert_many(small_ellipse_points)
        return w, small_ellipse_points[-w.covered_count :]

    def test_queries_run_unchanged(self, loaded):
        w, live = loaded
        exact = ExactHull().extend(live)
        assert diameter(w) <= diameter(exact) + 1e-9
        assert width(w) <= width(exact) + 1e-9
        idx = DirectionalExtentIndex(w)
        for theta in (0.0, 1.0, 2.5, 4.0):
            true_support = max(
                p[0] * math.cos(theta) + p[1] * math.sin(theta) for p in live
            )
            assert w.support(theta) <= true_support + 1e-9
            assert idx.support(theta) <= true_support + 1e-9

    def test_direction_index_tracks_window_mutation(self, loaded):
        w, _ = loaded
        idx = DirectionalExtentIndex(w)
        idx.support(0.0)
        w.insert((1e4, 0.0))
        assert idx.support(0.0) == pytest.approx(1e4)

    def test_direction_index_recovers_after_total_expiry(self):
        """A long-lived index over a window that empties raises a clear
        ValueError (no silent stale answers) and recovers once the
        window refills."""
        w = make(horizon=5.0)
        w.insert((3.0, 4.0), ts=0.0)
        idx = DirectionalExtentIndex(w)
        assert idx.support(0.0) == pytest.approx(3.0)
        w.advance_time(100.0)  # everything expires
        with pytest.raises(ValueError, match="empty"):
            idx.support(0.0)
        w.insert((7.0, 0.0), ts=101.0)
        assert idx.support(0.0) == pytest.approx(7.0)

    def test_sample_size_counts_bucket_storage(self, loaded):
        w, _ = loaded
        stored = sum(b["samples"] for b in w.buckets())
        assert w.sample_size == stored

    def test_merged_view_cached_until_mutation(self, loaded):
        w, _ = loaded
        v1 = w.merged_view()
        assert w.merged_view() is v1
        w.insert((1e5, 1e5))
        assert w.merged_view() is not v1

    def test_merge_refused(self, loaded):
        w, _ = loaded
        other = make(last_n=500, head_capacity=64)
        with pytest.raises(TypeError):
            w.merge(other)
        # merged_view snapshots merge fine (the engines' reduction).
        folded = AdaptiveHull(16)
        folded.merge(w.merged_view())
        assert folded.hull()


class TestPersistence:
    def test_roundtrip_via_registry(self, small_disk_points):
        w = make(last_n=300, head_capacity=32)
        w.insert_many(small_disk_points)
        doc = json.loads(json.dumps(summary_state(w)))  # full JSON trip
        restored = summary_from_state(doc)
        assert isinstance(restored, WindowedHullSummary)
        assert restored.hull() == w.hull()
        assert restored.covered_count == w.covered_count
        assert restored.bucket_count == w.bucket_count
        assert restored.points_seen == w.points_seen
        assert [b for b in restored.buckets()] == [b for b in w.buckets()]

    def test_roundtrip_keeps_streaming_identically(self, small_disk_points):
        w = make(last_n=300, head_capacity=32)
        w.insert_many(small_disk_points[:1500])
        restored = summary_from_state(summary_state(w))
        for p in small_disk_points[1500:]:
            w.insert(p)
            restored.insert(p)
        assert restored.hull() == w.hull()
        assert restored.buckets() == w.buckets()

    def test_timed_roundtrip_preserves_clock(self):
        w = make(horizon=5.0)
        for i in range(40):
            w.insert((float(i), 0.0), ts=float(i))
        restored = summary_from_state(summary_state(w))
        assert restored.last_ts == w.last_ts
        with pytest.raises(ValueError):
            restored.insert((0.0, 0.0), ts=w.last_ts - 1.0)
        assert restored.advance_time(100.0) == w.advance_time(100.0)

    def test_factory_config_mismatch_rejected(self, small_disk_points):
        w = make(last_n=300)
        w.insert_many(small_disk_points[:100])
        wrong = lambda: WindowedHullSummary(  # noqa: E731
            lambda: AdaptiveHull(16), last_n=301
        )
        with pytest.raises(ValueError):
            summary_from_state(summary_state(w), factory=wrong)


class TestRemovedWarmStart:
    """``warm_start`` is gone.  Docs written with its default
    (``false``) load unchanged; a doc that set it true is refused,
    because cold heads cannot replay warm-started buckets
    bit-identically."""

    @staticmethod
    def _legacy_state(w, warm):
        """``summary_state(w)`` as the option's last release wrote it."""
        doc = summary_state(w)
        doc["config"]["warm_start"] = warm
        doc["state"]["head_seeds"] = None
        doc["state"]["head_seed_bucket"] = None
        return json.loads(json.dumps(doc))

    def test_option_is_gone(self):
        assert "warm_start" not in make(last_n=100).get_config()
        with pytest.raises(TypeError):
            make(last_n=100, warm_start=False)
        with pytest.raises(TypeError):
            WindowConfig(last_n=100, warm_start=False)

    def test_cold_docs_load_unchanged(self, small_disk_points):
        doc = {"last_n": 300, "horizon": None, "head_capacity": 32,
               "level_width": 2, "warm_start": False, "max_delay": None}
        assert WindowConfig.from_doc(doc) == WindowConfig(
            last_n=300, head_capacity=32
        )
        w = make(last_n=300, head_capacity=32)
        w.insert_many(small_disk_points[:1000])
        legacy = self._legacy_state(w, False)
        factory = lambda: make(last_n=300, head_capacity=32)  # noqa: E731
        for restored in (
            summary_from_state(legacy),
            summary_from_state(legacy, factory=factory),
        ):
            assert restored.hull() == w.hull()
            assert restored.buckets() == w.buckets()
        restored = summary_from_state(legacy)
        w.insert_many(small_disk_points[1000:])
        restored.insert_many(small_disk_points[1000:])
        assert restored.hull() == w.hull()
        assert restored.buckets() == w.buckets()
        assert summary_state(restored) == summary_state(w)

    def test_warm_docs_are_refused(self, small_disk_points):
        doc = {"last_n": 300, "level_width": 2, "warm_start": True}
        with pytest.raises(ValueError, match="warm_start"):
            WindowConfig.from_doc(doc)
        w = make(last_n=300, head_capacity=32)
        w.insert_many(small_disk_points[:1000])
        legacy = self._legacy_state(w, True)
        factory = lambda: make(last_n=300, head_capacity=32)  # noqa: E731
        with pytest.raises(ValueError, match="warm_start"):
            summary_from_state(legacy)
        with pytest.raises(ValueError, match="warm_start"):
            summary_from_state(legacy, factory=factory)

    def test_cold_engine_snapshot_restores(self, small_disk_points):
        from repro.engine import StreamEngine

        engine = StreamEngine(
            lambda: AdaptiveHull(16), window={"last_n": 300}
        )
        engine.ingest_arrays(
            ["a", "b"] * 500, small_disk_points[:1000]
        )
        doc = engine.snapshot_state()
        doc["window"]["warm_start"] = False
        for _, state in doc["summaries"]:
            state["config"]["warm_start"] = False
        restored = StreamEngine.from_snapshot_state(
            json.loads(json.dumps(doc)), lambda: AdaptiveHull(16)
        )
        assert restored.window == engine.window
        assert restored.snapshot_state() == engine.snapshot_state()
