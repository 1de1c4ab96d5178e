"""Tests for stream persistence and replay."""

import numpy as np
import pytest

from repro.streams import disk_stream, load_stream, replay, save_stream


class TestSaveLoadRoundtrip:
    @pytest.mark.parametrize("ext", [".npy", ".csv"])
    def test_roundtrip(self, tmp_path, ext):
        pts = disk_stream(50, seed=1)
        path = save_stream(pts, tmp_path / f"s{ext}")
        loaded = load_stream(path)
        assert np.allclose(loaded, pts)

    def test_csv_has_header(self, tmp_path):
        path = save_stream(disk_stream(3, seed=2), tmp_path / "s.csv")
        first = open(path).readline().strip()
        assert first == "x,y"

    def test_csv_without_header_loads(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        loaded = load_stream(path)
        assert loaded.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_stream(disk_stream(3, seed=3), tmp_path / "s.txt")
        with pytest.raises(ValueError):
            load_stream(tmp_path / "nothing.txt")

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_stream(np.zeros((3, 3)), tmp_path / "s.npy")

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\noops,3.0\n")
        with pytest.raises(ValueError):
            load_stream(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stream(tmp_path / "absent.npy")

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        loaded = load_stream(path)
        assert loaded.shape == (0, 2)


class TestReplay:
    def test_yields_indexed_tuples(self):
        pts = disk_stream(5, seed=4)
        out = list(replay(pts))
        assert len(out) == 5
        assert out[0][0] == 0
        assert out[0][1] == (float(pts[0][0]), float(pts[0][1]))

    def test_chunked_downsampling(self):
        pts = disk_stream(10, seed=5)
        out = list(replay(pts, chunk=3))
        assert [i for i, _ in out] == [0, 3, 6, 9]

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            list(replay(disk_stream(5, seed=6), chunk=0))

    def test_feeds_summary(self, tmp_path):
        from repro.core import AdaptiveHull

        pts = disk_stream(200, seed=7)
        path = save_stream(pts, tmp_path / "s.npy")
        h = AdaptiveHull(16)
        for _, p in replay(load_stream(path)):
            h.insert(p)
        assert h.points_seen == 200


class TestSummarySerialisation:
    """The JSON summary snapshot format (engine checkpointing)."""

    def _fed(self, factory, n=800, seed=21):
        from repro.streams import ellipse_stream

        s = factory()
        s.insert_many(ellipse_stream(n, rotation=0.1, seed=seed))
        return s

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: __import__("repro").UniformHull(12),
            lambda: __import__("repro").AdaptiveHull(16),
            lambda: __import__("repro").AdaptiveHull(16, queue_mode="exact"),
            lambda: __import__("repro").FixedSizeAdaptiveHull(8),
        ],
    )
    def test_round_trip_is_exact(self, factory, tmp_path):
        from repro.streams.io import load_summary, save_summary

        original = self._fed(factory)
        path = save_summary(original, tmp_path / "s.json")
        restored = load_summary(path)
        assert type(restored) is type(original)
        assert restored.hull() == original.hull()
        assert restored.samples() == original.samples()
        assert restored.points_seen == original.points_seen
        assert restored.points_processed == original.points_processed

    def test_restored_adaptive_keeps_streaming_identically(self, tmp_path):
        from repro import AdaptiveHull
        from repro.streams import ellipse_stream
        from repro.streams.io import load_summary, save_summary

        original = self._fed(lambda: AdaptiveHull(16))
        restored = load_summary(save_summary(original, tmp_path / "s.json"))
        more = ellipse_stream(500, rotation=0.1, seed=33) * 1.7
        original.insert_many(more)
        restored.insert_many(more)
        assert restored.hull() == original.hull()
        assert restored.samples() == original.samples()
        assert restored.nodes_visited == original.nodes_visited
        restored.check_invariants()

    def test_exact_hull_replay_snapshot(self, tmp_path):
        from repro.baselines import ExactHull
        from repro.streams.io import load_summary, save_summary

        original = ExactHull()
        original.insert_many(disk_stream(300, seed=9))
        restored = load_summary(save_summary(original, tmp_path / "e.json"))
        assert restored.hull() == original.hull()
        assert restored.points_seen == original.points_seen

    def test_factory_takes_precedence_and_is_checked(self, tmp_path):
        from repro import AdaptiveHull, UniformHull
        from repro.streams.io import load_summary, save_summary

        path = save_summary(self._fed(lambda: AdaptiveHull(16)), tmp_path / "s.json")
        restored = load_summary(path, factory=lambda: AdaptiveHull(16))
        assert isinstance(restored, AdaptiveHull)
        with pytest.raises(ValueError):
            load_summary(path, factory=lambda: UniformHull(16))

    def test_factory_config_mismatch_rejected(self, tmp_path):
        from repro import AdaptiveHull
        from repro.streams.io import load_summary, save_summary

        path = save_summary(
            self._fed(lambda: AdaptiveHull(16, queue_mode="exact")),
            tmp_path / "s.json",
        )
        # Same class, different policy: must refuse, not silently
        # restore under pow2 buckets.
        with pytest.raises(ValueError, match="different policy"):
            load_summary(path, factory=lambda: AdaptiveHull(16))
        ok = load_summary(path, factory=lambda: AdaptiveHull(16, queue_mode="exact"))
        assert ok.queue_mode == "exact"

    def test_unknown_format_rejected(self):
        from repro.streams.io import summary_from_state

        with pytest.raises(ValueError):
            summary_from_state({"format": "something.else"})

    def test_empty_summary_round_trips(self, tmp_path):
        from repro import UniformHull
        from repro.streams.io import load_summary, save_summary

        restored = load_summary(save_summary(UniformHull(8), tmp_path / "u.json"))
        assert restored.hull() == []
        assert restored.samples() == []
        restored.insert((1.0, 2.0))
        assert restored.samples() == [(1.0, 2.0)]
