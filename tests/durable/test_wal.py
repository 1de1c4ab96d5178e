"""Unit tests for the WAL segment codec, rotation, and compaction."""

import os

import numpy as np
import pytest

from repro.durable import (
    DurabilityConfig,
    WalError,
    WalWriter,
    fsck,
    iter_entries,
    list_segments,
    list_snapshots,
    load_latest_snapshot,
    read_meta,
    wal_exists,
)
from repro.durable.wal import _FRAME


def cfg(tmp_path, **kw):
    kw.setdefault("snapshot_every", None)
    return DurabilityConfig(tmp_path / "wal", **kw)


class TestConfig:
    def test_rejects_bad_fsync(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DurabilityConfig(tmp_path, fsync="sometimes")

    def test_rejects_tiny_segments(self, tmp_path):
        with pytest.raises(ValueError, match="segment_bytes"):
            DurabilityConfig(tmp_path, segment_bytes=10)

    def test_rejects_zero_snapshot_every(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            DurabilityConfig(tmp_path, snapshot_every=0)


class TestAppendIter:
    def test_roundtrip_all_kinds(self, tmp_path):
        with WalWriter(cfg(tmp_path), meta={"tier": "engine"}) as wal:
            wal.append_batch(
                np.array(["a", "b"]),
                np.array([[0.0, 1.0], [2.0, 3.0]]),
                np.array([5.0, 6.0]),
                7.5,
            )
            # Legacy single-record kind: still framed and read back.
            wal.append("insert", "k", 1.5, -2.5, 9.0, 8.0)
            wal.append_advance(10.0, 9.5)
        entries = list(iter_entries(tmp_path / "wal"))
        kinds = [e[1] for e in entries]
        assert kinds == ["meta", "batch", "insert", "advance"]
        assert [e[0] for e in entries] == [1, 2, 3, 4]
        _, _, keys, points, ts, wm = entries[1]
        assert list(keys) == ["a", "b"]
        assert np.asarray(points).tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert np.asarray(ts).tolist() == [5.0, 6.0]
        assert wm == 7.5
        assert entries[2][2:] == ("k", 1.5, -2.5, 9.0, 8.0)
        assert entries[3][2:] == (10.0, 9.5)

    def test_after_filters_prefix(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            for i in range(5):
                wal.append_advance(float(i))
        tail = list(iter_entries(tmp_path / "wal", after=3))
        assert [e[0] for e in tail] == [4, 5]

    def test_sequence_continues_across_reopen(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
            assert wal.last_seq == 1
        with WalWriter(cfg(tmp_path)) as wal:
            assert wal.last_seq == 1
            assert wal.append_advance(2.0) == 2
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1, 2]

    def test_require_empty_refuses_existing_log(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
        with pytest.raises(WalError, match="already holds WAL state"):
            WalWriter(cfg(tmp_path), require_empty=True)

    def test_closed_writer_refuses_appends(self, tmp_path):
        wal = WalWriter(cfg(tmp_path))
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append_advance(1.0)

    def test_fsync_always_policy_appends(self, tmp_path):
        with WalWriter(cfg(tmp_path, fsync="always")) as wal:
            wal.append_advance(1.0)
        with WalWriter(cfg(tmp_path, fsync="never")) as wal:
            wal.append_advance(2.0)
            wal.sync()  # explicit sync works under any policy
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1, 2]


class TestRotation:
    def test_rotates_at_segment_bytes(self, tmp_path):
        with WalWriter(cfg(tmp_path, segment_bytes=1024)) as wal:
            for i in range(64):
                wal.append("insert", f"key-{i}", float(i), float(i), None, None)
        segments = list_segments(tmp_path / "wal")
        assert len(segments) > 1
        # Segment names carry the first sequence they hold, contiguously.
        entries = list(iter_entries(tmp_path / "wal"))
        assert [e[0] for e in entries] == list(range(1, 65))

    def test_manual_rotate_seals_segment(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
            wal.rotate()
            wal.append_advance(2.0)
        assert len(list_segments(tmp_path / "wal")) == 2
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1, 2]


class TestTornTail:
    def _torn_log(self, tmp_path, cut):
        wal = WalWriter(cfg(tmp_path))
        wal.append_advance(1.0)
        wal.append_advance(2.0)
        wal.close()
        (_, path), = list_segments(tmp_path / "wal")
        os.truncate(path, path.stat().st_size - cut)
        return path

    def test_torn_final_frame_is_tolerated(self, tmp_path):
        self._torn_log(tmp_path, cut=2)
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1]

    def test_torn_header_is_tolerated(self, tmp_path):
        from repro.durable.wal import _scan_frames

        path = self._torn_log(tmp_path, cut=2)
        first_end = next(_scan_frames(path, tolerate_torn=True))[0]
        # Leave only part of the second frame's header.
        os.truncate(path, first_end + _FRAME.size - 1)
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1]

    def test_writer_repairs_torn_tail(self, tmp_path):
        path = self._torn_log(tmp_path, cut=2)
        with WalWriter(cfg(tmp_path)) as wal:
            assert wal.last_seq == 1  # torn entry 2 is gone
            assert wal.append_advance(3.0) == 2
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1, 2]
        assert path.stat().st_size > 0

    def test_checksum_corruption_in_tail_is_torn(self, tmp_path):
        wal = WalWriter(cfg(tmp_path))
        wal.append_advance(1.0)
        wal.append_advance(2.0)
        wal.close()
        (_, path), = list_segments(tmp_path / "wal")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final frame
        path.write_bytes(data)
        assert [e[0] for e in iter_entries(tmp_path / "wal")] == [1]

    def test_corruption_mid_log_raises(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
            wal.rotate()
            wal.append_advance(2.0)
        (_, first), _ = list_segments(tmp_path / "wal")
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF  # non-final segment: corruption is loud
        first.write_bytes(data)
        with pytest.raises(WalError):
            list(iter_entries(tmp_path / "wal"))

    def test_segment_gap_raises(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
            wal.rotate()
            wal.append_advance(2.0)
            wal.rotate()
            wal.append_advance(3.0)
        (_, mid) = list_segments(tmp_path / "wal")[1]
        mid.unlink()
        with pytest.raises(WalError, match="gap"):
            list(iter_entries(tmp_path / "wal"))


class TestSnapshots:
    def test_snapshot_prunes_covered_segments(self, tmp_path):
        with WalWriter(cfg(tmp_path), meta={"tier": "engine"}) as wal:
            wal.append_advance(1.0)
            wal.append_advance(2.0)
            wal.write_snapshot({"fake": "state"})
            wal.append_advance(3.0)
        wal_dir = tmp_path / "wal"
        assert len(list_snapshots(wal_dir)) == 1
        seq, state, meta = load_latest_snapshot(wal_dir)
        assert seq == 3 and state == {"fake": "state"}
        assert meta == {"tier": "engine"}
        # Only the post-snapshot tail survives as segments.
        assert [e[0] for e in iter_entries(wal_dir, after=seq)] == [4]
        assert all(first > seq for first, _ in list_segments(wal_dir))

    def test_newer_snapshot_replaces_older(self, tmp_path):
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
            wal.write_snapshot({"v": 1})
            wal.append_advance(2.0)
            wal.write_snapshot({"v": 2})
        wal_dir = tmp_path / "wal"
        assert len(list_snapshots(wal_dir)) == 1
        assert load_latest_snapshot(wal_dir)[1] == {"v": 2}

    def test_should_compact_counts_appends(self, tmp_path):
        with WalWriter(
            DurabilityConfig(tmp_path / "wal", snapshot_every=3)
        ) as wal:
            assert not wal.should_compact()
            wal.append_advance(1.0)
            wal.append_advance(2.0)
            assert not wal.should_compact()
            wal.append_advance(3.0)
            assert wal.should_compact()
            wal.write_snapshot({})
            assert not wal.should_compact()

    def test_meta_survives_compaction(self, tmp_path):
        meta = {"tier": "engine", "spec": None, "window": None}
        with WalWriter(cfg(tmp_path), meta=meta) as wal:
            wal.append_advance(1.0)
            wal.write_snapshot({})
        assert read_meta(tmp_path / "wal") == meta

    def test_wal_exists(self, tmp_path):
        assert not wal_exists(tmp_path / "wal")
        with WalWriter(cfg(tmp_path)) as wal:
            wal.append_advance(1.0)
        assert wal_exists(tmp_path / "wal")


class TestFsck:
    """``fsck``: end-to-end frame verification (the ``durable inspect
    --fsck`` engine)."""

    def write_wal(self, tmp_path, *, segment_bytes=1024, batches=12):
        with WalWriter(
            cfg(tmp_path, segment_bytes=segment_bytes),
            meta={"tier": "engine"},
        ) as wal:
            for i in range(batches):
                wal.append_batch(
                    np.array([f"k{i % 3}"] * 8),
                    np.arange(16, dtype=np.float64).reshape(8, 2) + i,
                    None,
                    None,
                )
        return tmp_path / "wal"

    def test_clean_multi_segment_wal(self, tmp_path):
        wal_dir = self.write_wal(tmp_path)
        segments = list_segments(wal_dir)
        assert len(segments) > 1  # rotation actually happened
        report = fsck(wal_dir)
        assert report["ok"] is True
        assert report["first_error"] is None
        assert report["entries"] == 13  # meta + 12 batches
        assert report["records"] == 96
        assert report["last_seq"] == 13
        assert len(report["segments"]) == len(segments)
        assert all(s["error"] is None for s in report["segments"])
        seqs = [
            (s["first_seq"], s["last_seq"]) for s in report["segments"]
        ]
        for (_, prev_last), (nxt_first, _) in zip(seqs, seqs[1:]):
            assert nxt_first == prev_last + 1

    def test_torn_tail_is_ok(self, tmp_path):
        wal_dir = self.write_wal(tmp_path)
        last = list_segments(wal_dir)[-1][1]
        size = os.path.getsize(last)
        with open(last, "r+b") as fh:
            fh.truncate(size - 3)  # tear mid-frame
        report = fsck(wal_dir)
        assert report["ok"] is True
        tail = report["segments"][-1]
        assert tail["torn_tail"] is True
        assert tail["error"] is not None
        assert tail["error_offset"] is not None

    def test_mid_file_bitflip_is_corruption(self, tmp_path):
        wal_dir = self.write_wal(tmp_path)
        first = list_segments(wal_dir)[0][1]
        size = os.path.getsize(first)
        flip_at = size // 2
        with open(first, "r+b") as fh:
            fh.seek(flip_at)
            byte = fh.read(1)
            fh.seek(flip_at)
            fh.write(bytes([byte[0] ^ 0xFF]))
        report = fsck(wal_dir)
        assert report["ok"] is False
        bad = report["segments"][0]
        assert bad["torn_tail"] is False
        assert "checksum" in bad["error"] or "truncated" in bad["error"]
        assert bad["error_offset"] is not None
        assert report["first_error"] is not None
        assert str(bad["error_offset"]) in report["first_error"]
        # Later segments are still scanned and clean.
        assert all(
            s["error"] is None for s in report["segments"][1:]
        )

    def test_missing_middle_segment_is_corruption(self, tmp_path):
        wal_dir = self.write_wal(tmp_path)
        segments = list_segments(wal_dir)
        assert len(segments) >= 3
        os.unlink(segments[1][1])
        report = fsck(wal_dir)
        assert report["ok"] is False
        assert "gap" in report["first_error"]
        # The gap lives in its own field and the post-gap segment's
        # frames are still audited and counted.
        post_gap = report["segments"][1]
        assert post_gap["gap"] is not None
        assert post_gap["error"] is None
        assert post_gap["frames"] > 0
        assert post_gap["first_seq"] is not None
        intact = sum(s["frames"] for s in report["segments"])
        assert report["entries"] == intact

    def test_post_gap_corruption_is_still_reported(self, tmp_path):
        wal_dir = self.write_wal(tmp_path)
        segments = list_segments(wal_dir)
        assert len(segments) >= 3
        os.unlink(segments[1][1])
        # Flip a byte inside the segment right after the gap: both the
        # gap and the bit rot must show up, gap first.
        victim = segments[2][1]
        size = os.path.getsize(victim)
        flip_at = size // 2
        with open(victim, "r+b") as fh:
            fh.seek(flip_at)
            byte = fh.read(1)
            fh.seek(flip_at)
            fh.write(bytes([byte[0] ^ 0xFF]))
        report = fsck(wal_dir)
        assert report["ok"] is False
        bad = report["segments"][1]
        assert bad["gap"] is not None
        assert bad["error"] is not None
        assert bad["error_offset"] is not None
        assert "gap" in report["first_error"]  # offset-0 gap wins

    def test_empty_dir(self, tmp_path):
        (tmp_path / "wal").mkdir()
        report = fsck(tmp_path / "wal")
        assert report["ok"] is True
        assert report["entries"] == 0
        assert report["segments"] == []
