"""Write-ahead batch log: checksummed segment files + snapshot compaction.

The engines are deterministic, so durability reduces to *logging the
inputs*: every acknowledged mutation (an ``ingest_arrays`` batch —
``insert`` is a one-record batch — or an ``advance_time``) is appended to an append-only segment
file before the caller sees the ack, and recovery is "load the latest
snapshot, re-ingest the tail" — bit-identical to never having crashed.

Wire format (one *frame* per entry)::

    <u32 payload_len> <u32 crc32(payload)> <payload>

where the payload is :func:`repro.shard.transport.dumps` of the entry
tuple ``(seq, kind, *args)`` — the same skeleton/raw-NumPy-buffer codec
the shard pipes use, so a logged batch costs one pickle of the tiny
skeleton plus raw array bytes, no per-point encoding.  Entry kinds:

- ``("meta", doc)`` — engine configuration (spec/window/tier), written
  once at log creation and re-carried inside every snapshot.
- ``("batch", keys, points, ts, watermark)`` — one ingest_arrays call.
- ``("insert", key, x, y, ts, watermark)`` — legacy, read-only: logs
  written before ``insert`` became a one-record batch carry these;
  recovery replays each as a one-record ``ingest_arrays``.  Nothing
  writes them any more.
- ``("advance", now, watermark)`` — one advance_time call.

Segments are named ``wal-<first_seq>.log`` and rotated at
``segment_bytes``.  A crash can tear the final frame of the final
segment; the reader tolerates (and the next writer truncates) exactly
that — corruption anywhere else raises :class:`WalError` loudly.

Snapshot compaction writes ``snapshot-<seq>.json`` (atomic
temp+rename) holding the engine's ``snapshot_state()`` document after
applying entries ``<= seq``, then deletes the covered segments and
older snapshots.  ``fsync`` policy:

- ``"always"`` — flush+fsync after every append (lowest loss window).
- ``"batch"`` (default) — flush per append, fsync at rotation,
  snapshot, explicit :meth:`WalWriter.sync`, and close.
- ``"never"`` — leave it to the OS page cache.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

from ..obs import metrics as OBS
from ..shard import transport

__all__ = [
    "DurabilityConfig",
    "WalError",
    "WalWriter",
    "fsck",
    "iter_entries",
    "list_segments",
    "list_snapshots",
    "load_latest_snapshot",
    "read_meta",
]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".log"
_SNAP_PREFIX = "snapshot-"
_SNAP_SUFFIX = ".json"
_SEQ_DIGITS = 20
SNAPSHOT_FORMAT = "repro.wal-snapshot"
SNAPSHOT_VERSION = 1
FSYNC_POLICIES = ("always", "batch", "never")


class WalError(RuntimeError):
    """A corrupt, inconsistent, or mis-used write-ahead log."""


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability policy for an engine tier (``durability=`` kwarg).

    Args:
        wal_dir: directory holding segments, snapshots, and the
            dead-letter log; created if missing.  A fresh engine
            requires it empty — recovering into an existing log goes
            through :mod:`repro.durable.recovery`.
        fsync: ``"always"``, ``"batch"`` (default), or ``"never"``.
        segment_bytes: rotation threshold per segment file.
        snapshot_every: appended entries between automatic snapshot
            compactions (None disables; compact manually via
            :meth:`WalWriter.write_snapshot`).
        dead_letters: when the engine runs a bounded-lateness window,
            also persist later-than-watermark drops to a replayable
            dead-letter log (see :mod:`repro.durable.deadletter`).
    """

    wal_dir: Any
    fsync: str = "batch"
    segment_bytes: int = 16 * 1024 * 1024
    snapshot_every: Optional[int] = 4096
    dead_letters: bool = True

    def __post_init__(self):
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.segment_bytes < 1024:
            raise ValueError("segment_bytes must be >= 1024")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1 (or None)")

    @property
    def path(self) -> Path:
        return Path(self.wal_dir)


def _seg_path(wal_dir: Path, first_seq: int) -> Path:
    return wal_dir / f"{_SEG_PREFIX}{first_seq:0{_SEQ_DIGITS}d}{_SEG_SUFFIX}"


def _snap_path(wal_dir: Path, seq: int) -> Path:
    return wal_dir / f"{_SNAP_PREFIX}{seq:0{_SEQ_DIGITS}d}{_SNAP_SUFFIX}"


def _named_seq(path: Path, prefix: str, suffix: str) -> Optional[int]:
    name = path.name
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    body = name[len(prefix) : -len(suffix)]
    return int(body) if body.isdigit() else None


def list_segments(wal_dir) -> List[Tuple[int, Path]]:
    """``(first_seq, path)`` for every segment, ascending."""
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        return []
    out = []
    for path in wal_dir.iterdir():
        seq = _named_seq(path, _SEG_PREFIX, _SEG_SUFFIX)
        if seq is not None:
            out.append((seq, path))
    out.sort()
    return out


def list_snapshots(wal_dir) -> List[Tuple[int, Path]]:
    """``(covered_seq, path)`` for every snapshot, ascending."""
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        return []
    out = []
    for path in wal_dir.iterdir():
        seq = _named_seq(path, _SNAP_PREFIX, _SNAP_SUFFIX)
        if seq is not None:
            out.append((seq, path))
    out.sort()
    return out


def wal_exists(wal_dir) -> bool:
    """Whether the directory holds any WAL state at all."""
    return bool(list_segments(wal_dir) or list_snapshots(wal_dir))


def _decode_entry(payload: bytes, path: Path) -> tuple:
    try:
        entry = transport.loads(payload)
    except transport.TransportError as exc:
        raise WalError(f"{path.name}: undecodable entry payload: {exc}") from exc
    if not (isinstance(entry, tuple) and len(entry) >= 2 and isinstance(entry[0], int)):
        raise WalError(f"{path.name}: malformed entry {type(entry).__name__}")
    return entry


def _scan_frames(path: Path, *, tolerate_torn: bool) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(end_offset, payload)`` per valid frame.

    A truncated or checksum-failing frame ends iteration when
    ``tolerate_torn`` (the crash-tail case — only legal in the final
    segment) and raises :class:`WalError` otherwise.
    """
    with open(path, "rb") as f:
        offset = 0
        while True:
            header = f.read(_FRAME.size)
            if not header:
                return
            torn = None
            if len(header) < _FRAME.size:
                torn = f"truncated frame header at offset {offset}"
            else:
                length, crc = _FRAME.unpack(header)
                if length > transport.MAX_FRAME_BYTES:
                    torn = f"frame of {length} bytes at offset {offset}"
                else:
                    payload = f.read(length)
                    if len(payload) < length:
                        torn = f"truncated frame payload at offset {offset}"
                    elif zlib.crc32(payload) != crc:
                        torn = f"checksum mismatch at offset {offset}"
            if torn is not None:
                if tolerate_torn:
                    OBS.WAL_TORN_FRAMES.inc()
                    return
                raise WalError(f"{path.name}: {torn}")
            offset += _FRAME.size + length
            yield offset, payload


def iter_entries(wal_dir, *, after: int = 0) -> Iterator[tuple]:
    """Yield entry tuples ``(seq, kind, *args)`` with ``seq > after``.

    Sequence numbers must be contiguous across segment boundaries; a
    gap means a deleted or renamed segment and raises.  Only the final
    segment may end in a torn frame.
    """
    segments = list_segments(wal_dir)
    expected = None
    for i, (first_seq, path) in enumerate(segments):
        last = i == len(segments) - 1
        if expected is not None and first_seq != expected:
            raise WalError(
                f"segment gap: expected seq {expected}, found {path.name}"
            )
        expected = first_seq
        for _, payload in _scan_frames(path, tolerate_torn=last):
            entry = _decode_entry(payload, path)
            if entry[0] != expected:
                raise WalError(
                    f"{path.name}: expected seq {expected}, found {entry[0]}"
                )
            expected += 1
            if entry[0] > after:
                yield entry


def fsck(wal_dir) -> dict:
    """Verify every segment's frames end-to-end, not just the tail.

    Normal recovery only has to prove the *final* segment's tail is
    whole — everything earlier was fsynced and checksum-verified when
    written.  ``fsck`` is the offline auditor for the rest: it re-reads
    every frame of every segment, re-computes each CRC, decodes each
    entry, and re-checks sequence contiguity within and across
    segments, reporting the **first bad byte offset** per segment.

    A bad frame in the final segment that *reaches end-of-file* — a
    truncated header/payload, or a checksum failure on the very last
    frame — is classified as a *torn tail* (the crash case recovery
    repairs routinely) and does not fail the check.  A bad frame
    anywhere else, a checksum failure with valid-looking bytes after
    it (bit rot recovery's tail repair would silently truncate away),
    an undecodable entry, a sequence break, or a segment gap is real
    corruption and flips ``ok`` to False.

    Returns a report document::

        {"wal_dir", "ok", "entries", "records", "last_seq",
         "first_error",                  # "seg: reason at offset N" | None
         "segments": [{"path", "bytes", "frames", "first_seq",
                       "last_seq", "gap", "error", "error_offset",
                       "torn_tail"}, ...]}

    A segment gap is recorded in ``gap`` (not ``error``) so the frame
    audit still runs over the post-gap segment — corruption after a
    missing segment is reported too, and its intact entries still
    count toward the report totals.
    """
    wal_dir = Path(wal_dir)
    report = {
        "wal_dir": str(wal_dir),
        "ok": True,
        "entries": 0,
        "records": 0,
        "last_seq": 0,
        "first_error": None,
        "segments": [],
    }
    segments = list_segments(wal_dir)
    expected: Optional[int] = None
    for i, (first_seq, path) in enumerate(segments):
        final = i == len(segments) - 1
        seg = {
            "path": path.name,
            "bytes": path.stat().st_size,
            "frames": 0,
            "first_seq": None,
            "last_seq": None,
            "gap": None,
            "error": None,
            "error_offset": None,
            "torn_tail": False,
        }
        if expected is not None and first_seq != expected:
            seg["gap"] = f"segment gap: expected seq {expected}"
            # Contiguity is unprovable past a gap; rebase on this
            # segment's declared first sequence and keep auditing the
            # frames themselves.
            expected = None
        with open(path, "rb") as f:
            offset = 0
            while True:
                header = f.read(_FRAME.size)
                if not header:
                    break
                problem = None
                entry = None
                length = 0
                # Whether the damage plausibly extends to EOF (a
                # partial final write) rather than sitting between
                # intact frames (bit rot).
                at_eof = False
                if len(header) < _FRAME.size:
                    problem = "truncated frame header"
                    at_eof = True
                else:
                    length, crc = _FRAME.unpack(header)
                    if length > transport.MAX_FRAME_BYTES:
                        # The length field itself is garbage, so
                        # nothing after this point is parseable.
                        problem = f"oversized frame ({length} bytes)"
                        at_eof = True
                    else:
                        payload = f.read(length)
                        if len(payload) < length:
                            problem = "truncated frame payload"
                            at_eof = True
                        elif zlib.crc32(payload) != crc:
                            problem = "checksum mismatch"
                            at_eof = (
                                offset + _FRAME.size + length
                                >= seg["bytes"]
                            )
                if problem is None:
                    try:
                        entry = _decode_entry(payload, path)
                    except WalError as exc:
                        problem = f"undecodable entry ({exc})"
                if problem is None and expected is not None and (
                    entry[0] != expected
                ):
                    problem = (
                        f"sequence break: expected {expected}, "
                        f"found {entry[0]}"
                    )
                if problem is not None:
                    # Framing is byte-offset based, so nothing past
                    # the first bad frame can be trusted; stop here
                    # (exactly where _repair_tail would truncate).
                    seg["error"] = problem
                    seg["error_offset"] = offset
                    seg["torn_tail"] = final and at_eof
                    expected = None
                    break
                if seg["first_seq"] is None:
                    seg["first_seq"] = entry[0]
                seg["last_seq"] = entry[0]
                seg["frames"] += 1
                expected = entry[0] + 1
                report["entries"] += 1
                report["last_seq"] = max(report["last_seq"], entry[0])
                if entry[1] == "batch":
                    report["records"] += len(entry[3])
                elif entry[1] == "insert":
                    report["records"] += 1
                offset += _FRAME.size + length
        if seg["gap"] is not None:
            report["ok"] = False
            if report["first_error"] is None:
                report["first_error"] = (
                    f"{seg['path']}: {seg['gap']} at offset 0"
                )
        if seg["error"] is not None:
            if not seg["torn_tail"]:
                report["ok"] = False
            if report["first_error"] is None:
                report["first_error"] = (
                    f"{seg['path']}: {seg['error']} "
                    f"at offset {seg['error_offset']}"
                )
        report["segments"].append(seg)
    return report


def load_latest_snapshot(wal_dir) -> Optional[Tuple[int, dict, Optional[dict]]]:
    """``(covered_seq, state_doc, meta)`` of the newest snapshot, or None."""
    snapshots = list_snapshots(wal_dir)
    if not snapshots:
        return None
    seq, path = snapshots[-1]
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WalError(f"unreadable snapshot {path.name}: {exc}") from exc
    if doc.get("format") != SNAPSHOT_FORMAT or doc.get("version") != SNAPSHOT_VERSION:
        raise WalError(f"{path.name}: not a {SNAPSHOT_FORMAT} v{SNAPSHOT_VERSION}")
    if doc.get("wal_seq") != seq:
        raise WalError(f"{path.name}: wal_seq {doc.get('wal_seq')} != filename")
    return seq, doc["state"], doc.get("meta")


def read_meta(wal_dir) -> Optional[dict]:
    """The engine-configuration document logged at creation, if any.

    Prefers the copy carried by the latest snapshot (compaction may
    have pruned the segment holding the original ``meta`` entry).
    """
    snap = load_latest_snapshot(wal_dir)
    if snap is not None and snap[2] is not None:
        return snap[2]
    for entry in iter_entries(wal_dir):
        if entry[1] == "meta":
            return entry[2]
        break  # meta is only ever the first entry
    return None


class WalWriter:
    """Appender for one WAL directory (single engine, thread-safe).

    Opening repairs the crash tail — any torn final frame is truncated
    off the last segment — then continues the sequence after the
    highest durable entry.  With ``require_empty=True`` (the fresh
    ``durability=`` constructor path) pre-existing state raises
    instead: a fresh engine atop a non-empty log would silently orphan
    the logged prefix; recover it via :mod:`repro.durable.recovery`.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        meta: Optional[dict] = None,
        require_empty: bool = False,
    ):
        self.config = config
        self.dir = config.path
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = None
        self._seg_bytes = 0
        self._closed = False
        self._appends_since_snapshot = 0
        existing = wal_exists(self.dir)
        if require_empty and existing:
            raise WalError(
                f"{self.dir} already holds WAL state; recover it with "
                "repro.durable.recovery instead of attaching a fresh engine"
            )
        self.meta = meta if not existing else (read_meta(self.dir) or meta)
        self._seq = self._repair_tail()
        if not existing and self.meta is not None:
            self.append("meta", self.meta)

    # -- open/repair -----------------------------------------------------

    def _repair_tail(self) -> int:
        """Truncate a torn final frame; return the last durable seq."""
        snapshots = list_snapshots(self.dir)
        last_seq = snapshots[-1][0] if snapshots else 0
        segments = list_segments(self.dir)
        if not segments:
            return last_seq
        first_seq, path = segments[-1]
        valid_end, seq = 0, first_seq - 1
        for end, payload in _scan_frames(path, tolerate_torn=True):
            valid_end, seq = end, _decode_entry(payload, path)[0]
        if valid_end < path.stat().st_size:
            os.truncate(path, valid_end)
        if valid_end == 0:
            path.unlink()  # nothing durable in it at all
        return max(last_seq, seq)

    # -- append path -----------------------------------------------------

    def _ensure_file(self):
        if self._file is None:
            self._seg_path = _seg_path(self.dir, self._seq + 1)
            self._file = open(self._seg_path, "ab")
            self._seg_bytes = self._file.tell()
        return self._file

    def _fsync(self):
        os.fsync(self._file.fileno())
        OBS.WAL_FSYNCS.inc()

    def append(self, kind: str, *args) -> int:
        """Frame and append one entry; returns its sequence number."""
        with self._lock:
            if self._closed:
                raise WalError("WAL is closed")
            seq = self._seq + 1
            payload = transport.dumps((seq, kind) + args)
            f = self._ensure_file()
            f.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            f.write(payload)
            if self.config.fsync == "always":
                f.flush()
                self._fsync()
            elif self.config.fsync == "batch":
                f.flush()
            self._seq = seq
            self._seg_bytes += _FRAME.size + len(payload)
            self._appends_since_snapshot += 1
            OBS.WAL_APPENDS.labels(kind).inc()
            OBS.WAL_BYTES.inc(_FRAME.size + len(payload))
            if self._seg_bytes >= self.config.segment_bytes:
                self._rotate_locked()
            return seq

    def append_batch(self, keys, points, ts=None, watermark=None) -> int:
        return self.append("batch", keys, points, ts, watermark)

    def append_advance(self, now, watermark=None) -> int:
        return self.append("advance", float(now), watermark)

    @property
    def last_seq(self) -> int:
        return self._seq

    # -- rotation / sync -------------------------------------------------

    def _close_segment(self):
        if self._file is not None:
            self._file.flush()
            if self.config.fsync != "never":
                self._fsync()
            self._file.close()
            self._file = None
            self._seg_bytes = 0

    def _rotate_locked(self):
        self._close_segment()
        OBS.WAL_ROTATIONS.inc()

    def rotate(self):
        """Seal the open segment (the next append opens a fresh one)."""
        with self._lock:
            if self._file is not None:
                self._rotate_locked()

    def sync(self):
        """Flush and fsync the open segment regardless of policy."""
        with self._lock:
            if self._file is not None and not self._closed:
                self._file.flush()
                self._fsync()

    # -- snapshot compaction ---------------------------------------------

    def should_compact(self) -> bool:
        every = self.config.snapshot_every
        return every is not None and self._appends_since_snapshot >= every

    def write_snapshot(self, state_doc: dict) -> Path:
        """Persist the engine state covering every entry appended so far,
        then prune the covered segments and older snapshots.

        ``state_doc`` must be the engine's ``snapshot_state()`` taken
        *after* applying the last appended entry — the caller's ingest
        path guarantees that ordering.
        """
        with self._lock:
            if self._closed:
                raise WalError("WAL is closed")
            self._close_segment()  # covered segments end exactly at _seq
            seq = self._seq
            doc = {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "wal_seq": seq,
                "meta": self.meta,
                "state": state_doc,
            }
            path = _snap_path(self.dir, seq)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(doc, f, separators=(",", ":"))
                f.flush()
                if self.config.fsync != "never":
                    os.fsync(f.fileno())
            os.replace(tmp, path)
            for first_seq, seg in list_segments(self.dir):
                if first_seq <= seq:
                    seg.unlink(missing_ok=True)
            for old_seq, snap in list_snapshots(self.dir):
                if old_seq < seq:
                    snap.unlink(missing_ok=True)
            self._appends_since_snapshot = 0
            OBS.WAL_SNAPSHOTS.inc()
            return path

    # -- lifecycle -------------------------------------------------------

    def close(self):
        with self._lock:
            if not self._closed:
                self._close_segment()
                self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
