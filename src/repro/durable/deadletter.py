"""Durable dead-letter queue for later-than-watermark records.

PR 7 gave both engine tiers an ``on_late=`` callback; this module turns
it into a real queue: each late slice is framed (same codec as the WAL
segments) into an append-only ``dead-letters.log`` inside the WAL
directory, so nothing is ever *silently* dropped — the records can be
inspected and re-driven later via ``python -m repro durable
dead-letters``.

Entries are ``(n, "late", key, points, ts, watermark)`` where ``n`` is
this log's own sequence (independent of the main WAL), ``points`` is
the late ``(k, 2)`` slice, and ``watermark`` is the cutoff that judged
it late.  Redriving necessarily happens *after* the watermark has
passed, so replay clamps each record's timestamp up to the engine's
current watermark — the records land in the window attributed to the
earliest admissible time, the standard late-redrive trade-off.
"""

from __future__ import annotations

import threading
import zlib
from pathlib import Path
from typing import Iterator, Optional

from ..obs import metrics as OBS
from ..shard import transport
from .wal import WalError, _FRAME, _decode_entry, _scan_frames

__all__ = ["DEAD_LETTER_FILE", "DeadLetterLog", "attach_dead_letters"]

DEAD_LETTER_FILE = "dead-letters.log"


class DeadLetterLog:
    """Appender/reader for one directory's dead-letter log."""

    def __init__(self, wal_dir):
        self.dir = Path(wal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / DEAD_LETTER_FILE
        self._lock = threading.Lock()
        self._file = None
        self._closed = False
        self._seq = 0
        if self.path.exists():
            for entry in self.iter_entries():
                self._seq = entry[0]

    def append(self, key, points, ts, watermark) -> int:
        """Persist one late slice; usable directly as an ``on_late`` hook."""
        with self._lock:
            if self._closed:
                raise WalError("dead-letter log is closed")
            seq = self._seq + 1
            payload = transport.dumps((seq, "late", key, points, ts, watermark))
            if self._file is None:
                self._file = open(self.path, "ab")
            self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            self._file.write(payload)
            self._file.flush()
            self._seq = seq
            OBS.DEAD_LETTERS_PERSISTED.inc(len(points))
            return seq

    def iter_entries(self) -> Iterator[tuple]:
        """Yield ``(seq, "late", key, points, ts, watermark)`` tuples.

        Tolerates a torn final frame (a crash mid-append), like the
        main WAL's crash tail.
        """
        if not self.path.exists():
            return
        with self._lock:
            if self._file is not None:
                self._file.flush()
        for _, payload in _scan_frames(self.path, tolerate_torn=True):
            yield _decode_entry(payload, self.path)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_entries())

    def truncate(self) -> int:
        """Drop all entries (after a successful redrive); returns how many."""
        with self._lock:
            n = self._seq
            if self._file is not None:
                self._file.close()
                self._file = None
            self.path.unlink(missing_ok=True)
            self._seq = 0
            return n

    def replay_into(self, engine) -> dict:
        """Re-ingest every dead-lettered slice, timestamps clamped up to
        the engine's current watermark so they are admissible now.

        Returns ``{"entries", "records", "skipped"}`` — ``skipped``
        counts slices the engine still rejected (e.g. the clamped time
        regressed a strict window).  The log is left intact; call
        :meth:`truncate` once the caller is satisfied.
        """
        import numpy as np

        entries = records = skipped = 0
        for _, _, key, points, ts, _ in self.iter_entries():
            pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
            wm = engine.watermark
            ts_arr = np.asarray(ts, dtype=np.float64)
            if wm is not None and np.isfinite(wm):
                ts_arr = np.maximum(ts_arr, wm)
            keys = np.full(len(pts), key, dtype=object)
            try:
                engine.ingest_arrays(keys, pts, ts=ts_arr)
            except ValueError:
                skipped += 1
                continue
            entries += 1
            records += len(pts)
        return {"entries": entries, "records": records, "skipped": skipped}

    def close(self):
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            self._closed = True


def attach_dead_letters(engine, wal_dir) -> Optional[DeadLetterLog]:
    """Put a :class:`DeadLetterLog` in front of ``engine``'s late hook.

    Returns the log, or None when the engine has no bounded-lateness
    window (nothing is ever late, so nothing to persist).  Any hook the
    engine already had keeps firing after the record is durable.
    """
    window = getattr(engine, "window", None)
    if window is None or window.max_delay is None:
        return None
    log = DeadLetterLog(wal_dir)
    engine.prepend_late_hook(log.append)
    return log
