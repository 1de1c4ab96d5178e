"""The shard worker: one :class:`~repro.engine.StreamEngine` per process.

Each worker owns the summaries for the keys its shard was assigned and
speaks a small request/reply protocol over a :mod:`multiprocessing`
pipe: every message is a ``(op, *args)`` tuple, every reply is
``("ok", result)`` or ``("err", message)``.  The verbs are
``ingest_arrays``, ``advance_time``, ``keys``, ``hull``,
``summary_state``, ``merged_state``, ``stats``, ``snapshot_state``,
``load_snapshot``, ``extract``, ``adopt``, ``adopt_buffer``, the
``set_latency`` test hook and ``stop``; a ring's single-record
``insert`` arrives as a one-record ``ingest_arrays``.

**Frame protocol.**  Messages cross the pipe through the zero-copy
transport layer (:mod:`repro.shard.transport`): a header frame (magic,
buffer lengths, pickled skeleton of the small structural parts) is
followed by one raw length-prefixed frame per NumPy buffer — batch
slices arrive as ``np.frombuffer`` views over the received bytes.
Replies travel the same framed format (summary payloads use the
:mod:`repro.streams.io` snapshot documents — the same JSON-compatible
form the on-disk checkpoints use, so the IPC layer adds no second
serialisation story).

**Cached shard partial.**  The worker caches its *shard-level
partial*: the serialized canonical-order fold of all its per-key
summaries (exactly :meth:`StreamEngine.merged_summary`, so parity with
the in-process tier is structural, not coincidental).  A whole-shard
``merged_state`` query fills the cache on a miss and is answered from
it on a hit; every mutating verb drops it.  Nothing is folded while
the pipe is idle, so ingest never pays for a query that may not come.

The worker is deliberately dumb: it never touches the hash ring and
trusts the parent's routing.  Global answers are produced by the parent
tree-reducing the per-shard ``merged_state`` replies.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Optional

from ..engine import StreamEngine
from ..obs import metrics as OBS
from ..obs import registry as obs_registry
from ..obs.trace import resume as trace_resume
from ..obs.trace import span as trace_span
from ..streams.io import SummarySpec, summary_from_state, summary_state
from .transport import FramePipe, TransportError

__all__ = ["shard_worker_main"]


class _ShardServer:
    """Dispatches protocol ops against the worker's engine."""

    def __init__(
        self,
        spec: SummarySpec,
        max_streams: Optional[int] = None,
        window=None,
    ):
        self.max_streams = max_streams
        self.window = window
        self.engine = StreamEngine(
            spec, max_streams=max_streams, window=window
        )
        # The cached whole-shard fold (see module docstring); None
        # until a keys=None query fills it and after any mutation.
        self._partial: Optional[dict] = None
        # Chaos/testing hook: seconds slept before handling each op.
        self.latency = 0.0

    # Each op_* method is one protocol verb; the result travels back as
    # the "ok" payload through the frame transport (summaries as
    # streams.io state documents, arrays as raw buffer frames).

    def _mutated(self) -> None:
        """Engine state changed: drop the cached partial."""
        self._partial = None

    def op_ingest_arrays(self, keys, points, ts=None, watermark=None):
        # ``watermark`` rides along on bounded-lateness rings: the
        # parent pre-screened the slice and computed the global
        # watermark, so every shard releases its reorder buffers at
        # the same deterministic cut.
        self._mutated()
        return self.engine.ingest_arrays(
            keys, points, ts=ts, watermark=watermark
        )

    def op_advance_time(self, now, watermark=None):
        # The parent's subscribers need the keys whose windows expired
        # buckets, exactly as local subscribers would see them.
        self._mutated()
        return self.engine.advance_time_detail(now, watermark=watermark)

    def op_keys(self):
        return self.engine.keys()

    def op_hull(self, key):
        return self.engine.hull(key)

    def op_summary_state(self, key, create=False):
        if create:
            # May create an empty summary — the key set changed.
            self._mutated()
            summary = self.engine.summary(key)
        else:
            summary = self.engine.get(key)
        return None if summary is None else summary_state(summary)

    def op_merged_state(self, keys=None):
        if keys is None:
            if self._partial is not None:
                OBS.PARTIAL_CACHE_HIT.inc()
                return self._partial
            OBS.PARTIAL_CACHE_MISS.inc()
            self._partial = summary_state(self.engine.merged_summary(None))
            return self._partial
        return summary_state(self.engine.merged_summary(keys))

    def op_stats(self):
        return asdict(self.engine.stats())

    def op_set_latency(self, seconds):
        # Chaos/testing hook: makes this worker slow without making it
        # wrong — every subsequent op sleeps first, so the test layer
        # can prove queries in flight survive a straggler shard.
        self.latency = float(seconds)
        return True

    def op_snapshot_state(self):
        return self.engine.snapshot_state()

    def op_load_snapshot(self, doc):
        self._mutated()
        # The ring's spec stands in only for docs written before
        # engine snapshots recorded their own.
        self.engine = StreamEngine.from_snapshot_state(
            doc,
            None if "spec" in doc else self.engine.spec,
            max_streams=self.max_streams,
            window=self.window,
        )
        return len(self.engine)

    def op_adopt_buffer(self, key, buffer_doc):
        # Resharding: not-yet-released reorder-buffer records follow
        # their key onto this shard's engine.
        self._mutated()
        self.engine.adopt_pending(key, buffer_doc)
        return True

    def op_extract(self, keys):
        # Live resharding: hand the listed keys' whole state (summary
        # snapshot + pending reorder buffer) to the parent, removing
        # them here.  Keys with no local state are skipped.
        out = []
        for key in keys:
            got = self.engine.extract(key)
            if got is None:
                continue
            summary, buffer_doc = got
            state = None if summary is None else summary_state(summary)
            out.append([key, state, buffer_doc])
        if out:
            self._mutated()
        return out

    def op_adopt(self, key, snapshot):
        self._mutated()
        summary = summary_from_state(
            snapshot, factory=self.engine.summary_factory
        )
        self.engine.adopt(key, summary)
        # Re-derive this engine's ingest counter from the adopted
        # summary's own stream length (``extract`` subtracted it at the
        # source), so per-shard stats stay truthful across a resize.
        self.engine.points_ingested += int(getattr(summary, "points_seen", 0) or 0)
        return True


def shard_worker_main(
    conn,
    spec: SummarySpec,
    max_streams: Optional[int] = None,
    window=None,
) -> None:
    """Worker process entry point: serve requests until ``stop`` or EOF.

    Errors raised by an op are caught and reported as ``("err", msg)``
    replies — a malformed batch must not take the whole shard down.  A
    *transport*-level error is different: the frame stream may be
    desynchronised, so the worker reports it once and shuts down rather
    than guess at frame boundaries.  An EOF on the pipe (parent died or
    closed) shuts the worker down cleanly.  ``window`` (a
    :class:`~repro.window.WindowConfig`) makes this shard's engine
    windowed, exactly like the parent's config.
    """
    pipe = FramePipe(conn)
    # On fork start methods the child inherits the parent's metric
    # counts; zero them so this worker's registry describes only its
    # own work (the parent merges worker snapshots back via ``stats``).
    obs_registry().reset()
    server = _ShardServer(spec, max_streams=max_streams, window=window)
    try:
        while True:
            try:
                msg = pipe.recv()
            except EOFError:
                return
            except TransportError as exc:
                try:
                    pipe.send(("err", f"transport desync: {exc}"))
                finally:
                    return
            if server.latency:
                time.sleep(server.latency)
            op, args = msg[0], msg[1:]
            trace_ctx = None
            if op == "~trace":
                # Parent-side tracing wrapped the real message so this
                # worker's spans join the caller's trace tree.
                trace_ctx, inner = args[0], args[1]
                op, args = inner[0], tuple(inner[1:])
            if op == "stop":
                pipe.send(("ok", None))
                return
            handler = getattr(server, f"op_{op}", None)
            if handler is None:
                pipe.send(("err", f"unknown shard op {op!r}"))
                continue
            try:
                if trace_ctx is not None:
                    with trace_resume(trace_ctx):
                        with trace_span(f"shard.{op}"):
                            result = handler(*args)
                else:
                    result = handler(*args)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                pipe.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                pipe.send(("ok", result))
    finally:
        pipe.close()
