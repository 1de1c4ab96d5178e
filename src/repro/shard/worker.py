"""The shard worker: one :class:`~repro.engine.StreamEngine` per process.

Each worker owns the summaries for the keys its shard was assigned and
speaks a small request/reply protocol over a :mod:`multiprocessing`
pipe: every message is a ``(op, *args)`` tuple, every reply is
``("ok", result)`` or ``("err", message)``.

**Frame protocol.**  Messages cross the pipe through the zero-copy
transport layer (:mod:`repro.shard.transport`): a header frame (magic,
buffer lengths, pickled skeleton of the small structural parts) is
followed by one raw length-prefixed frame per NumPy buffer — batch
slices arrive as ``np.frombuffer`` views over the received bytes.
Replies travel the same framed format (summary payloads use the
:mod:`repro.streams.io` snapshot documents — the same JSON-compatible
form the on-disk checkpoints use, so the IPC layer adds no second
serialisation story).

**Worker-push partial reductions.**  Besides answering requests, the
worker maintains a *shard-level partial*: the canonical-order fold of
all its per-key summaries (exactly :meth:`StreamEngine.merged_summary`,
so parity with the in-process tier is structural, not coincidental).
The partial moves through three states:

* ``cold`` — no global query has ever hit this worker; ingest never
  pays a fold it may not need;
* ``dirty`` — a global query happened at some point, but the engine
  mutated since the partial was last folded;
* ``warm`` — the serialized partial is current; ``merged_state``
  queries return it without touching the engine.

The promotion from ``dirty`` to ``warm`` is *opportunistic*: whenever
the request pipe is idle (no pending message) the main loop folds the
partial before blocking on ``recv`` — ingest idle time pays for query
latency, and the parent's global ``merged_summary`` fetches one small
pre-reduced state per shard instead of waiting for every worker to
fold its whole key set on the query path.

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
from ..streams.io import summary_from_state, summary_state
from .spec import SummarySpec
from .transport import FramePipe, TransportError

__all__ = ["shard_worker_main"]


class _ShardServer:
    """Dispatches protocol ops against the worker's engine."""

    def __init__(
        self,
        spec: SummarySpec,
        max_streams: Optional[int] = None,
        window=None,
        push: bool = True,
    ):
        self.spec = spec
        self.max_streams = max_streams
        self.window = window
        self.engine = StreamEngine(
            spec.build, max_streams=max_streams, window=window
        )
        # Worker-push partial reduction state (see module docstring):
        # ``_partial`` is the serialized canonical-order fold of every
        # local summary, ``_partial_wanted`` flips on the first global
        # query (cold -> dirty), ``_partial`` is None while dirty.
        self._push = push
        self._partial: Optional[dict] = None
        self._partial_wanted = False
        self.partials_reduced = 0  # idle-time folds
        self.partials_served = 0  # queries answered from the warm partial
        # Chaos/testing hook: seconds slept before handling each op.
        self.latency = 0.0

    # Each op_* method is one protocol verb; the result travels back as
    # the "ok" payload through the frame transport (summaries as
    # streams.io state documents, arrays as raw buffer frames).

    def _mutated(self) -> None:
        """Engine state changed: a warm partial is stale (dirty)."""
        self._partial = None

    def idle_reduce(self) -> bool:
        """Fold the shard-level partial while the pipe is idle; returns
        True when a fold actually ran (dirty -> warm)."""
        if not (self._push and self._partial_wanted):
            return False
        if self._partial is not None:
            return False
        self._partial = summary_state(self.engine.merged_summary(None))
        self.partials_reduced += 1
        return True

    def op_ingest_arrays(self, keys, points, ts=None, watermark=None):
        # ``watermark`` rides along on bounded-lateness rings: the
        # parent pre-screened the slice and computed the global
        # watermark, so every shard releases its reorder buffers at
        # the same deterministic cut.
        self._mutated()
        return self.engine.ingest_arrays(
            keys, points, ts=ts, watermark=watermark
        )

    def op_insert(self, key, x, y, ts=None, watermark=None):
        self._mutated()
        return self.engine.insert(key, x, y, ts=ts, watermark=watermark)

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
            self._partial_wanted = True
            if self._push and self._partial is not None:
                self.partials_served += 1
                OBS.PARTIAL_CACHE_HIT.inc()
                return self._partial
            OBS.PARTIAL_CACHE_MISS.inc()
            state = summary_state(self.engine.merged_summary(None))
            if self._push:
                self._partial = state
            return state
        return summary_state(self.engine.merged_summary(keys))

    def op_stats(self):
        return {
            **asdict(self.engine.stats()),
            "partials_reduced": self.partials_reduced,
            "partials_served": self.partials_served,
        }

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
        self.engine = StreamEngine.from_snapshot_state(
            doc,
            self.spec.build,
            max_streams=self.max_streams,
            window=self.window,
        )
        return len(self.engine)

    def op_adopt_buffer(self, key, buffer_doc):
        # Re-sharded restore: not-yet-released reorder-buffer records
        # follow their key onto this shard's engine.
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
        # summary's own stream length, so per-shard stats stay truthful
        # after a re-sharded restore re-deals the keys.
        self.engine.points_ingested += int(getattr(summary, "points_seen", 0) or 0)
        return True


def shard_worker_main(
    conn,
    spec: SummarySpec,
    max_streams: Optional[int] = None,
    window=None,
    push: bool = True,
) -> None:
    """Worker process entry point: serve requests until ``stop`` or EOF.

    Errors raised by an op are caught and reported as ``("err", msg)``
    replies — a malformed batch must not take the whole shard down.  A
    *transport*-level error is different: the frame stream may be
    desynchronised, so the worker reports it once and shuts down rather
    than guess at frame boundaries.  An EOF on the pipe (parent died or
    closed) shuts the worker down cleanly.  ``window`` (a
    :class:`~repro.window.WindowConfig`) makes this shard's engine
    windowed, exactly like the parent's config; ``push`` enables the
    idle-time partial reductions.
    """
    pipe = FramePipe(conn)
    # On fork start methods the child inherits the parent's metric
    # counts; zero them so this worker's registry describes only its
    # own work (the parent merges worker snapshots back via ``stats``).
    obs_registry().reset()
    server = _ShardServer(spec, max_streams=max_streams, window=window, push=push)
    try:
        while True:
            # Opportunistic work: only when no request is waiting.
            if not pipe.poll(0) and server.idle_reduce():
                continue  # re-check the pipe between folds
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
