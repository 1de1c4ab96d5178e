"""The asyncio front door over any :class:`EngineProtocol` engine.

:class:`AsyncHullService` turns a synchronous engine — either tier —
into a non-blocking monitoring service:

* **non-blocking ingest** — :meth:`AsyncHullService.ingest` /
  :meth:`~AsyncHullService.ingest_arrays` validate shapes cheaply and
  enqueue onto a *bounded* asyncio queue; ``await put`` is the
  backpressure (producers suspend when the engine falls behind instead
  of growing memory without bound);
* **batch coalescing** — the single drain task concatenates every
  batch waiting in the queue into one engine call, so a burst of small
  puts ingests as one vectorised batch (order preserved, per-key
  results bit-identical to feeding the batches one by one); on an
  engine with a bounded-lateness window policy the coalesced run is
  additionally stable-sorted by event time before the engine sees it —
  the queue is the natural reorder point, so fewer records reach the
  engine out of order (never *more* records judged late: in-batch
  lateness can only be caused by newer records preceding older ones);
* **one engine thread** — every engine touch (ingest, queries,
  snapshots, ``advance_time``) runs on a dedicated single-thread
  executor: the event loop never blocks on summary work, and the
  engine sees strictly serialised access, so no engine needs to be
  thread-safe;
* **event-loop ticker** — a time-windowed engine gets periodic
  ``advance_time(clock())`` calls driven by the loop instead of a
  caller-managed clock;
* **standing-query push** — :meth:`AsyncHullService.subscribe` bridges
  the engines' synchronous subscription callbacks to a per-subscriber
  :class:`asyncio.Queue`: touched-key sets arrive with ``await
  sub.get()`` (or ``async for``), including keys whose windows expired
  with no new data;
* **graceful drain** — :meth:`AsyncHullService.aclose` stops intake,
  drains the queue through the engine, optionally writes a final
  snapshot, and tears the tasks down.

Ingest errors discovered at drain time (e.g. a decreasing timestamp)
cannot propagate to the producer that already returned from ``put``;
they are counted in :meth:`AsyncHullService.service_stats`, remembered
in :attr:`AsyncHullService.last_error`, and never kill the drain task.
Use :meth:`AsyncHullService.flush` as a barrier before reading query
results that must reflect everything enqueued.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..core.batch import as_key_array, as_point_array, as_ts_array
from ..engine.common import split_records
from ..obs import metrics as OBS
from ..obs import registry as obs_registry
from ..obs import render_snapshot
from ..obs.trace import span

__all__ = ["AsyncHullService", "AsyncSubscription"]


class AsyncSubscription:
    """Per-subscriber push queue for standing-query notifications.

    Touched-key sets are delivered in dispatch order; when the
    subscriber falls behind and its bounded queue overflows, the
    newest notification is merged into the queue's tail instead of
    being dropped, so a slow consumer sees coalesced (never lost)
    touch sets.  Obtain instances from
    :meth:`AsyncHullService.subscribe`; call :meth:`cancel` (or use the
    service's shutdown) to detach.
    """

    def __init__(self, service: "AsyncHullService", maxsize: int):
        self._service = service
        self._maxsize = maxsize
        # Unbounded queue, bounded manually: on overflow the newest
        # pending set (we keep a reference to it) absorbs the incoming
        # keys in place, preserving delivery order.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._tail: Optional[Set[Hashable]] = None
        self._handle = None  # engine-side Subscription
        self.coalesced = 0  # overflow merges (slow consumer indicator)
        self.received = 0

    def _push(self, touched: Set[Hashable]) -> None:
        """Runs on the event loop (scheduled threadsafe from the engine
        thread)."""
        if self._queue.qsize() >= self._maxsize:
            # The tail reference is necessarily still enqueued (it was
            # the last put and the queue is non-empty), so merging in
            # place keeps dispatch order: the subscriber still learns
            # every touched key, just with less granularity.
            self._tail |= set(touched)
            self.coalesced += 1
            return
        item = set(touched)
        self._tail = item
        self._queue.put_nowait(item)

    async def get(self) -> Set[Hashable]:
        """Wait for the next touched-key set."""
        touched = await self._queue.get()
        self.received += 1
        return touched

    def __aiter__(self) -> "AsyncSubscription":
        return self

    async def __anext__(self) -> Set[Hashable]:
        return await self.get()

    async def cancel(self) -> None:
        """Detach from the engine; pending notifications stay readable."""
        await self._service._cancel_subscription(self)


class AsyncHullService:
    """Serve a hull engine asynchronously (see module docstring).

    Args:
        engine: any :class:`~repro.engine.protocol.EngineProtocol`
            implementation — an in-process
            :class:`~repro.engine.StreamEngine` or a multi-process
            :class:`~repro.shard.ShardedEngine`, windowed or not.
        queue_size: bounded ingest queue length, in batches; ``await
            put`` on a full queue is the backpressure.
        tick_interval: seconds between automatic
            ``advance_time(clock())`` ticks (time-windowed engines
            only; None disables the ticker).
        clock: zero-argument event-time source for the ticker (e.g.
            ``time.time`` when record timestamps are wall-clock
            seconds).  Required if ``tick_interval`` is set.  Ticks use
            the same timeline as record ``ts`` values — a sharded ring
            rejects records older than its high-water clock, so a
            wall-clock ticker over synthetic timestamps would poison
            ingestion.
        own_engine: close the engine on :meth:`aclose` (the service
            took ownership).
        durability: optional :class:`~repro.durable.DurabilityConfig`
            (or bare WAL directory), attached to the engine.  Appends
            happen on the engine thread, write-ahead of each apply —
            *behind* the coalescing queue deliberately: the drain's
            coalesce/presort step changes arrival order under bounded
            lateness, so only the engine-side log captures exactly what
            was applied and replays bit-identically.  The queue itself
            is volatile; a ``sync=True`` producer's acknowledgement
            implies its batch is durable.  To serve a *recovered*
            engine, build it with :func:`~repro.durable.recover_engine`
            (which re-attaches the log) and pass ``durability=None``
            here.

    Use as an async context manager, or call :meth:`start` /
    :meth:`aclose` explicitly.
    """

    def __init__(
        self,
        engine,
        *,
        queue_size: int = 64,
        tick_interval: Optional[float] = None,
        clock=None,
        own_engine: bool = False,
        durability=None,
    ):
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if tick_interval is not None:
            if tick_interval <= 0.0:
                raise ValueError("tick_interval must be positive")
            if engine.window is None or not engine.window.timed:
                raise ValueError(
                    "tick_interval requires an engine with a time-based window"
                )
            if clock is None:
                raise ValueError("tick_interval requires a clock")
        self.engine = engine
        if durability is not None:
            engine.attach_durability(durability, require_empty=True)
        self.tick_interval = tick_interval
        self.clock = clock
        self.own_engine = own_engine
        self.last_error: Optional[str] = None
        self._queue_size = queue_size
        self._queue: Optional[asyncio.Queue] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._pending_futs: set = set()  # unresolved sync-batch futures
        self._subscribers: List[AsyncSubscription] = []
        self._closed = False
        self._started = False
        self._enqueued_batches = 0
        self._coalesced_batches = 0
        self._ingested_records = 0
        self._ingest_errors = 0
        self._ticks = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AsyncHullService":
        """Bind to the running loop and start the drain/tick tasks."""
        if self._started:
            return self
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self._queue_size)
        # One worker thread serialises *all* engine access: the loop
        # stays responsive and the engine needs no thread-safety.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._drain_task = asyncio.ensure_future(self._drain_loop())
        if self.tick_interval is not None:
            self._tick_task = asyncio.ensure_future(self._tick_loop())
        return self

    async def __aenter__(self) -> "AsyncHullService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self, final_snapshot=None) -> None:
        """Graceful shutdown: stop intake, drain everything enqueued
        through the engine, optionally write a final snapshot, stop
        the background tasks (idempotent)."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True  # new puts are refused from here on
        if self._drain_task is not None and self._drain_task.done():
            # The drain task died externally — e.g. Python 3.10's
            # asyncio.run cancels *every* task on Ctrl-C, not just the
            # main one.  join() would hang with no consumer; apply the
            # remaining accepted batches inline instead.
            while not self._queue.empty():
                item = self._queue.get_nowait()
                try:
                    await self._replay_individually([item])
                finally:
                    self._queue.task_done()
        else:
            await self._queue.join()  # drain what was accepted
        for task in (self._tick_task, self._drain_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        # A producer suspended in put() during the drain may have
        # landed a straggler batch after join() resolved; with the
        # drain task gone nothing would ever consume it (a later
        # join() would hang forever).  Sweep, count, and fail any
        # waiting sync producers.
        while not self._queue.empty():
            *_, fut = self._queue.get_nowait()
            self._queue.task_done()
            self._ingest_errors += 1
            self.last_error = "RuntimeError: batch enqueued during close"
            self._resolve(fut, RuntimeError("batch enqueued during close"))
        # A batch the drain task had already dequeued when it was
        # cancelled leaves its sync future unresolved (task_done ran in
        # the drain's finally); fail every remaining waiter so no
        # producer hangs on a closed service.
        for fut in list(self._pending_futs):
            self._resolve(fut, RuntimeError("service closed"))
        for sub in list(self._subscribers):
            if sub._handle is not None:
                await self._run(sub._handle.cancel)
                sub._handle = None
        self._subscribers.clear()
        if final_snapshot is not None:
            await self._run(self.engine.snapshot, final_snapshot)
        if self.own_engine:
            await self._run(self.engine.close)
        self._executor.shutdown(wait=True)

    # -- engine-thread plumbing --------------------------------------------

    def _check_started(self) -> None:
        if not self._started or self._loop is None:
            raise RuntimeError(
                "AsyncHullService is not started; use 'async with' or "
                "await service.start()"
            )

    async def _run(self, fn, *args, **kwargs):
        """Run one engine operation on the dedicated engine thread."""
        self._check_started()
        if kwargs:
            call = lambda: fn(*args, **kwargs)  # noqa: E731
        else:
            call = lambda: fn(*args)  # noqa: E731
        # run_in_executor does not propagate contextvars; carry them
        # over explicitly so trace spans opened on the loop parent the
        # engine-thread work (and the shard hops beneath it).
        ctx = contextvars.copy_context()
        return await self._loop.run_in_executor(
            self._executor, lambda: ctx.run(call)
        )

    # -- ingestion ---------------------------------------------------------

    async def ingest(self, records: Iterable[tuple], sync: bool = False) -> int:
        """Enqueue ``(key, x, y[, ts])`` records; returns the record
        count accepted.  Shape/mixed-ts/finiteness problems raise here,
        synchronously to the producer; engine-level rejections at drain
        time (e.g. a stale timestamp) are counted in
        :meth:`service_stats` — or, with ``sync=True``, raised to this
        caller once its batch has actually gone through the engine."""
        windowed = self.engine.window is not None
        keys, pts, ts_list = split_records(records, windowed=windowed)
        return await self.ingest_arrays(keys, pts, ts=ts_list, sync=sync)

    async def ingest_arrays(
        self,
        keys: Sequence[Hashable],
        points,
        ts=None,
        sync: bool = False,
        on_result=None,
    ) -> int:
        """Enqueue a parallel key sequence and ``(n, 2)`` block.

        Validates shapes and finiteness producer-side, then awaits a
        slot on the bounded queue (the backpressure point).  The drain
        task coalesces whatever is queued into one engine batch.

        ``sync=True`` additionally waits until *this* batch has been
        applied by the engine (queue order preserved) and re-raises
        its rejection here — the precise per-producer error channel;
        fire-and-forget producers instead watch
        :meth:`service_stats`.

        ``on_result`` is the non-blocking attribution hook the same
        per-batch future drives: a callable invoked on the event loop
        once *this* batch has gone through the engine, with ``None``
        on success or the rejection exception — a front door (e.g.
        :mod:`repro.gateway`) can attribute drain-time rejections to
        the producer that enqueued the batch without paying ``sync``'s
        round-trip latency.
        """
        self._check_started()
        if self._closed:
            raise RuntimeError("AsyncHullService is closed")
        if ts is not None and self.engine.window is None:
            raise ValueError("ts requires a windowed engine")
        arr = as_point_array(points)
        key_arr = as_key_array(keys, len(arr))
        ts_arr = as_ts_array(ts, len(arr))
        if (
            ts_arr is None
            and len(arr)
            and self.engine.window is not None
            and self.engine.window.timed
        ):
            raise ValueError("time-based windows require a ts on every record")
        if ts_arr is not None and not np.isfinite(ts_arr).all():
            raise ValueError("ts must be finite")
        if len(arr) == 0:
            if on_result is not None:
                on_result(None)
            return 0
        fut = (
            self._loop.create_future()
            if sync or on_result is not None
            else None
        )
        if fut is not None:
            self._pending_futs.add(fut)
            if on_result is not None:
                # The callback retrieves the exception, so a fire-and-
                # forget producer's rejection is both attributed and
                # never logged as an unretrieved future error.
                fut.add_done_callback(
                    lambda f: on_result(f.exception())
                )
        await self._queue.put(
            (key_arr, arr, ts_arr, time.perf_counter(), fut)
        )
        self._enqueued_batches += 1
        if sync:
            await fut  # re-raises the engine's rejection, if any
        return len(arr)

    async def flush(self) -> None:
        """Barrier: resolve once everything enqueued so far has gone
        through the engine (errors included — check ``last_error``)."""
        self._check_started()
        await self._queue.join()

    async def _drain_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            t_deq = time.perf_counter()
            for item in batch:
                OBS.SERVE_QUEUE_WAIT_SECONDS.observe(t_deq - item[3])
            try:
                # Coalescing never crosses a timestamped/untimestamped
                # boundary (legal mix on count-windowed engines):
                # dropping or fabricating ts would diverge from
                # one-by-one ingestion.
                runs: list = []
                for item in batch:
                    if runs and (runs[-1][-1][2] is None) == (
                        item[2] is None
                    ):
                        runs[-1].append(item)
                    else:
                        runs.append([item])
                for run in runs:
                    key_arr, arr, ts_arr = self._coalesce(
                        [(k, a, t) for k, a, t, _, _ in run]
                    )
                    key_arr, arr, ts_arr = self._presort(
                        key_arr, arr, ts_arr
                    )
                    OBS.SERVE_COALESCED_RECORDS.observe(len(arr))
                    try:
                        with span(
                            "serve.ingest", records=len(arr), batches=len(run)
                        ):
                            await self._run(
                                self.engine.ingest_arrays,
                                key_arr,
                                arr,
                                ts=ts_arr,
                            )
                        self._ingested_records += len(arr)
                        if len(run) > 1:
                            self._coalesced_batches += len(run) - 1
                        for *_, fut in run:
                            self._resolve(fut)
                    except asyncio.CancelledError:
                        raise
                    except Exception:  # noqa: BLE001 - boundary
                        # The merged run was rejected.  Engine
                        # rejections are atomic, so replay the
                        # constituent batches one by one: only the
                        # genuinely bad ones are lost, exactly as if
                        # coalescing had never happened.
                        await self._replay_individually(run)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _presort(self, key_arr, arr, ts_arr):
        """Stable-sort a timestamped run by event time before it
        reaches a bounded-lateness engine.

        The coalescing queue is the natural reorder point the ROADMAP
        called for: a burst of out-of-order producer batches leaves
        here as one non-decreasing run, so the engine buffers less and
        releases sooner.  Sorting is strictly permissive — a record
        can only be judged late against *older* arrivals, so nothing
        sorted here is ever dropped that one-by-one delivery would
        have kept — and it never runs under the strict policy, where
        producer order is the contract.
        """
        window = self.engine.window
        if (
            ts_arr is None
            or window is None
            or getattr(window, "max_delay", None) is None
            or len(ts_arr) < 2
        ):
            return key_arr, arr, ts_arr
        order = np.argsort(ts_arr, kind="stable")
        if (order[1:] > order[:-1]).all():
            return key_arr, arr, ts_arr  # already sorted: skip the copies
        return key_arr[order], arr[order], ts_arr[order]

    async def _replay_individually(self, run) -> None:
        for key_arr, arr, ts_arr, _t_enq, fut in run:
            key_arr, arr, ts_arr = self._presort(key_arr, arr, ts_arr)
            try:
                await self._run(
                    self.engine.ingest_arrays, key_arr, arr, ts=ts_arr
                )
                self._ingested_records += len(arr)
                self._resolve(fut)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - service boundary
                # Record the rejection and keep serving; a sync
                # producer waiting on its batch future gets the exact
                # exception, fire-and-forget producers see the counter.
                self._ingest_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._resolve(fut, exc)

    def _resolve(self, fut, exc: Optional[BaseException] = None) -> None:
        if fut is None:
            return
        self._pending_futs.discard(fut)
        if fut.done():
            return
        if exc is None:
            fut.set_result(True)
        else:
            fut.set_exception(exc)

    @staticmethod
    def _coalesce(batch):
        """Concatenate queued ``(keys, points, ts)`` batches into one.

        Order is preserved, so per-key results are bit-identical to
        ingesting the batches one by one; a timestamped run of batches
        concatenates to one valid (still non-decreasing) run.  The
        caller guarantees a run is homogeneously timestamped or
        homogeneously bare.
        """
        if len(batch) == 1:
            return batch[0]
        key_parts, pts_parts, ts_parts = zip(*batch)
        ts_arr = (
            None if ts_parts[0] is None else np.concatenate(ts_parts)
        )
        if len({p.dtype for p in key_parts}) == 1:
            key_arr = np.concatenate(key_parts)
        else:
            merged = []
            for p in key_parts:
                merged.extend(p.tolist())
            key_arr = np.empty(len(merged), dtype=object)
            key_arr[:] = merged
        return key_arr, np.concatenate(pts_parts), ts_arr

    # -- time --------------------------------------------------------------

    async def advance_time(self, now: float) -> int:
        """Advance the engine's window clock (see the engines'
        ``advance_time``); expired-bucket notifications reach async
        subscribers like any batch."""
        return await self._run(self.engine.advance_time, float(now))

    async def resize(self, shards: int) -> dict:
        """Resize a sharded engine's ring online (see
        :meth:`~repro.shard.ShardedEngine.resize`).  Runs on the engine
        thread like any other engine touch, so in-flight batches are
        never interleaved with the migration — producers keep enqueuing
        throughout, and everything queued applies right after on the
        new layout."""
        resize = getattr(self.engine, "resize", None)
        if resize is None:
            raise ValueError("resize requires a sharded engine")
        return await self._run(resize, int(shards))

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval)
            try:
                await self._run(self.engine.advance_time, self.clock())
                self._ticks += 1
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - service boundary
                self._ingest_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"

    # -- queries -----------------------------------------------------------

    async def keys(self) -> List[Hashable]:
        return await self._run(self.engine.keys)

    async def hull(self, key: Hashable):
        return await self._run(self.engine.hull, key)

    async def merged_hull(self, keys=None):
        return await self._run(self.engine.merged_hull, keys)

    async def diameter(self, keys=None) -> float:
        return await self._run(self.engine.diameter, keys)

    async def width(self, keys=None) -> float:
        return await self._run(self.engine.width, keys)

    async def stats(self):
        return await self._run(self.engine.stats)

    async def snapshot_state(self) -> dict:
        return await self._run(self.engine.snapshot_state)

    async def snapshot(self, path):
        return await self._run(self.engine.snapshot, path)

    async def summary_state(self, key: Hashable) -> Optional[dict]:
        """One key's summary as a :mod:`repro.streams.io` state doc
        (None when the key is not live) — the per-key fetch the gateway's
        ``/v1/summary/<key>`` verb serves, without creating the key."""
        from ..streams.io import summary_state as _summary_state

        def fetch():
            summary = self.engine.get(key)
            return None if summary is None else _summary_state(summary)

        return await self._run(fetch)

    async def late_drops(self) -> dict:
        """Per-key later-than-watermark drop counts from the engine
        (empty under the strict time policy)."""
        return await self._run(self.engine.late_drops)

    def service_stats(self) -> dict:
        """Front-door counters (the engine's own ``stats()`` is async).

        ``late_dropped`` mirrors the engine's count-and-drop total for
        bounded-lateness windows; it is a plain counter read (no
        engine-thread hop), so it may trail an in-flight drain by one
        batch.
        """
        queue_depth = self._queue.qsize() if self._queue else 0
        OBS.SERVE_QUEUE_DEPTH.set(queue_depth)
        OBS.SERVE_SUBSCRIBERS.set(len(self._subscribers))
        wal = getattr(self.engine, "wal", None)
        return {
            "enqueued_batches": self._enqueued_batches,
            "coalesced_batches": self._coalesced_batches,
            "ingested_records": self._ingested_records,
            "ingest_errors": self._ingest_errors,
            "late_dropped": int(getattr(self.engine, "late_dropped", 0)),
            "wal_seq": wal.last_seq if wal is not None else None,
            "ticks": self._ticks,
            "subscribers": len(self._subscribers),
            "queue_depth": queue_depth,
            "last_error": self.last_error,
            "obs": obs_registry().collect(),
        }

    async def metrics_text(self) -> str:
        """The whole stack's metrics in Prometheus text exposition
        format (0.0.4).

        Asks the engine for ``stats()`` first: on a sharded ring that
        refreshes the per-shard gauges and folds every worker's
        registry snapshot into the parent's, so the rendered page shows
        the full cross-process picture — then refreshes this facade's
        own gauges via :meth:`service_stats`.
        """
        self.service_stats()  # refresh serve-tier gauges first
        stats = await self.stats()
        obs = getattr(stats, "obs", None)
        if obs:
            return render_snapshot(obs)
        return render_snapshot(obs_registry().collect())

    # -- standing queries --------------------------------------------------

    async def subscribe(
        self,
        keys: Optional[Iterable[Hashable]] = None,
        maxsize: int = 256,
        key_filter=None,
    ) -> AsyncSubscription:
        """Bridge the engine's standing queries to an async consumer.

        The returned :class:`AsyncSubscription` receives every
        touched-key set the engine dispatches (ingest batches and
        window expiries), delivered on the event loop.

        ``key_filter`` is a predicate over single keys applied before
        delivery (a notification reduced to the empty set is not
        delivered at all) — the namespaced-subscription hook: a
        multi-tenant front door can watch exactly one tenant's key
        prefix without enumerating the keys up front.  It runs on the
        engine thread, so keep it cheap and side-effect free.
        """
        if maxsize < 1:
            raise ValueError("subscription maxsize must be >= 1")
        self._check_started()
        sub = AsyncSubscription(self, maxsize)
        loop = self._loop

        def on_touch(touched: Set[Hashable]) -> None:
            # Engine callbacks run on the engine thread; hop to the loop.
            if key_filter is not None:
                touched = {k for k in touched if key_filter(k)}
                if not touched:
                    return
            loop.call_soon_threadsafe(sub._push, touched)

        sub._handle = await self._run(
            self.engine.subscribe, on_touch, keys
        )
        self._subscribers.append(sub)
        return sub

    async def _cancel_subscription(self, sub: AsyncSubscription) -> None:
        if sub in self._subscribers:
            self._subscribers.remove(sub)
        if sub._handle is not None:
            await self._run(sub._handle.cancel)
            sub._handle = None
