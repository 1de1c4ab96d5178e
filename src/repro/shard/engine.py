"""The sharded multi-process ingestion engine.

:class:`ShardedEngine` is the parallel tier above
:class:`~repro.engine.StreamEngine`: keys are routed across N shards by
consistent hashing (:class:`~repro.shard.hashing.HashRing`), each shard
runs a full engine in its own worker process
(:func:`~repro.shard.worker.shard_worker_main`), and batches fan out to
all owning workers concurrently — the parent sends every shard its
slice before collecting any reply, so W workers ingest W sub-batches in
parallel.

Because every key lives on exactly one shard and arrives there in
stream order, **per-key results are bit-for-bit identical** to a single
:class:`StreamEngine` fed the same records.  Global answers — the
all-keys hull, diameter, width — come from the merge layer: each worker
folds its local summaries into one per-shard summary
(:meth:`StreamEngine.merged_summary`), and the parent tree-reduces the
K shard summaries (:func:`~repro.core.base.tree_merge`), preserving the
schemes' error bounds.

Snapshot/restore covers the whole ring: one JSON document holds every
shard engine's state (the :mod:`repro.streams.io` summary format all
the way down).  A restore reloads each engine wholesale onto the
snapshot's own layout; restoring onto a *different* worker count then
runs :meth:`ShardedEngine.resize`, so consistent hashing keeps the
reshuffle proportional and there is one re-layout path.

The ring implements the same
:class:`~repro.engine.protocol.EngineProtocol` surface as the
in-process tier — single-record ``insert`` (a one-record batch),
parent-side standing-query ``subscribe``, ``snapshot_state``/``from_snapshot_state``, and the
``merged_hull``/``diameter``/``width`` query folds — through the shared
mixins in :mod:`repro.engine.common`, so the two tiers are drop-in
interchangeable behind one contract.

**Failure domain.**  ``standbys=`` runs each shard as a *lane group*:
one primary worker plus N standby workers, every request teed to all
live lanes.  The workers are deterministic, so a standby that applied
the same slices holds bit-identical state — when the primary dies at
the pipe layer the first surviving lane is promoted in place and the
ring keeps serving instead of failing the shard.  ``durability=``
attaches a write-ahead log (:mod:`repro.durable`) at the parent, where
batches are framed once for the whole ring; :meth:`resize` grows or
shrinks the worker count online, migrating only the proportional key
slice consistent hashing displaces.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.util import register_after_fork
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.base import HullSummary, tree_merge
from ..core.batch import as_key_array, as_point_array, as_ts_array
from ..engine.common import (
    BaseStats,
    EngineBase,
    Subscription,
    check_snapshot_doc,
    split_records,
    unique_key_inverse,
    validate_ts_batch,
)
from ..engine.time import late_split
from ..geometry.vec import Point
from ..obs import merge_snapshots
from ..obs import metrics as OBS
from ..obs import registry as obs_registry
from ..obs.trace import current_context, span, tracing
from ..streams.io import summary_from_state
from ..window import WindowConfig, windowed_factory
from .hashing import HashRing
from .spec import SummarySpec
from .transport import FramePipe, TransportError
from .worker import shard_worker_main

__all__ = ["ShardedEngine", "ShardStats", "ShardError"]

PathLike = Union[str, Path]

SHARD_FORMAT = "repro.shard"
SHARD_FORMAT_VERSION = 1


class ShardError(RuntimeError):
    """A shard worker reported an error or died mid-request."""


@dataclass
class ShardStats(BaseStats):
    """Aggregate bookkeeping across the whole ring.

    The shared fields (and the late/buffered ``__str__`` suffix) come
    from :class:`~repro.engine.common.BaseStats` so the two tiers'
    stats cannot drift; the bucket fields aggregate the shards'
    sliding-window layers and stay zero on unwindowed rings (see
    :class:`~repro.engine.EngineStats`).  ``obs`` holds the parent
    registry snapshot merged with every worker's, so one document
    carries the whole ring's metrics."""

    shards: int = 0
    per_shard: List[Dict] = field(default_factory=list)
    #: Replica lanes: standby workers currently alive across the ring,
    #: and how many primary deaths have been absorbed by promotion.
    standbys: int = 0
    promotions: int = 0

    def __str__(self) -> str:
        loads = "/".join(str(s["streams"]) for s in self.per_shard)
        base = (
            f"shards={self.shards} streams={self.streams} "
            f"points={self.points_ingested:,} batches={self.batches_ingested} "
            f"stored={self.sample_points} load={loads}"
        ) + self._suffix()
        if self.standbys or self.promotions:
            base += (
                f" standbys={self.standbys} promotions={self.promotions}"
            )
        return base


def _close_in_child(conn) -> None:
    """After-fork hook: drop a parent-side pipe end a child inherited."""
    conn.close()


def _default_context():
    """Prefer fork (fast start, inherits the imported package); fall
    back to spawn where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


class _Lane:
    """One worker process serving a shard slot.

    A shard is a *lane group*: lane 0 is the primary (its replies are
    the shard's answers), later lanes are standbys applying the same
    deterministic requests so their engines hold bit-identical state.
    ``pending`` counts requests sent but not yet collected on this
    lane's pipe — the unit the reply drain must respect per lane."""

    __slots__ = ("conn", "pipe", "proc", "pending")

    def __init__(self, conn, pipe, proc):
        self.conn = conn
        self.pipe = pipe
        self.proc = proc
        self.pending = 0


class ShardedEngine(EngineBase):
    """Keyed hull summaries sharded across worker processes.

    Args:
        spec: which summary scheme each key gets — a
            :class:`~repro.shard.spec.SummarySpec` (e.g.
            ``SummarySpec.of(AdaptiveHull, r=32)``); a plain
            ``HullSummary`` subclass or instance is coerced.
        shards: number of worker processes (>= 1).
        replicas: virtual nodes per shard on the hash ring.
        max_streams: optional per-shard LRU bound (passed to each
            worker's engine).
        window: optional :class:`~repro.window.WindowConfig` (or kwargs
            dict), propagated to every worker: each key then gets a
            windowed summary, ingestion accepts timestamps,
            :meth:`advance_time` broadcasts expiry, and global queries
            tree-reduce the per-shard *windowed views*.  Timestamped
            batches must be globally time-ordered (each batch
            non-decreasing and no earlier than the previous batch /
            ``advance_time``) so the parent can reject violations
            atomically before any shard ingests — unless the config
            sets ``max_delay``, which opts the ring into
            bounded-lateness event time: the parent judges lateness
            in arrival order, counts-and-drops records beyond the
            watermark, and ships the global watermark with every
            slice so the workers' reorder buffers release at one
            deterministic cut (per-key results stay bit-identical to
            a single engine fed the same arrivals).
        standbys: replica workers per shard (default 0).  Each shard's
            requests tee to ``1 + standbys`` lanes; determinism keeps
            the lanes bit-identical, so when a primary dies at the pipe
            layer the first surviving standby is promoted in place and
            the shard keeps serving (promotions are recorded in
            :attr:`promotions` and in the ring stats).  With
            ``standbys=0`` a dead worker fails its shard fast, exactly
            as before.
        durability: optional :class:`~repro.durable.DurabilityConfig`
            (or a bare WAL directory path).  Batches are framed into a
            write-ahead log at the parent *before* fan-out, so a crash
            of the whole process recovers via
            :func:`~repro.durable.recover_sharded_engine` — snapshot
            plus tail replay, bit-identical by determinism.

    The engine is a context manager; on exit the workers are stopped
    and joined.  All public methods raise :class:`ShardError` when a
    worker reports a failure or has died.  Per-batch parent-side costs
    are split out in the ``repro_shard_partition_seconds``,
    ``repro_shard_send_seconds`` and ``repro_shard_collect_seconds``
    histograms.  A whole-ring :meth:`merged_summary` is served from each worker's
    cached shard fold until that shard next mutates.
    """

    def __init__(
        self,
        spec,
        *,
        shards: int = 2,
        replicas: int = 64,
        max_streams: Optional[int] = None,
        window=None,
        on_late=None,
        standbys: int = 0,
        durability=None,
    ):
        if shards < 1:
            raise ValueError("ShardedEngine needs at least one shard")
        if standbys < 0:
            raise ValueError("standbys must be >= 0")
        self.spec = SummarySpec.coerce(spec)
        self.window = WindowConfig.coerce(window)
        self._clock: Optional[float] = None  # high-water event time (strict)
        # Event-time policy: under bounded lateness the *parent* owns
        # the watermark clock and the late-drop accounting — judging
        # lateness and computing the watermark here, before any shard
        # sees a record, is what keeps release order deterministic
        # across shard layouts and batch rejections atomic.
        self._init_event_time(on_late)
        self.num_shards = shards
        self.ring = HashRing(shards, replicas=replicas)
        self.points_ingested = 0
        self.batches_ingested = 0
        self._subscriptions: List[Subscription] = []
        # Route decisions are memoised per key: consistent hashing costs
        # one BLAKE2 digest per *distinct* key, not per record.  The
        # memo is bounded (workers may LRU-evict keys, but the parent
        # would otherwise remember every key ever seen): on overflow it
        # is simply cleared — recomputing a route is pure and cheap.
        self._route_cache: Dict[Hashable, int] = {}
        # Batch-level routing cache: monitoring streams send the same
        # key population batch after batch, so the (unique keys ->
        # shard ids) mapping from the previous batch usually applies
        # verbatim — one array comparison replaces the per-key ring
        # walk, keeping per-batch partitioning off the parent hot path.
        self._batch_route: Optional[Tuple[np.ndarray, np.ndarray, List]] = None
        # Per-shard metric children resolved once (hot-path increments
        # then skip the label lookup).
        self._send_hist = [
            OBS.SHARD_SEND_SECONDS.labels(str(i)) for i in range(shards)
        ]
        self._collect_hist = [
            OBS.SHARD_COLLECT_SECONDS.labels(str(i)) for i in range(shards)
        ]
        self._inflight = [
            OBS.SHARD_INFLIGHT.labels(str(i)) for i in range(shards)
        ]
        self._closed = False
        self._ctx = _default_context()
        self._max_streams = max_streams
        self.standbys = int(standbys)
        #: Promotion events, oldest first: {"shard", "standbys_left"}.
        self.promotions: List[Dict] = []
        #: Resize events, oldest first (see :meth:`resize`).
        self.resize_events: List[Dict] = []
        # Lane groups per shard; _conns/_pipes/_procs mirror the current
        # primaries (index = shard) for callers that reach into the ring.
        self._lanes: List[List[_Lane]] = []
        self._conns: List = []
        self._pipes: List = []
        self._procs: List = []
        try:
            for i in range(shards):
                self._lanes.append(
                    [self._spawn_lane(i, role) for role in range(standbys + 1)]
                )
            self._sync_primary_views()
            if durability is not None:
                self.attach_durability(durability, require_empty=True)
        except Exception:
            self.close()
            raise

    def _spawn_lane(self, shard: int, role: int = 0) -> _Lane:
        """Start one worker process for ``shard`` (role 0 = primary)."""
        parent_conn, child_conn = self._ctx.Pipe()
        # A forked child inherits every parent-side end open at fork
        # time — its own lane's and those of every earlier lane.  While
        # any worker holds one, no worker sees EOF when the parent dies,
        # and the whole ring outlives it.  Closing them first thing in
        # every forked child leaves the parent the only holder.
        register_after_fork(parent_conn, _close_in_child)
        name = f"repro-shard-{shard}" + (f"-standby{role}" if role else "")
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                self.spec,
                self._max_streams,
                self.window,
            ),
            name=name,
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only its end: EOF propagates
        return _Lane(parent_conn, FramePipe(parent_conn), proc)

    def _sync_primary_views(self) -> None:
        """Refresh the primary-lane mirrors after promotion or resize.
        A shard whose lanes are all dead keeps its stale (dead) entries
        so per-shard indexing stays valid for external probes."""
        conns, pipes, procs = [], [], []
        for i, lanes in enumerate(self._lanes):
            if lanes:
                conns.append(lanes[0].conn)
                pipes.append(lanes[0].pipe)
                procs.append(lanes[0].proc)
            else:
                conns.append(self._conns[i] if i < len(self._conns) else None)
                pipes.append(self._pipes[i] if i < len(self._pipes) else None)
                procs.append(self._procs[i] if i < len(self._procs) else None)
        self._conns, self._pipes, self._procs = conns, pipes, procs

    # -- lifecycle ---------------------------------------------------------

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop every worker (standby lanes included), join its process,
        and seal the write-ahead / dead-letter logs (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_lanes(
            [lane for lanes in getattr(self, "_lanes", []) for lane in lanes]
        )
        self._close_logs()

    @staticmethod
    def _stop_lanes(lanes: Sequence[_Lane]) -> None:
        """Stop-message, drain, close, and join a set of lanes."""
        for lane in lanes:
            try:
                lane.pipe.send(("stop",))
            except (BrokenPipeError, OSError, TransportError):
                pass
        for lane in lanes:
            try:
                if lane.pipe.poll(1.0):
                    lane.pipe.recv()
            except (EOFError, OSError, TransportError):
                pass
            lane.pipe.close()
        for lane in lanes:
            lane.proc.join(timeout=5.0)
            if lane.proc.is_alive():  # pragma: no cover - stuck worker
                lane.proc.terminate()
                lane.proc.join(timeout=1.0)

    # -- durability --------------------------------------------------------

    # ``attach_durability`` / ``wal`` come from EngineBase.  Batches are
    # framed once, parent-side, before fan-out: one log covers the whole
    # ring regardless of shard layout, and recovery may replay it onto
    # any worker count.

    def _wal_meta(self) -> dict:
        return {
            "tier": "shard",
            "spec": self.spec.to_doc(),
            "window": self.window.to_doc() if self.window else None,
            "shards": self.num_shards,
        }

    # -- worker RPC --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ShardError("ShardedEngine is closed")

    def _drop_lane(self, shard: int, lane: _Lane) -> None:
        """Write a dead lane off the shard.  When the dead lane was the
        primary and standbys survive, the first survivor is promoted in
        place — its engine holds bit-identical state (same deterministic
        requests), so the shard keeps serving without replay."""
        lanes = self._lanes[shard]
        if lane not in lanes:
            return
        was_primary = lanes[0] is lane
        lanes.remove(lane)
        try:
            lane.pipe.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        if lane.proc.is_alive():
            lane.proc.terminate()
        lane.proc.join(timeout=1.0)
        if was_primary and lanes:
            self._sync_primary_views()
            OBS.REPLICA_PROMOTIONS.labels(str(shard)).inc()
            self.promotions.append(
                {"shard": shard, "standbys_left": len(lanes) - 1}
            )

    def _request(self, shard: int, op: str, *args) -> None:
        """Tee one request to every live lane of ``shard``.  A lane
        whose send fails is dropped (possibly promoting a standby);
        the request only errors when *no* lane accepted it."""
        msg = (op,) + args
        if tracing():
            # Propagate the active trace/span ids across the pipe so a
            # worker's spans share the batch's trace id (the worker
            # unwraps "~trace" and resumes the context before dispatch).
            ctx = current_context()
            if ctx is not None:
                msg = ("~trace", ctx, msg)
        t0 = time.perf_counter()
        sent = 0
        last_exc: Optional[BaseException] = None
        for lane in list(self._lanes[shard]):
            try:
                lane.pipe.send(msg)
            except (BrokenPipeError, OSError) as exc:
                last_exc = exc
                self._drop_lane(shard, lane)
            else:
                lane.pending += 1
                sent += 1
        if not sent:
            raise ShardError(
                f"shard {shard} is gone: {last_exc or 'no live workers'}"
            ) from last_exc
        self._send_hist[shard].observe(time.perf_counter() - t0)
        self._inflight[shard].inc()

    def _collect(self, shard: int):
        """Collect one reply from every pending lane of ``shard``.  The
        first live lane's reply (the primary's, when it survives) is
        the shard's answer; a lane that dies mid-reply is dropped —
        only when *every* lane died does the shard error surface."""
        t0 = time.perf_counter()
        result = None
        got = False
        last_exc: Optional[BaseException] = None
        desync: Optional[TransportError] = None
        try:
            for lane in [l for l in self._lanes[shard] if l.pending > 0]:
                lane.pending -= 1
                try:
                    reply = lane.pipe.recv()
                except (EOFError, OSError) as exc:
                    if last_exc is None:
                        last_exc = exc
                    self._drop_lane(shard, lane)
                    continue
                except TransportError as exc:
                    # The reply stream is unreadable — a desynchronised
                    # frame cannot be skipped safely, so this lane is
                    # written off.
                    if desync is None:
                        desync = exc
                    self._drop_lane(shard, lane)
                    continue
                if not got:
                    result = reply
                    got = True
        finally:
            self._collect_hist[shard].observe(time.perf_counter() - t0)
            self._inflight[shard].dec()
        if not got:
            if desync is not None:
                raise ShardError(
                    f"shard {shard} reply stream desynchronised: {desync}"
                ) from desync
            raise ShardError(f"shard {shard} died mid-request") from last_exc
        status, payload = result
        if status != "ok":
            raise ShardError(f"shard {shard}: {payload}")
        return payload

    def _call(self, shard: int, op: str, *args):
        self._check_open()
        self._request(shard, op, *args)
        return self._collect(shard)

    def _collect_all(self, shards: Sequence[int]) -> List:
        """Collect one reply per listed shard, draining every pending
        reply even when one errors: abandoning a queued reply would
        permanently desynchronise that shard's request/reply pipe.  The
        first error is raised after the drain."""
        payloads = []
        first_error: Optional[Exception] = None
        for i in shards:
            try:
                payloads.append(self._collect(i))
            except ShardError as exc:
                payloads.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return payloads

    def _send_all(
        self, requests: Sequence[Tuple[int, tuple]]
    ) -> Tuple[List[int], Optional[Exception]]:
        """Send every request, never aborting mid-loop: a dead shard
        must not leave the *live* shards with requests unsent or (worse)
        replies pending but uncollected — that would desynchronise
        pipes that are still healthy.  Returns the shards actually sent
        to and the first send failure."""
        sent: List[int] = []
        first_error: Optional[Exception] = None
        for shard, msg in requests:
            try:
                self._request(shard, *msg)
                sent.append(shard)
            except ShardError as exc:
                if first_error is None:
                    first_error = exc
        return sent, first_error

    def _broadcast(self, op: str, *args) -> List:
        """Send ``op`` to every shard, then collect — requests overlap.
        On a dead shard the healthy replies are still drained before
        the error surfaces, so the survivors stay usable."""
        self._check_open()
        msg = (op,) + args
        sent, first_error = self._send_all(
            [(i, msg) for i in range(self.num_shards)]
        )
        try:
            payloads = self._collect_all(sent)
        except ShardError as exc:
            if first_error is None:
                first_error = exc
            payloads = []
        if first_error is not None:
            raise first_error
        return payloads

    # -- routing -----------------------------------------------------------

    #: Distinct keys memoised before the route cache resets.
    _ROUTE_CACHE_LIMIT = 1 << 18

    def shard_for(self, key: Hashable) -> int:
        """Which shard owns ``key`` (stable across processes/sessions)."""
        if isinstance(key, np.generic):
            key = key.item()
        shard = self._route_cache.get(key)
        if shard is None:
            shard = self.ring.shard_for(key)
            if len(self._route_cache) >= self._ROUTE_CACHE_LIMIT:
                self._route_cache.clear()
            self._route_cache[key] = shard
        return shard

    # -- ingestion ---------------------------------------------------------

    def _check_ring_ts(
        self, ts_arr: Optional[np.ndarray], n: int
    ) -> None:
        """Parent-side timestamp policy for a windowed ring.  Under the
        strict (default) policy the batch must be globally
        non-decreasing and start no earlier than the high-water clock —
        a sufficient condition for every worker to accept its slice,
        which keeps a rejection atomic across shards (nothing is sent
        on failure).  Under bounded lateness ordering is no longer an
        error (the reorder layer owns it) and only finiteness is
        enforced.  Validation only: clocks advance in :meth:`_fan_out`
        once the batch is routed, so a later routing error cannot
        poison subsequent retries."""
        if ts_arr is None:
            if n and self.window is not None and self.window.timed:
                raise ValueError(
                    "time-based windows require a ts on every record"
                )
            return
        if self.window is None:
            raise ValueError("ts requires a windowed engine")
        validate_ts_batch(
            ts_arr, self._clock, "sharded ring: ", policy=self.time_policy
        )

    # ``watermark`` / ``late_drops`` / ``late_dropped`` come from
    # EventTimeAPI (shared with the in-process tier); on a bounded
    # ring the late accounting is parent-side — a late record never
    # reaches a worker.

    # ``insert`` comes from EngineBase: a one-record ``ingest_arrays``.

    def ingest(
        self, records: Iterable[Tuple[Hashable, float, float]]
    ) -> int:
        """Route ``(key, x, y)`` records to their shards; returns the
        number of summary-changing records.  Each shard receives its
        slice in stream order, so per-key results match a single-engine
        ingestion of the same records exactly.  On a windowed ring
        records may be ``(key, x, y, ts)`` — all or none, globally
        time-ordered.

        Every record is validated in the parent *before* anything is
        sent, so a malformed record rejects the whole batch atomically
        across shards (a worker-side rejection would leave the other
        shards' slices already ingested)."""
        keys, pts, ts_list = split_records(
            records, windowed=self.window is not None
        )
        return self.ingest_arrays(keys, pts, ts=ts_list)

    def _route_keys(
        self, key_arr: np.ndarray
    ) -> Tuple[np.ndarray, List, np.ndarray]:
        """Vectorised routing: the batch's per-record shard ids plus
        its distinct keys.  Distinct keys map through the ring once
        (memoised in :attr:`_route_cache`), and when consecutive
        batches carry the same key population — the steady state of
        every monitoring workload — the whole (unique keys -> shard
        ids) array is reused from the previous batch, so the per-batch
        cost is one grouping pass plus one fancy index."""
        uniq_keys, inverse = unique_key_inverse(key_arr)
        cached = self._batch_route
        if (
            cached is not None
            and cached[0].dtype == key_arr.dtype
            and len(cached[2]) == len(uniq_keys)
            and cached[2] == uniq_keys
        ):
            uniq_shards = cached[1]
        else:
            uniq_shards = np.fromiter(
                (self.shard_for(k) for k in uniq_keys),
                dtype=np.int64,
                count=len(uniq_keys),
            )
            self._batch_route = (key_arr, uniq_shards, uniq_keys)
        return uniq_shards[inverse], uniq_keys, inverse

    def ingest_arrays(
        self, keys: Sequence[Hashable], points, ts=None
    ) -> int:
        """NumPy-native fan-out: a parallel ``keys`` sequence and an
        ``(n, 2)`` point block are partitioned per shard with one
        vectorised routing pass (unique keys hashed once, the whole
        routing array reused across batches with the same key
        population) and the sub-batches ship to all owning workers as
        zero-copy buffer frames, ingesting concurrently.  On a
        windowed ring ``ts`` may carry event time (scalar or parallel
        array, globally non-decreasing)."""
        arr = as_point_array(points)
        key_arr = as_key_array(keys, len(arr))
        ts_arr = as_ts_array(ts, len(arr))
        self._check_ring_ts(ts_arr, len(arr))
        if len(arr) == 0:
            return 0
        if self._wal is not None:
            # Write-ahead, whole batch, before partitioning: the log is
            # layout-independent (replay re-routes through whatever ring
            # recovers it), and records judged late below replay late.
            self._wal.append_batch(key_arr, arr, ts_arr)
        p0, b0 = self.points_ingested, self.batches_ingested
        with span("shard.ingest", records=len(arr)) as sp:
            changed = self._ingest_validated(key_arr, arr, ts_arr)
        OBS.SHARD_INGEST_BATCH_SECONDS.observe(sp.duration)
        if self.points_ingested > p0:
            OBS.SHARD_INGEST_RECORDS.inc(self.points_ingested - p0)
        if self.batches_ingested > b0:
            OBS.SHARD_INGEST_BATCHES.inc(self.batches_ingested - b0)
        self._maybe_compact()
        return changed

    def _ingest_validated(
        self,
        key_arr: np.ndarray,
        arr: np.ndarray,
        ts_arr: Optional[np.ndarray],
    ) -> int:
        t0 = time.perf_counter()
        late_counts: Optional[Dict[Hashable, int]] = None
        batch_max_ts = float(ts_arr[-1]) if ts_arr is not None else None
        slice_watermark: Optional[float] = None
        late = None
        if self._event_clock is not None:
            # Judge lateness once, parent-side, in arrival order — the
            # verdict (and the watermark every worker releases at) must
            # not depend on how keys shard.
            late, new_max = late_split(
                ts_arr, self._event_clock.max_ts, self._event_clock.max_delay
            )
            batch_max_ts = new_max
            slice_watermark = self._event_clock.peek(new_max)
        shard_ids, uniq_keys, inverse = self._route_keys(key_arr)
        touched: Set[Hashable] = set(uniq_keys)
        noted: Set[Hashable] = set()
        keep = None
        late_slices: Optional[Dict[Hashable, tuple]] = None
        if late is not None:
            late_counts = {}
            if late.any():
                keep = ~late
                n_uniq = len(uniq_keys)
                per_key_late = np.bincount(inverse[late], minlength=n_uniq)
                per_key_all = np.bincount(inverse, minlength=n_uniq)
                late_pos = (
                    np.flatnonzero(late) if self._on_late is not None else None
                )
                for j in np.flatnonzero(per_key_late):
                    key = uniq_keys[j]
                    late_counts[key] = int(per_key_late[j])
                    noted.add(key)
                    if late_pos is not None:
                        # Dead-letter hook installed: materialise this
                        # key's dropped slice for the callback.
                        sel = late_pos[inverse[late_pos] == j]
                        if late_slices is None:
                            late_slices = {}
                        late_slices[key] = (arr[sel], ts_arr[sel])
                    if per_key_late[j] == per_key_all[j]:
                        touched.discard(key)
        requests = []
        for i in range(self.num_shards):
            mask = shard_ids == i
            if keep is not None:
                mask &= keep
            idx = np.flatnonzero(mask)
            if len(idx):
                slice_ts = ts_arr[idx] if ts_arr is not None else None
                msg = ("ingest_arrays", key_arr[idx], arr[idx], slice_ts)
                if slice_watermark is not None:
                    msg = msg + (slice_watermark,)
                requests.append((i, msg))
        OBS.SHARD_PARTITION_SECONDS.observe(time.perf_counter() - t0)
        total = len(arr) if keep is None else int(keep.sum())
        return self._fan_out(
            requests,
            total,
            batch_max_ts=batch_max_ts,
            touched=touched,
            late_counts=late_counts,
            noted=noted,
            late_slices=late_slices,
        )

    def _fan_out(
        self,
        requests: List[Tuple[int, tuple]],
        total: int,
        batch_max_ts: Optional[float] = None,
        touched: Optional[Set[Hashable]] = None,
        late_counts: Optional[Dict[Hashable, int]] = None,
        noted: Optional[Set[Hashable]] = None,
        late_slices: Optional[Dict[Hashable, tuple]] = None,
    ) -> int:
        """Send every shard its slice, then collect all acks.  The
        clocks (strict high-water, or the bounded-lateness event clock)
        and the late-drop counters advance here — after routing
        succeeded and the slices are on the wire — never on a rejected
        batch.  Subscribers are notified once, after the whole batch,
        with the touched keys plus the keys that had late drops."""
        self._check_open()
        sent, send_error = self._send_all(requests)
        if batch_max_ts is not None:
            if self._event_clock is not None:
                self._event_clock.observe(batch_max_ts)
            else:
                self._clock = batch_max_ts
        if late_counts:
            for key, n in late_counts.items():
                pts_ts = late_slices.get(key) if late_slices else None
                if pts_ts is not None:
                    self._record_late(
                        key, n, points=pts_ts[0], ts=pts_ts[1]
                    )
                else:
                    self._record_late(key, n)
        try:
            changed = sum(self._collect_all(sent))
        except ShardError as exc:
            if send_error is None:
                send_error = exc
            changed = 0
        if send_error is not None:
            raise send_error
        if total:
            self.points_ingested += total
            self.batches_ingested += 1
        notify = set(touched or ()) | set(noted or ())
        if notify:
            self._notify(notify)
        return changed

    # -- queries -----------------------------------------------------------

    def keys(self) -> List[Hashable]:
        """All live keys across the ring (per-shard order concatenated)."""
        out: List[Hashable] = []
        for shard_keys in self._broadcast("keys"):
            out.extend(shard_keys)
        return out

    def __len__(self) -> int:
        return sum(len(ks) for ks in self._broadcast("keys"))

    def hull(self, key: Hashable) -> List[Point]:
        """Approximate hull of one keyed stream ([] if never fed)."""
        return [tuple(v) for v in self._call(self.shard_for(key), "hull", key)]

    def _summary_factory(self):
        """The per-key factory a worker engine uses (window-wrapped when
        the ring is windowed)."""
        if self.window is None:
            return self.spec.build
        return windowed_factory(self.spec, self.window)

    def advance_time(self, now: float) -> int:
        """Broadcast a clock advance to every shard (time-based windows
        only); returns the total number of expired buckets across the
        ring.  Subscribers are notified with the keys whose windows
        expired buckets, exactly like the in-process tier.  Under
        bounded lateness ``now`` is the event-time heartbeat: the
        parent advances the global watermark and every worker flushes
        its reorder buffers up to it before expiring (so the keys
        whose buffered records were released notify too).  A ring
        without a time-based window, or a non-finite ``now``, raises
        ``ValueError`` in the parent before anything is logged or
        broadcast."""
        now = self._begin_advance(now)
        if self._event_clock is not None:
            wm = self._event_clock.peek(now)
            replies = self._broadcast("advance_time", now, wm)
            self._event_clock.observe(now)
        else:
            replies = self._broadcast("advance_time", now)
            if self._clock is None or now > self._clock:
                self._clock = now
        expired = sum(r[0] for r in replies)
        touched: Set[Hashable] = set()
        for r in replies:
            touched.update(r[1])
        if touched:
            self._notify(touched)
        self._maybe_compact()
        return expired

    def get(self, key: Hashable) -> Optional[HullSummary]:
        """A *copy* of one key's summary, or None if the key is not
        live (never routes a creation — the read-only probe)."""
        state = self._call(self.shard_for(key), "summary_state", key, False)
        if state is None:
            return None
        return summary_from_state(state, factory=self._summary_factory())

    def summary(self, key: Hashable) -> HullSummary:
        """A *copy* of one key's summary, created (empty, worker-side)
        on first use like :meth:`StreamEngine.summary`.  Mutating the
        copy does not touch the worker — it is rebuilt from the shard's
        snapshot state."""
        state = self._call(self.shard_for(key), "summary_state", key, True)
        return summary_from_state(state, factory=self._summary_factory())

    def merged_summary(
        self, keys: Optional[Iterable[Hashable]] = None
    ) -> HullSummary:
        """One summary covering the union of the selected streams.

        Every worker folds its local summaries into a per-shard summary
        (on a windowed ring: a per-shard *windowed view* of the base
        scheme, covering the union of that shard's live windows); the
        parent deserialises the K shard summaries and tree-reduces
        them (:func:`~repro.core.base.tree_merge`).  With ``keys=None``
        each worker answers from its cached shard fold when nothing
        changed since the last such query (a hit or miss on
        ``repro_partial_cache_total``).  The result carries the
        scheme's usual one-sided error against the union stream's
        (respectively the union window's) true hull."""
        selection = None if keys is None else list(keys)
        states = self._broadcast("merged_state", selection)
        summaries = [
            summary_from_state(s, factory=self.spec.build) for s in states
        ]
        return tree_merge(summaries)

    # ``merged_hull`` / ``diameter`` / ``width`` come from
    # ExtentQueryAPI — the same folds the in-process tier uses.

    def stats(self) -> ShardStats:
        """Aggregate counters across all shards.

        Also refreshes the per-shard obs gauges and merges every
        worker's registry snapshot (shipped inside its stats reply)
        with the parent's into the document's ``obs`` field — the one
        place the whole ring's metrics, worker-side window/engine
        families included, are visible together.
        """
        per_shard = self._broadcast("stats")
        for i, s in enumerate(per_shard):
            OBS.SHARD_STREAMS.labels(str(i)).set(s.get("streams", 0))
        merged_obs = obs_registry().collect()
        for s in per_shard:
            worker_obs = s.get("obs")
            if worker_obs:
                merged_obs = merge_snapshots(merged_obs, worker_obs)
        return ShardStats(
            shards=self.num_shards,
            streams=sum(s["streams"] for s in per_shard),
            points_ingested=self.points_ingested,
            batches_ingested=self.batches_ingested,
            sample_points=sum(s["sample_points"] for s in per_shard),
            per_shard=per_shard,
            evictions=sum(s.get("evictions", 0) for s in per_shard),
            buckets=sum(s.get("buckets", 0) for s in per_shard),
            bucket_merges=sum(s.get("bucket_merges", 0) for s in per_shard),
            bucket_expiries=sum(
                s.get("bucket_expiries", 0) for s in per_shard
            ),
            late_dropped=self.late_dropped
            + sum(s.get("late_dropped", 0) for s in per_shard),
            buffered=sum(s.get("buffered", 0) for s in per_shard),
            standbys=sum(max(len(lanes) - 1, 0) for lanes in self._lanes),
            promotions=len(self.promotions),
            obs=merged_obs,
        )

    # -- online resharding -------------------------------------------------

    def resize(self, shards: int) -> Dict:
        """Resize the ring to ``shards`` workers without stopping it.

        Consistent hashing keeps the reshuffle proportional: growing
        moves keys only *onto* the new shards, shrinking moves only the
        retired shards' keys — every other key stays where it is (the
        migrated fraction is about ``|old - new| / max(old, new)``).
        Each displaced key moves through the workers' ``extract`` /
        ``adopt`` pair — summary and any pending reorder-buffer records
        together — so nothing is lost and per-key state is preserved
        exactly.  New lanes (with the ring's ``standbys``) spawn before
        any key moves; surplus lanes stop only after their keys are
        safely adopted.  Returns the resize event, also appended to
        :attr:`resize_events`:
        ``{"from", "to", "moved_keys", "total_keys"}``.

        The write-ahead log, if attached, is untouched: the log is
        layout-independent (replay re-routes every record), so a resize
        needs no logging of its own.
        """
        self._check_open()
        shards = int(shards)
        if shards < 1:
            raise ValueError("resize needs at least one shard")
        old = self.num_shards
        if shards == old:
            return {
                "from": old,
                "to": old,
                "moved_keys": 0,
                "total_keys": len(self),
            }
        new_ring = HashRing(shards, replicas=self.ring.replicas)

        def route(key):
            if isinstance(key, np.generic):
                key = key.item()
            return new_ring.shard_for(key)

        # Grow first: destinations must be serving before keys move.
        for i in range(old, shards):
            self._lanes.append(
                [self._spawn_lane(i, role) for role in range(self.standbys + 1)]
            )
        for i in range(len(self._send_hist), shards):
            label = str(i)
            self._send_hist.append(OBS.SHARD_SEND_SECONDS.labels(label))
            self._collect_hist.append(OBS.SHARD_COLLECT_SECONDS.labels(label))
            self._inflight.append(OBS.SHARD_INFLIGHT.labels(label))
        self._sync_primary_views()
        moved = total_keys = 0
        for src in range(old):
            shard_keys = self._call(src, "keys")
            total_keys += len(shard_keys)
            movers = [k for k in shard_keys if route(k) != src]
            if not movers:
                continue
            extracted = self._call(src, "extract", movers)
            for key, state, buffer_doc in extracted:
                dst = route(key)
                if state is not None:
                    self._call(dst, "adopt", key, state)
                if buffer_doc is not None:
                    self._call(dst, "adopt_buffer", key, buffer_doc)
            moved += len(extracted)
        retired: List[List[_Lane]] = []
        if shards < old:
            retired = self._lanes[shards:]
            del self._lanes[shards:]
            del self._send_hist[shards:]
            del self._collect_hist[shards:]
            del self._inflight[shards:]
        self.ring = new_ring
        self.num_shards = shards
        self._route_cache.clear()
        self._batch_route = None
        self._sync_primary_views()
        self._stop_lanes([lane for lanes in retired for lane in lanes])
        OBS.RESIZES.inc()
        if moved:
            OBS.RESIZE_MOVED_KEYS.inc(moved)
        event = {
            "from": old,
            "to": shards,
            "moved_keys": moved,
            "total_keys": total_keys,
        }
        self.resize_events.append(event)
        return event

    # -- snapshot / restore ------------------------------------------------

    def snapshot_state(self) -> dict:
        """The whole ring's state as one JSON-compatible document —
        every shard engine, every summary (keys must be JSON scalars,
        as for :meth:`StreamEngine.snapshot_state`)."""
        engines = self._broadcast("snapshot_state")
        doc = {
            "format": SHARD_FORMAT,
            "version": SHARD_FORMAT_VERSION,
            "shards": self.num_shards,
            "replicas": self.ring.replicas,
            "spec": self.spec.to_doc(),
            "window": self.window.to_doc() if self.window else None,
            "clock": self._clock,
            "points_ingested": self.points_ingested,
            "batches_ingested": self.batches_ingested,
            "engines": engines,
        }
        if self._event_clock is not None:
            late = []
            for key, n in self._late_drops.items():
                # Same constraint as summary keys: a key that only
                # ever appeared as a late drop must still round-trip.
                self._check_snapshot_key(key)
                late.append([key, n])
            doc["time"] = {
                **self._event_clock.to_doc(),
                "late_drops": late,
            }
        return doc

    @classmethod
    def from_snapshot_state(
        cls,
        doc: dict,
        *,
        shards: Optional[int] = None,
        max_streams: Optional[int] = None,
        on_late=None,
        standbys: int = 0,
        window=None,
        durability=None,
    ) -> "ShardedEngine":
        """Rebuild a ring from a :meth:`snapshot_state` document.

        Each worker reloads its engine wholesale onto the snapshot's
        own layout (its ``shards`` and hash-ring ``replicas``) —
        identical per-shard state and counters.  A different
        ``shards`` then runs :meth:`resize`, the one re-layout path:
        per-key summaries and pending reorder buffers move exactly,
        per-shard point counters follow the summaries' own
        ``points_seen`` (per-shard *batch* counts stay where they were
        loaded), and the resize is recorded in :attr:`resize_events`.
        ``window=None`` keeps the snapshot's own window config;
        ``standbys`` configures the rebuilt ring like the constructor,
        and ``durability`` is attached last, onto the final layout
        (the directory must be fresh — recovery re-attaches to an
        existing log *after* replay instead).  On any failure the
        partly built ring is closed before the error propagates.
        """
        check_snapshot_doc(
            doc, SHARD_FORMAT, SHARD_FORMAT_VERSION, "a shard snapshot"
        )
        spec = SummarySpec.from_doc(doc["spec"])
        if window is None:
            window_doc = doc.get("window")
            window = WindowConfig.from_doc(window_doc) if window_doc else None
        engine = cls(
            spec,
            shards=int(doc["shards"]),
            replicas=int(doc["replicas"]),
            max_streams=max_streams,
            window=window,
            on_late=on_late,
            standbys=standbys,
        )
        try:
            for i, engine_doc in enumerate(doc["engines"]):
                engine._request(i, "load_snapshot", engine_doc)
            engine._collect_all(range(len(doc["engines"])))
            engine.points_ingested = int(doc.get("points_ingested", 0))
            engine.batches_ingested = int(doc.get("batches_ingested", 0))
            clock = doc.get("clock")
            engine._clock = float(clock) if clock is not None else None
            time_doc = doc.get("time")
            if time_doc is not None:
                if engine._event_clock is None:
                    raise ValueError(
                        "snapshot carries event-time state but the window "
                        "has no bounded-lateness policy"
                    )
                engine._event_clock.load_doc(time_doc)
                engine._late_drops = {
                    key: int(n) for key, n in time_doc.get("late_drops", [])
                }
            if shards is not None:
                engine.resize(shards)
            if durability is not None:
                engine.attach_durability(durability, require_empty=True)
        except Exception:
            engine.close()
            raise
        return engine

    @classmethod
    def restore(
        cls,
        path: PathLike,
        *,
        shards: Optional[int] = None,
        max_streams: Optional[int] = None,
        on_late=None,
        standbys: int = 0,
        window=None,
        durability=None,
    ) -> "ShardedEngine":
        """Rebuild a ring from a :meth:`snapshot` file."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_snapshot_state(
            doc,
            shards=shards,
            max_streams=max_streams,
            on_late=on_late,
            standbys=standbys,
            window=window,
            durability=durability,
        )
