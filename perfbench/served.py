"""The ``served_window`` workload: the gateway as its own process.

The server is started through the public CLI::

    python -m repro gateway --workers 2 --last-n 2000 --r 32 --tenants <cfg>

with one tenant that has no limits.  The benchmark drives it as an
**open loop** over two keep-alive ``GatewayClient`` connections: batch
*i* of ``batch`` records is due at ``i * period`` and rides connection
``i % 2``; each connection owns a disjoint half of the keys, so the
arrival order per key is fixed and the final hulls are checkable.  Half
a period after each batch a ``GET /v1/hull/<key>`` is due on the other
connection, and every ``query_every``-th batch a tenant-wide
``GET /v1/keys`` is due a quarter period later still.  Latency is timed
from each request's due time; generator lag (how late the scheduler
woke) is reported, and a run whose lag or achieved rate shows the
system could not keep up is refused as saturated.

A traced run is the same open loop with its timed phase bracketed by
two ``/metrics`` scrapes, whose difference attributes time and work to
the server's layers; the client-side request timings are its spans.
The scrapes fall outside the timed phase, so its overhead is their
own duration, reported as a share of the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from measure import (
    InvalidRun,
    Outcome,
    highest_tail,
    parse_prom,
    prom_delta,
    prom_sum,
    prom_values,
    report,
    tail_summary,
)
from quality import mean_and_max, rel_errors

TENANT = "bench"
TOKEN = "bench-token"
READY_RE = re.compile(r"gateway\s*: http://([0-9.]+):(\d+)")


@dataclass(frozen=True)
class ServedSpec:
    keys: int = 64
    batch: int = 250
    rate: float = 2_500.0  # offered records per second
    prefill_batch: int = 2000
    last_n: int = 2000
    r: int = 32
    workers: int = 2
    connections: int = 2
    warmup_batches: int = 20
    query_every: int = 5
    check_every: int = 5  # per connection: window quality every 10th batch
    setups: int = 3
    #: Saturated when generator lag p95 exceeds this share of a period
    #: or the achieved rate falls below this share of the offered rate.
    max_lag_share: float = 0.1
    min_rate_share: float = 0.97

    @property
    def period(self) -> float:
        return self.batch / self.rate

    @property
    def prefill_batches(self) -> int:
        """Batches that fill every key's window before any timing (a
        multiple of the connection count, so each sends its share)."""
        n = -(-self.keys * self.last_n // self.prefill_batch)
        return -(-n // self.connections) * self.connections

    def doc(self) -> dict:
        return {
            "tier": "python -m repro gateway (own process), sharded ring",
            "scheme": f"AdaptiveHull({self.r})",
            "stream": "drifting_clusters_stream, one per key",
            "keys": self.keys,
            "batch": self.batch,
            "offered_records_per_s": self.rate,
            "window_last_n": self.last_n,
            "workers": self.workers,
            "connections": self.connections,
            "loop": "open; ingest sync=true, hull GET half a period later, "
                    f"GET /v1/keys every {self.query_every}th batch",
            "prefill": f"{self.prefill_batches} batches of {self.prefill_batch}, closed loop",
            "warmup_batches": self.warmup_batches,
        }


SPEC = ServedSpec()


@dataclass
class Inputs:
    keys: List[np.ndarray]  # per batch
    points: List[np.ndarray]  # per batch
    records: List[list]  # per batch, JSON-ready
    read_keys: List[str]


def batch_sizes(spec: ServedSpec, timed: int) -> List[int]:
    """Records per batch: the window prefill, then warm-up and timed."""
    return [spec.prefill_batch] * spec.prefill_batches + [spec.batch] * (
        spec.warmup_batches + timed
    )


def make_inputs(spec: ServedSpec, sizes: List[int], seed: int) -> Inputs:
    """A pure function of (workload, seed, batch sizes).

    Batch ``i`` draws its keys uniformly from connection ``i % c``'s
    half; every key reads its points in order from its own
    ``drifting_clusters_stream``, so keys differ in shape.
    """
    from repro.streams import drifting_clusters_stream

    names = np.array([f"k{i:02d}" for i in range(spec.keys)])
    c = spec.connections
    half = spec.keys // c
    rng = np.random.default_rng([seed, spec.keys, spec.batch])
    key_idx = np.concatenate([
        (i % c) * half + rng.integers(0, half, n) for i, n in enumerate(sizes)
    ])
    pts = np.empty((len(key_idx), 2))
    for k in range(spec.keys):
        mine = key_idx == k
        pts[mine] = drifting_clusters_stream(int(mine.sum()), seed=[seed, k])
    bounds = np.cumsum([0] + sizes)
    keys = [names[key_idx[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]
    points = [pts[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    records = [
        [[key, x, y] for key, (x, y) in zip(k.tolist(), p.tolist())]
        for k, p in zip(keys, points)
    ]
    read_keys = names[rng.integers(0, spec.keys, len(sizes))].tolist()
    return Inputs(keys, points, records, read_keys)


# -- the server process ----------------------------------------------------


class Server:
    """One ``python -m repro gateway`` process and its worker group."""

    def __init__(self, spec: ServedSpec, env: dict, out_dir):
        self.spec = spec
        self.env = dict(env, PYTHONUNBUFFERED="1")
        self.out_dir = out_dir
        self.tenants = out_dir / "tenants.json"
        self.tenants.write_text(json.dumps({"tenants": [{"id": TENANT, "token": TOKEN}]}))
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; returns seconds until its port accepts."""
        log = self.out_dir / "server.log"
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "gateway",
                    "--workers", str(self.spec.workers),
                    "--last-n", str(self.spec.last_n),
                    "--r", str(self.spec.r),
                    "--tenants", str(self.tenants),
                    "--port", "0",
                ],
                env=self.env,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited early:\n{log.read_text()}")
            if time.perf_counter() - t0 > timeout:
                self.stop()
                raise RuntimeError("gateway did not come up in time")
            m = READY_RE.search(log.read_text(errors="replace"))
            if m is not None:
                try:
                    socket.create_connection((m.group(1), int(m.group(2))), timeout=1).close()
                except OSError:
                    pass
                else:
                    self.port = int(m.group(2))
                    return time.perf_counter() - t0
            time.sleep(0.002)

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt the server, wait for it, then make sure no process
        of its group (the shard workers) survives."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        # The workers exit once the closed ring hangs up on them; a
        # straggler is terminated, and killed if it ignores that.
        start = time.monotonic()
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            waited = time.monotonic() - start
            if waited > 2.0:
                sig = signal.SIGKILL if waited > timeout else signal.SIGTERM
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    return
            time.sleep(0.05)


# -- the open loop ---------------------------------------------------------


@dataclass
class Phase:
    ingest: List[float]  # due -> response, seconds
    ingest_service: List[float]  # send -> response
    reads: List[float]
    queries: List[float]
    lag: List[float]
    first_due: float = 0.0
    last_done: float = 0.0
    batches: int = 0
    attempted: int = 0
    failed: int = 0
    scrape_s: float = 0.0

    def rate(self, batch: int) -> float:
        return self.batches * batch / (self.last_done - self.first_due)


async def open_loop(spec: ServedSpec, clients, locks, inputs: Inputs, indices: range) -> Phase:
    clock = time.perf_counter
    phase = Phase([], [], [], [], [])
    tasks = []

    async def send(conn, method, path, doc, due, sink, service=None):
        phase.attempted += 1
        async with locks[conn]:
            sent = clock()
            try:
                status, _ = await clients[conn].request(method, path, doc)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                status = None
            done = clock()
        if status is None or status >= 300:
            phase.failed += 1
            return
        sink.append(done - due)
        if service is not None:
            service.append(done - sent)
        phase.last_done = max(phase.last_done, done)

    async def at(due):
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lag.append(clock() - due)

    period = spec.period
    start = clock() + 0.05
    phase.first_due = start
    for j, i in enumerate(indices):
        due = start + j * period
        conn = i % spec.connections
        other = (i + 1) % spec.connections
        await at(due)
        tasks.append(asyncio.create_task(send(
            conn, "POST", "/v1/ingest", {"records": inputs.records[i], "sync": True},
            due, phase.ingest, phase.ingest_service,
        )))
        await at(due + period / 2)
        tasks.append(asyncio.create_task(send(
            other, "GET", f"/v1/hull/{inputs.read_keys[i]}", None, due + period / 2,
            phase.reads,
        )))
        if (j + 1) % spec.query_every == 0:
            await at(due + 3 * period / 4)
            tasks.append(asyncio.create_task(send(
                other, "GET", "/v1/keys", None, due + 3 * period / 4, phase.queries,
            )))
        phase.batches += 1
    await asyncio.gather(*tasks)
    return phase


def check_saturation(spec: ServedSpec, phase: Phase) -> None:
    lag = tail_summary(phase.lag, 0.95)
    lag_p95 = lag.tail
    achieved = phase.rate(spec.batch)
    report(f"open loop: offered {spec.rate:,.0f} rec/s, achieved {achieved:,.0f}; "
           + lag.describe("generator lag"))
    if lag_p95 > spec.max_lag_share * spec.period:
        raise InvalidRun(f"saturated: generator lag p95 {lag_p95 * 1e3:.1f} ms exceeds "
                         f"{spec.max_lag_share:.0%} of the {spec.period * 1e3:.0f} ms period")
    if achieved < spec.min_rate_share * spec.rate:
        raise InvalidRun(f"saturated: achieved {achieved:,.0f} rec/s is below "
                         f"{spec.min_rate_share:.0%} of the offered {spec.rate:,.0f}")


async def closed_loop(client, inputs: Inputs, indices: range) -> int:
    """Send the batches one after another; returns how many failed."""
    failed = 0
    for i in indices:
        status, _ = await client.request(
            "POST", "/v1/ingest", {"records": inputs.records[i], "sync": True}
        )
        failed += status >= 300
    return failed


async def drive(spec: ServedSpec, port: int, inputs: Inputs, trace: bool, timed: int):
    from repro.gateway import GatewayClient

    clients = [GatewayClient("127.0.0.1", port, TOKEN) for _ in range(spec.connections)]
    locks = [asyncio.Lock() for _ in clients]
    p, w = spec.prefill_batches, spec.warmup_batches
    try:
        # Fill every window closed-loop (each connection its own batches,
        # in order), so the timed phase sees windows that seal, merge
        # and expire on every batch; then warm up at the offered rate.
        prefill = await asyncio.gather(*(
            closed_loop(clients[c], inputs, range(c, p, spec.connections))
            for c in range(spec.connections)
        ))
        warm = await open_loop(spec, clients, locks, inputs, range(p, p + w))
        if any(prefill) or warm.failed:
            raise RuntimeError(f"{sum(prefill) + warm.failed} set-up requests failed")
        w += p
        scrapes = []
        clock = time.perf_counter
        if trace:
            t0 = clock()
            scrapes.append(await clients[0].metrics_text())
            scrape_s = clock() - t0
        measured = await open_loop(spec, clients, locks, inputs, range(w, w + timed))
        if trace:
            t0 = clock()
            scrapes.append(await clients[0].metrics_text())
            scrape_s += clock() - t0
            measured.scrape_s = scrape_s
        hulls = {}
        for key in sorted(set(k for ks in inputs.keys for k in ks.tolist())):
            hulls[key] = await clients[0].hull(key)
        stats = await clients[0].stats()
        return measured, scrapes, hulls, stats
    finally:
        for client in clients:
            await client.aclose()


def reference_part(
    spec: ServedSpec, keys: List[np.ndarray], points: List[np.ndarray], first_checked: int
):
    """Batches through an in-process windowed engine.

    Returns each key's final hull, and the relative error of every
    key's window hull against the exact hull of the records it covers,
    taken every ``check_every`` batches from ``first_checked`` on.
    """
    from repro.core import AdaptiveHull
    from repro.engine import StreamEngine
    from repro.window import WindowConfig

    engine = StreamEngine(
        lambda: AdaptiveHull(spec.r), window=WindowConfig(last_n=spec.last_n)
    )
    history: Dict[str, list] = {}
    errors: List[float] = []
    for j, (k, p) in enumerate(zip(keys, points)):
        engine.ingest_arrays(k, p)
        for key in np.unique(k).tolist():
            history.setdefault(key, []).append(p[k == key])
        if j >= first_checked and (j - first_checked) % spec.check_every == spec.check_every - 1:
            streams, hulls = {}, {}
            for key in engine.keys():
                window = engine.get(key)
                pts = np.concatenate(history[key])
                history[key] = [pts]
                # Live records are exactly the latest covered_count.
                streams[key] = pts[-window.covered_count:]
                hulls[key] = window.hull()
            errors.extend(rel_errors(streams, hulls))
    return {k: engine.hull(k) for k in engine.keys()}, errors


def reference(spec: ServedSpec, inputs: Inputs, first_timed: int):
    """The same per-key batches through in-process windowed engines.

    Connection ``c``'s batches hold exactly its half of the keys, so
    the halves replay independently.  They run in this process, one
    after the other: a process pool would leave ``multiprocessing``'s
    resource tracker running after the benchmark exits.  Returns the
    final hulls and the pooled window errors of the timed phase.
    """
    c = spec.connections
    hulls, errors = {}, []
    for i in range(c):
        h, e = reference_part(
            spec, inputs.keys[i::c], inputs.points[i::c], -(-(first_timed - i) // c)
        )
        hulls.update(h)
        errors.extend(e)
    return hulls, errors


def run(spec: ServedSpec, seed: int, seconds: float, trace: bool, env: dict, out_dir) -> Outcome:
    timed = int(round(seconds * spec.rate / spec.batch))
    sizes = batch_sizes(spec, timed)
    total = len(sizes)
    inputs = make_inputs(spec, sizes, seed)
    server = Server(spec, env, out_dir)
    try:
        setups = []
        for i in range(spec.setups):
            setups.append(server.start())
            if i + 1 < spec.setups:
                server.stop()
        report(f"set-up: {', '.join(f'{s:.3f}' for s in setups)} s (spawn to port reachable)")
        phase, scrapes, hulls, stats = asyncio.run(
            drive(spec, server.port, inputs, trace, timed)
        )
    finally:
        server.stop()

    failures = []
    sent = sum(sizes)
    if stats.get("ingested_records") != sent or stats.get("rejected"):
        failures.append(f"/v1/stats counts {stats.get('ingested_records')} records "
                        f"(rejected {stats.get('rejected')}), sent {sent}")
    if stats.get("keys") != spec.keys:
        failures.append(f"/v1/stats counts {stats.get('keys')} keys, expected {spec.keys}")
    expected, errors = reference(spec, inputs, total - timed)
    mismatched = [k for k in expected if hulls.get(k) != expected[k]]
    if mismatched or set(hulls) != set(expected):
        failures.append(f"served hulls differ from the in-process window on {mismatched}")
    report(f"gate: {len(expected)} served hulls vs in-process StreamEngine(window=last_n"
           f"={spec.last_n}): {'ok' if not mismatched else 'FAILED'}; /v1/stats "
           f"{stats.get('ingested_records')} records")
    err, err_max = mean_and_max(errors)

    attempted, failed = phase.attempted, phase.failed
    check_saturation(spec, phase)
    per_layer: Dict[str, float] = {}
    end_to_end: Dict[str, float] = {}
    if trace:
        per_layer = layer_split(spec, phase, scrapes)
    else:
        ingest = tail_summary(phase.ingest, 0.95)
        reads = tail_summary(phase.reads, 0.95)
        queries = highest_tail(phase.queries)
        report(ingest.describe("ingest batch (from due time)"))
        report(reads.describe("hull read (from due time)"))
        report(queries.describe("keys query (from due time)"))
        end_to_end = {
            "setup_s": statistics.median(setups),
            "ingest_rps": phase.rate(spec.batch),
            "ingest_p50_ms": ingest.median * 1e3,
            "ingest_p95_ms": ingest.tail * 1e3,
            "query_p50_ms": queries.median * 1e3,
            "read_p50_ms": reads.median * 1e3,
            "read_p95_ms": reads.tail * 1e3,
            "ok_frac": 1.0 - failed / attempted,
            "mean_err_rel": err,
        }
    report(f"relative hull error over {len(errors)} window checks: mean {err:.6g}, max {err_max:.6g}")
    if failed:
        failures.append(f"{failed} of {attempted} requests failed")
    return Outcome(not failures, attempted, failed, end_to_end, per_layer, failures)


#: Layers the served workload cannot see from outside the server.
IDLE_SERVED = (
    "core.insert_many_s", "core.insert_many_calls", "core.points_seen",
    "core.points_processed", "core.survivor_frac", "core.hull_changes",
    "core.nodes_visited", "core.ring_discards", "core.sample_points",
    "geometry.convex_hull_s", "geometry.convex_hull_calls",
    "engine.self_s", "engine.groups_per_batch",
    "queries.merged_summary_s", "queries.fold_s",
)


def layer_split(spec: ServedSpec, phase: Phase, scrapes: List[str]) -> Dict[str, float]:
    """Per-layer metrics from the difference of the two scrapes around
    the timed phase plus the client's own request timings.

    The workers' engine-tier batch histogram is merged over workers, so
    worker apply time is reported per worker (the workers run in
    parallel) and pipe wait is the parent's collect time beyond it.
    """
    before, after = (parse_prom(s) for s in scrapes)
    d = prom_delta(before, after)
    nb = phase.batches

    def hist_mean(name, **labels):
        count = prom_sum(d, name + "_count", **labels)
        return prom_sum(d, name + "_sum", **labels) / count if count else 0.0

    partition = prom_sum(d, "repro_shard_partition_seconds_sum") / nb
    send = prom_sum(d, "repro_shard_send_seconds_sum") / nb
    collect = prom_sum(d, "repro_shard_collect_seconds_sum") / nb
    apply_s = prom_sum(d, "repro_ingest_batch_seconds_sum", tier="engine") / nb / spec.workers
    streams = list(prom_values(after, "repro_shard_streams", "shard").values())
    ingest_server = hist_mean("repro_gateway_request_seconds", verb="ingest")
    client_service = statistics.mean(phase.ingest_service)
    queue_wait = hist_mean("repro_serve_queue_wait_seconds")
    timed_s = phase.last_done - phase.first_due
    metrics = dict.fromkeys(IDLE_SERVED, 0.0)
    metrics.update({
        "engine.ingest_arrays_s": apply_s,
        "window.bucket_seals": prom_sum(d, "repro_window_bucket_seals_total"),
        "window.bucket_merges": prom_sum(d, "repro_window_bucket_merges_total"),
        "window.bucket_expiries": prom_sum(d, "repro_window_bucket_expiries_total"),
        "shard.partition_s": partition,
        "shard.send_s": send,
        "shard.collect_s": collect,
        "shard.worker_apply_s": apply_s,
        "shard.pipe_wait_s": collect - apply_s,
        "shard.bytes_sent": prom_sum(d, "repro_transport_bytes_total", dir="send") / nb,
        "shard.bytes_recv": prom_sum(d, "repro_transport_bytes_total", dir="recv") / nb,
        "shard.streams_skew": max(streams) / statistics.mean(streams) if streams else 0.0,
        "serve.queue_wait_s": queue_wait,
        "serve.coalesced_records_mean": hist_mean("repro_serve_coalesced_records"),
        "serve.engine_calls": prom_sum(d, "repro_serve_coalesced_records_count"),
        "gateway.ingest_server_s": ingest_server,
        "gateway.hull_server_s": hist_mean("repro_gateway_request_seconds", verb="hull"),
        "gateway.client_overhead_ms": (client_service - ingest_server) * 1e3,
        "gateway.ingest_bytes": prom_sum(d, "repro_gateway_ingest_bytes_total") / nb,
        "trace.ingest_rps": phase.rate(spec.batch),
        "trace.overhead_frac": phase.scrape_s / timed_s,
    })
    report(f"traced phase: {nb} batches, ingest p50 {statistics.median(phase.ingest) * 1e3:.2f} ms; "
           f"scrapes took {phase.scrape_s * 1e3:.1f} ms outside the {timed_s:.1f} s phase")
    report(f"per batch: gateway server {ingest_server * 1e3:.2f} ms (client sees "
           f"{client_service * 1e3:.2f}), queue wait {queue_wait * 1e3:.2f} ms, "
           f"partition {partition * 1e3:.2f}, send {send * 1e3:.2f}, collect "
           f"{collect * 1e3:.2f} of which worker apply {apply_s * 1e3:.2f} ms per worker")
    return metrics
