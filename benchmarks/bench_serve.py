"""Serving front door vs direct synchronous engine calls.

Measures the cost of the asyncio layer on the monitoring access
pattern: batched keyed ingest with periodic global hull queries.
Two paths over the identical drifting-cluster workload and the same
in-process engine configuration:

* **direct** — synchronous ``StreamEngine.ingest_arrays`` +
  ``merged_hull`` calls;
* **facade** — through :class:`~repro.serve.AsyncHullService`
  (bounded queue, batch coalescing, single engine thread).

The network front door on top of the facade is measured by
``bench_gateway.py``.  The recorded JSON carries ingest rates and mean
global-query latency per path plus the facade overhead ratio.  No
machine-dependent assertion (1-CPU CI containers): the enforced
property is the acceptance criterion — **bit-identical** global hulls
on both paths.  Coalescing typically makes the facade's *engine* batch
count lower than the producer's put count; that is recorded too.

The multi-producer section feeds the same workload through N
concurrent producer tasks (``--clients N`` from the command line,
``REPRO_BENCH_CLIENTS`` under pytest) — one shared service queue,
interleaved ingests — and records the aggregate rate next to the
single-producer one, still gated on the parity property (every
producer's slice lands, global hull identical to the direct run).
"""

import asyncio
import os
import time

import numpy as np
from _util import banner, smoke, write_json, write_report

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.serve import AsyncHullService
from repro.streams import drifting_clusters_stream

N = 5_000 if smoke() else 100_000
KEYS = 32
R = 32
BATCH = 2_000
QUERIES = 5 if smoke() else 25
CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "4"))


def _workload():
    pts = drifting_clusters_stream(N, n_clusters=4, drift=0.1, seed=9)
    keys = np.array([f"stream-{i:03d}" for i in range(KEYS)])[
        np.random.default_rng(9).integers(0, KEYS, N)
    ]
    return keys, pts


#: Single-producer baselines memoised across the two tests (both need
#: the direct/facade results for their parity gates; the workload is
#: deterministic, so rerunning them would only double the wall time).
_BASELINES: dict = {}


def _baseline(name, fn):
    if name not in _BASELINES:
        _BASELINES[name] = fn()
    return _BASELINES[name]


def _engine():
    return StreamEngine(lambda: AdaptiveHull(R))


def _run_direct(keys, pts):
    with _engine() as engine:
        t0 = time.perf_counter()
        for s in range(0, N, BATCH):
            engine.ingest_arrays(keys[s : s + BATCH], pts[s : s + BATCH])
        rate = N / (time.perf_counter() - t0)
        q0 = time.perf_counter()
        for _ in range(QUERIES):
            hull = engine.merged_hull()
        latency = (time.perf_counter() - q0) / QUERIES
        return rate, latency, hull, engine.stats().batches_ingested


async def _run_facade(keys, pts):
    engine = _engine()
    async with AsyncHullService(engine, own_engine=True) as service:
        t0 = time.perf_counter()
        for s in range(0, N, BATCH):
            await service.ingest_arrays(keys[s : s + BATCH], pts[s : s + BATCH])
        await service.flush()
        rate = N / (time.perf_counter() - t0)
        q0 = time.perf_counter()
        for _ in range(QUERIES):
            hull = await service.merged_hull()
        latency = (time.perf_counter() - q0) / QUERIES
        stats = await service.stats()
        return rate, latency, hull, stats.batches_ingested


async def _run_facade_multi(keys, pts, n_producers):
    """N concurrent producers splitting the same workload.

    Each producer owns an interleaved slice of the batch sequence; the
    single service queue coalesces across producers.  Returns the
    aggregate rate, the final global hull (for the parity gate) and
    the record count the engine saw."""
    engine = _engine()
    async with AsyncHullService(engine, own_engine=True) as service:
        starts = list(range(0, N, BATCH))

        async def one_producer(my_starts):
            for s in my_starts:
                await service.ingest_arrays(
                    keys[s : s + BATCH], pts[s : s + BATCH]
                )

        t0 = time.perf_counter()
        await asyncio.gather(
            *(one_producer(starts[i::n_producers]) for i in range(n_producers))
        )
        await service.flush()
        rate = N / (time.perf_counter() - t0)
        hull = await service.merged_hull()
        stats = await service.stats()
        return rate, hull, stats.points_ingested


def test_serve_multi_client():
    keys, pts = _workload()
    _, _, d_hull, _ = _baseline("direct", lambda: _run_direct(keys, pts))
    f_rate, _, _, _ = _baseline(
        "facade", lambda: asyncio.run(_run_facade(keys, pts))
    )
    m_rate, m_hull, m_points = asyncio.run(
        _run_facade_multi(keys, pts, CLIENTS)
    )
    # Parity gate: concurrent producers interleave batches, but every
    # record lands and per-key order is preserved per producer slice —
    # the canonical-key-order global fold must match exactly.
    assert m_points == N, f"multi-producer run lost records: {m_points}/{N}"
    assert m_hull == d_hull, "multi-producer hull diverged"

    lines = [
        f"{'path':>22} {'ingest rate':>16}",
        f"{'facade x1 producer':>22} {f_rate:>12,.0f} r/s",
        f"{f'facade x{CLIENTS} producers':>22} {m_rate:>12,.0f} r/s",
        "",
        f"aggregate speedup : {m_rate / f_rate:.2f}x "
        f"({CLIENTS} concurrent producers, one engine thread)",
        "parity            : bit-identical global hull, no lost records",
    ]
    report = banner(
        f"Multi-producer serving, {N:,} records / {CLIENTS} producers",
        "\n".join(lines),
    )
    write_report("serve_multiclient", report)
    write_json(
        "serve_multiclient",
        {
            "benchmark": "serve_multiclient",
            "n": N,
            "keys": KEYS,
            "r": R,
            "batch": BATCH,
            "clients": CLIENTS,
            "smoke": smoke(),
            "facade_single_rate_records_per_sec": f_rate,
            "facade_multi_rate_records_per_sec": m_rate,
            "multi_over_single": m_rate / f_rate,
            "parity_bit_identical": True,
        },
    )
    print("\n" + report)


def test_serve_facade_vs_direct():
    keys, pts = _workload()
    d_rate, d_lat, d_hull, d_batches = _baseline(
        "direct", lambda: _run_direct(keys, pts)
    )
    f_rate, f_lat, f_hull, f_batches = _baseline(
        "facade", lambda: asyncio.run(_run_facade(keys, pts))
    )

    # The acceptance property: identical answers through both paths.
    assert f_hull == d_hull, "async facade result diverged from direct"

    lines = [
        f"{'path':>14} {'ingest rate':>16} {'query latency':>15}",
        f"{'direct sync':>14} {d_rate:>12,.0f} r/s {d_lat * 1e3:>11.2f} ms",
        f"{'async facade':>14} {f_rate:>12,.0f} r/s {f_lat * 1e3:>11.2f} ms",
        "",
        f"facade overhead : {d_rate / f_rate:.2f}x ingest, "
        f"{f_lat / d_lat:.2f}x query latency",
        f"engine batches  : direct {d_batches}, facade {f_batches} "
        "(coalescing)",
        "parity          : bit-identical global hulls on both paths",
    ]
    report = banner(
        f"Async serving, {N:,} records / {KEYS} keys / batch {BATCH}", "\n".join(lines)
    )
    write_report("serve", report)
    write_json(
        "serve",
        {
            "benchmark": "serve",
            "n": N,
            "keys": KEYS,
            "r": R,
            "batch": BATCH,
            "queries": QUERIES,
            "smoke": smoke(),
            "direct_rate_records_per_sec": d_rate,
            "facade_rate_records_per_sec": f_rate,
            "direct_query_latency_sec": d_lat,
            "facade_query_latency_sec": f_lat,
            "facade_ingest_overhead": d_rate / f_rate,
            "direct_engine_batches": d_batches,
            "facade_engine_batches": f_batches,
            "parity_bit_identical": True,
        },
    )
    print("\n" + report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--clients", type=int, default=CLIENTS,
        help="concurrent producers for the multi-producer section",
    )
    cli_args = parser.parse_args()
    if cli_args.clients < 1:
        raise SystemExit("bench_serve: --clients must be >= 1")
    CLIENTS = cli_args.clients
    test_serve_facade_vs_direct()
    test_serve_multi_client()
