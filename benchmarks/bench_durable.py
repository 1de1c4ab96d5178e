"""Durability overhead guard: the WAL must not tax the hot path.

The write-ahead log sits write-ahead of every ingest batch, so its cost
is one codec encode + one buffered append per batch (fsync policy
"batch" syncs once per append batch, not per record).  On the
acceptance workload — a 10^5-point keyed disk stream at r = 32,
5 000-record batches — a WAL-enabled engine must stay within 15% of
the bare engine's throughput, and recovery from the log it just wrote
must be bit-identical.
"""

import tempfile
import time
from pathlib import Path

import numpy as np
from _util import banner, paper_n, smoke, write_json, write_report

from repro.core import AdaptiveHull
from repro.durable import DurabilityConfig, recover_engine
from repro.engine import StreamEngine
from repro.streams import disk_stream

N = 2_000 if smoke() else paper_n(100_000)
R = 32
KEYS = 64
BATCH = 5_000
ROUNDS = 2 if smoke() else 4
MAX_OVERHEAD = 0.15


def _run_ingest(stream, keys, durability):
    engine = StreamEngine(lambda: AdaptiveHull(R), durability=durability)
    t0 = time.perf_counter()
    for start in range(0, N, BATCH):
        stop = min(start + BATCH, N)
        engine.ingest_arrays(keys[start:stop], stream[start:stop])
    elapsed = time.perf_counter() - t0
    return engine, elapsed


def test_wal_overhead_under_fifteen_percent():
    stream = disk_stream(N, seed=0)
    keys = np.array([f"k{i % KEYS:03d}" for i in range(N)])

    best = {True: 1e9, False: 1e9}
    hulls = {}
    wal_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(ROUNDS):
            for durable in (False, True):
                wal_dir = Path(tmp) / f"wal-{rnd}" if durable else None
                durability = (
                    DurabilityConfig(wal_dir, fsync="batch")
                    if durable
                    else None
                )
                engine, elapsed = _run_ingest(stream, keys, durability)
                best[durable] = min(best[durable], elapsed)
                hulls[durable] = engine.merged_hull()
                engine.close()
                if durable:
                    wal_bytes = sum(
                        p.stat().st_size for p in wal_dir.iterdir()
                    )

        # Durability is behaviour-free: identical hulls either way.
        assert hulls[True] == hulls[False]

        # And the log really is a full, bit-identical copy.
        last = Path(tmp) / f"wal-{ROUNDS - 1}"
        recovered = recover_engine(last)
        assert recovered.merged_hull() == hulls[True]
        assert recovered.points_ingested == N
        recovered.close()

    overhead = best[True] / best[False] - 1.0
    rate_on = N / best[True]
    rate_off = N / best[False]
    report = banner(
        f"WAL overhead, {N:,}-point disk stream, {KEYS} keys, r={R}",
        f"{'bare':>10} {rate_off:>12,.0f} p/s\n"
        f"{'durable':>10} {rate_on:>12,.0f} p/s\n"
        f"{'overhead':>10} {overhead:>11.2%}\n"
        f"{'wal size':>10} {wal_bytes:>12,} bytes",
    )
    write_report("bench_durable", report)
    write_json(
        "bench_durable",
        {
            "benchmark": "bench_durable",
            "n": N,
            "r": R,
            "keys": KEYS,
            "batch": BATCH,
            "fsync": "batch",
            "rate_durable_points_per_sec": rate_on,
            "rate_bare_points_per_sec": rate_off,
            "wal_bytes": wal_bytes,
            "overhead_fraction": overhead,
            "max_overhead_fraction": MAX_OVERHEAD,
        },
    )
    print("\n" + report)
    if not smoke():  # smoke mode: correctness only, no machine-dependent perf
        assert overhead < MAX_OVERHEAD, (
            f"WAL overhead {overhead:.2%} >= {MAX_OVERHEAD:.0%}"
        )
