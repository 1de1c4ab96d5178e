"""Sharded ingestion: wire throughput, worker scaling, query latency.

Three measurements around :class:`~repro.shard.ShardedEngine`:

* **Wire throughput** — a :class:`~repro.shard.transport.FramePipe`
  pair driven in-process with a reader thread, one request/reply per
  10^5-record batch.  This isolates the IPC cost of the zero-copy frame
  protocol, which writes the array memory straight to the pipe.
* **Worker scaling** — 1/2/4 workers, with the parent-side cost split
  (``partition_s`` routing/slicing vs ``send_s`` wire writes vs
  ``collect_s`` waiting on acks) recorded per worker count in the JSON.
  The >= 2x-at-4-workers assertion only makes sense with >= 4 usable
  cores; on smaller machines (and under REPRO_SMOKE=1) the series is
  still recorded but the machine-dependent gate is skipped (CI wires
  the gate through a multi-core job).
* **Global query latency** — ``merged_summary`` on a 256-key ring with
  worker-push partials (warm) vs the cold tree-reduce
  (``worker_push=False``): the warm path fetches one cached
  shard-level partial per worker instead of folding every key on the
  query path.

``REPRO_SHARD_N`` overrides the record count (the CI gate job uses it
to right-size the workload for runner speed).
"""

import os
import threading
import time

import numpy as np
import pytest
from _util import banner, smoke, write_json, write_report

from repro.shard import ShardedEngine, SummarySpec
from repro.shard.transport import FramePipe

N = int(
    os.environ.get("REPRO_SHARD_N") or (50_000 if smoke() else 1_000_000)
)
KEYS = 256
R = 32
BATCH = 100_000
WORKER_COUNTS = (1, 2, 4)
PROBE_KEYS = 8  # per-run correctness probes


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-100.0, 100.0, (KEYS, 2))
    idx = rng.integers(0, KEYS, N)
    keys = np.arange(KEYS, dtype=np.int64)[idx]
    pts = centers[idx] + rng.normal(0.0, 2.0, (N, 2))
    return keys, pts


# -- wire microbenchmark -------------------------------------------------


def _wire_rate(keys: np.ndarray, pts: np.ndarray) -> dict:
    """Records/sec through one pipe pair for ingest-shaped messages,
    request/reply per batch (the shard protocol's discipline)."""
    import multiprocessing

    a, b = multiprocessing.Pipe()
    parent, worker = FramePipe(a), FramePipe(b)
    batches = [
        ("ingest_arrays", keys[s : s + BATCH], pts[s : s + BATCH], None)
        for s in range(0, len(pts), BATCH)
    ]

    def serve():
        for _ in batches:
            msg = worker.recv()
            worker.send(("ok", len(msg[1])))

    t = threading.Thread(target=serve)
    bytes_per_rec = keys.itemsize + pts.itemsize * 2
    t.start()
    t0 = time.perf_counter()
    total = 0
    for msg in batches:
        parent.send(msg)
        status, n = parent.recv()
        assert status == "ok"
        total += n
    elapsed = time.perf_counter() - t0
    t.join(timeout=30)
    parent.close()
    worker.close()
    assert total == len(pts)
    return {
        "records_per_sec": total / elapsed,
        "mb_per_sec": total * bytes_per_rec / elapsed / 1e6,
    }


# -- end-to-end runs -----------------------------------------------------


def _run(workers: int, keys, pts):
    spec = SummarySpec("AdaptiveHull", {"r": R})
    with ShardedEngine(spec, shards=workers) as engine:
        t0 = time.perf_counter()
        for s in range(0, len(pts), BATCH):
            engine.ingest_arrays(keys[s : s + BATCH], pts[s : s + BATCH])
        elapsed = time.perf_counter() - t0
        stats = engine.stats()
        assert stats.points_ingested == len(pts)
        assert stats.streams == len(np.unique(keys))
        probes = {int(k): engine.hull(int(k)) for k in range(PROBE_KEYS)}
        timings = dict(engine.timings)
    return len(pts) / elapsed, probes, timings


def _query_latency(keys, pts, worker_push: bool, reps: int = 20) -> float:
    """Median seconds per global ``merged_summary`` on a 256-key ring."""
    spec = SummarySpec("AdaptiveHull", {"r": R})
    with ShardedEngine(
        spec, shards=2, worker_push=worker_push
    ) as engine:
        n = min(len(pts), 200_000)
        for s in range(0, n, BATCH):
            engine.ingest_arrays(keys[s : s + BATCH], pts[s : s + BATCH])
        engine.merged_summary()  # warm the push ring's partials
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            engine.merged_summary()
            samples.append(time.perf_counter() - t0)
        if worker_push:
            assert engine.stats().partials_served >= reps
    return float(np.median(samples))


def test_shard_scaling(workload):
    keys, pts = workload
    cores = _cores()

    # 1) Wire throughput (no engine, pure IPC).
    wire = _wire_rate(keys, pts)

    # 2) Worker scaling, parent costs split out.
    rates, probes, timings = {}, {}, {}
    for w in WORKER_COUNTS:
        rates[w], probes[w], timings[w] = _run(w, keys, pts)
    for w in WORKER_COUNTS[1:]:
        assert probes[w] == probes[1], f"per-key hulls diverged at {w} workers"

    # 3) Global query latency: worker-push partials vs cold tree-reduce.
    latency = {
        "cold_s": _query_latency(keys, pts, worker_push=False),
        "warm_s": _query_latency(keys, pts, worker_push=True),
    }
    latency["speedup"] = latency["cold_s"] / latency["warm_s"]

    speedup = {w: rates[w] / rates[1] for w in WORKER_COUNTS}
    assertion_active = cores >= 4 and not smoke()

    lines = [
        f"wire throughput ({BATCH:,}-record request/reply): "
        f"{wire['records_per_sec']:,.0f} rec/s "
        f"({wire['mb_per_sec']:,.0f} MB/s)",
        "worker scaling (partition / send / collect):",
    ]
    for w in WORKER_COUNTS:
        tm = timings[w]
        lines.append(
            f"{w:>8} {rates[w]:>12,.0f} rec/s {speedup[w]:>7.2f}x  "
            f"{tm['partition_s']:.3f}s / {tm['send_s']:.3f}s / "
            f"{tm['collect_s']:.3f}s"
        )
    lines.append(
        f"merged_summary on {KEYS} keys: cold {latency['cold_s']*1e3:.2f} ms, "
        f"worker-push {latency['warm_s']*1e3:.2f} ms "
        f"({latency['speedup']:.1f}x)"
    )
    lines.append(
        f"cores: {cores}; 2x-at-4-workers assertion "
        f"{'ACTIVE' if assertion_active else 'skipped (needs >= 4 cores)'}"
    )
    report = banner(
        f"Sharded ingestion, {N:,} records / {KEYS} keys, r={R}",
        "\n".join(lines),
    )
    write_report("shard_scaling", report)
    write_json(
        "shard_scaling",
        {
            "benchmark": "shard_scaling",
            "n": N,
            "keys": KEYS,
            "r": R,
            "batch": BATCH,
            "cores": cores,
            "smoke": smoke(),
            "transport": "frames",
            "wire_throughput": wire,
            "rates_records_per_sec": {str(w): rates[w] for w in WORKER_COUNTS},
            "speedup_vs_1_worker": {str(w): speedup[w] for w in WORKER_COUNTS},
            "parent_timings_s": {str(w): timings[w] for w in WORKER_COUNTS},
            "merged_summary_latency": latency,
            "assertion_active": assertion_active,
        },
    )
    print("\n" + report)
    if not smoke():
        # Worker-push partials must cut global query latency.
        assert latency["warm_s"] < latency["cold_s"], (
            "worker-push partials did not reduce merged_summary latency"
        )
    if assertion_active:
        assert speedup[4] >= 2.0, (
            f"sharded scaling regressed: {speedup[4]:.2f}x < 2x at 4 workers"
        )
