"""Batch-ingestion throughput: vectorised insert_many vs sequential extend.

The batch fast path pre-filters each chunk against the current sample
hull with one NumPy orientation sweep (``repro.core.batch``), so the
overwhelmingly-interior points of the paper's workloads never reach the
per-point code.  Measured here on the acceptance workload — a
10^5-point disk stream at r = 32 — for both core schemes, plus the
multi-stream engine's keyed routing throughput.

Expected shape: UniformHull gains the most (its per-point work is pure
fast-path), comfortably over 5.5x; AdaptiveHull — whose survivors are
now classified in bulk by its ``consume_survivors`` hook (dirty-tree
sync, batched ring discard, deferred rebuilds) — must clear 4x.  Both
floors are asserted in non-smoke runs, scaled by the
``REPRO_PERF_TOLERANCE`` env var so a slow shared CI runner can gate at
e.g. 0.8x the local floor without going blind to real regressions.

Each scheme's batched run is also split into stages — vectorised
prefilter, survivor processing, hull-cache rebuilds, and driver
bookkeeping — so a future regression shows *where* the time went, not
just that it went.

A many-key engine hands each summary only a few points per batch, so a
group-size sweep interleaves 8, 16, 32 and 64-point groups over 16
``AdaptiveHull(32)`` summaries — fresh, after 1,600 points and after
10^5 points.  Batches under 16 points take the sequential path inside
``insert_many``, so 8-point groups must run at >= 0.9x the insert loop
(the vectorised prefilter alone read 0.5-0.6x there); 64-point groups
on mature hulls must stay >= 2x, which fails if the short-batch route
ever swallows groups that the prefilter wins on.
"""

import copy
import os
import time

import numpy as np
import pytest
from _util import banner, smoke, write_json, write_report

import repro.core.batch as batch_mod

from repro.core import AdaptiveHull, UniformHull
from repro.engine import StreamEngine
from repro.streams import as_tuples, disk_stream

N = 20_000 if smoke() else 100_000
R = 32

#: Group-size sweep: summaries interleaved, points per summary per
#: phase, group sizes, and warm-up lengths ("hull ages").
SWEEP_KEYS = 16
SWEEP_POINTS = 400 if smoke() else 1_600
SWEEP_GROUPS = (8, 16, 32, 64)
SWEEP_AGES = (0, 1_600, 10_000 if smoke() else 100_000)
SWEEP_REPS = 5


@pytest.fixture(scope="module")
def stream():
    return disk_stream(N, seed=0)


def _sweep_age(age):
    """``{group: (sequential s, insert_many s)}`` for one hull age: each
    of SWEEP_KEYS summaries, warmed with ``age`` points, takes
    SWEEP_POINTS more in round-robin ``group``-point groups (best of
    SWEEP_REPS, the two loops alternating so host noise hits both)."""
    streams = [disk_stream(age + SWEEP_POINTS, seed=100 + k) for k in range(SWEEP_KEYS)]
    warm = []
    for s in streams:
        h = AdaptiveHull(R)
        h.insert_many(s[:age])
        warm.append(h)
    tails = [s[age:] for s in streams]
    tail_pts = [list(as_tuples(t)) for t in tails]
    seconds = {}
    for group in SWEEP_GROUPS:
        seq = bat = 1e9
        for _ in range(SWEEP_REPS):
            seq_hulls = copy.deepcopy(warm)
            t0 = time.perf_counter()
            for lo in range(0, SWEEP_POINTS, group):
                for h, pts in zip(seq_hulls, tail_pts):
                    for p in pts[lo:lo + group]:
                        h.insert(p)
            seq = min(seq, time.perf_counter() - t0)
            bat_hulls = copy.deepcopy(warm)
            t0 = time.perf_counter()
            for lo in range(0, SWEEP_POINTS, group):
                for h, t in zip(bat_hulls, tails):
                    h.insert_many(t[lo:lo + group])
            bat = min(bat, time.perf_counter() - t0)
            for a, b in zip(seq_hulls, bat_hulls):
                assert a.hull() == b.hull()
                assert a.points_processed == b.points_processed
        seconds[group] = (seq, bat)
    return seconds


@pytest.fixture(scope="module")
def group_sweep():
    """``{age: {group: (sequential s, insert_many s)}}``."""
    return {age: _sweep_age(age) for age in SWEEP_AGES}


def _measure(make, arr, pts):
    # The sequential baseline is an explicit insert() loop: extend() now
    # delegates to the batched insert_many, so it no longer measures the
    # per-point path.
    seq = 1e9
    bat = 1e9
    for _ in range(2):
        h1 = make()
        t0 = time.perf_counter()
        for p in pts:
            h1.insert(p)
        seq = min(seq, time.perf_counter() - t0)
        h2 = make()
        t0 = time.perf_counter()
        h2.insert_many(arr)
        bat = min(bat, time.perf_counter() - t0)
        assert h1.hull() == h2.hull()
        assert h1.points_processed == h2.points_processed
    return len(arr) / seq, len(arr) / bat


def _stage_split(make, arr):
    """One instrumented insert_many run, wall-time split by stage.

    Wraps the driver's vectorised prefilter, the summary's survivor
    path (``consume_survivors`` plus any direct ``insert``), and the
    hull-cache rebuild, accumulating exclusive times: rebuilds happen
    inside survivor processing, so their time is subtracted back out.
    The leftovers are the driver's own bookkeeping (masks aside).
    """
    h = make()
    times = {"prefilter": 0.0, "survivors": 0.0, "hull_rebuild": 0.0}
    depth = [0]

    orig_mask = batch_mod.certain_inside_mask

    def timed_mask(*a, **k):
        t0 = time.perf_counter()
        out = orig_mask(*a, **k)
        times["prefilter"] += time.perf_counter() - t0
        return out

    def survivor_stage(fn):
        # Outermost survivor-path call only: consume_survivors calls
        # insert internally, which must not be double-counted.
        def timed(*a, **k):
            if depth[0]:
                return fn(*a, **k)
            depth[0] = 1
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                times["survivors"] += time.perf_counter() - t0
                depth[0] = 0

        return timed

    rebuild_name = "_rebuild_hull" if hasattr(h, "_rebuild_hull") else "_rebuild"
    orig_rebuild = getattr(h, rebuild_name)

    def timed_rebuild(*a, **k):
        t0 = time.perf_counter()
        out = orig_rebuild(*a, **k)
        times["hull_rebuild"] += time.perf_counter() - t0
        return out

    batch_mod.certain_inside_mask = timed_mask
    h.insert = survivor_stage(h.insert)
    if hasattr(h, "consume_survivors"):
        h.consume_survivors = survivor_stage(h.consume_survivors)
    setattr(h, rebuild_name, timed_rebuild)
    try:
        t0 = time.perf_counter()
        h.insert_many(arr)
        total = time.perf_counter() - t0
    finally:
        batch_mod.certain_inside_mask = orig_mask
    times["survivors"] -= times["hull_rebuild"]
    times["driver_other"] = max(
        0.0, total - times["prefilter"] - times["survivors"] - times["hull_rebuild"]
    )
    times["total"] = total
    return times


def test_batch_vs_sequential_throughput(stream, group_sweep):
    """insert_many must beat a sequential insert loop >= 5.5x on the
    uniform hull and >= 4x on the adaptive hull (the acceptance
    workload), with a per-stage timing split recorded alongside; on
    short interleaved groups it must hold >= 0.9x at 8 points and >= 2x
    at 64 points on mature hulls."""
    pts = list(as_tuples(stream))
    lines = [f"{'scheme':>10} {'sequential':>14} {'batched':>14} {'speedup':>8}"]
    speedups = {}
    rates = {}
    stages = {}
    for cls in (UniformHull, AdaptiveHull):
        seq_rate, bat_rate = _measure(lambda: cls(R), stream, pts)
        speedups[cls.__name__] = bat_rate / seq_rate
        rates[cls.__name__] = {"sequential": seq_rate, "batched": bat_rate}
        stages[cls.__name__] = _stage_split(lambda: cls(R), stream)
        lines.append(
            f"{cls.name:>10} {seq_rate:>11,.0f} p/s {bat_rate:>11,.0f} p/s "
            f"{bat_rate / seq_rate:>7.1f}x"
        )
    lines.append("")
    lines.append(f"{'stage split':>10} {'prefilter':>10} {'survivors':>10} "
                 f"{'rebuild':>10} {'driver':>10}")
    for cls in (UniformHull, AdaptiveHull):
        s = stages[cls.__name__]
        total = s["total"] or 1.0
        lines.append(
            f"{cls.name:>10} "
            f"{100 * s['prefilter'] / total:>9.1f}% "
            f"{100 * s['survivors'] / total:>9.1f}% "
            f"{100 * s['hull_rebuild'] / total:>9.1f}% "
            f"{100 * s['driver_other'] / total:>9.1f}%"
        )
    lines.append("")
    lines.append(
        f"group sweep: insert_many / sequential speed, {SWEEP_KEYS} interleaved "
        f"AdaptiveHull({R}), {SWEEP_POINTS:,} points each"
    )
    lines.append(f"{'hull age':>10} " + " ".join(f"{f'{g} pts':>8}" for g in SWEEP_GROUPS))
    for age, cells in group_sweep.items():
        lines.append(
            f"{age:>10,} "
            + " ".join(f"{cells[g][0] / cells[g][1]:>7.2f}x" for g in SWEEP_GROUPS)
        )
    report = banner(
        f"Batch ingestion, {N:,}-point disk stream, r={R}", "\n".join(lines)
    )
    write_report("batch_ingest", report)
    write_json(
        "batch_ingest",
        {
            "benchmark": "batch_ingest",
            "n": N,
            "r": R,
            "workload": "disk",
            "rates_points_per_sec": rates,
            "speedups": speedups,
            "stage_split_seconds": stages,
            "group_sweep": {
                "keys": SWEEP_KEYS,
                "points_per_key": SWEEP_POINTS,
                "seconds_by_age": {
                    str(age): {
                        str(g): {"sequential": seq, "batched": bat}
                        for g, (seq, bat) in cells.items()
                    }
                    for age, cells in group_sweep.items()
                },
            },
        },
    )
    print("\n" + report)
    if not smoke():  # smoke mode: correctness only, no machine-dependent perf
        tol = float(os.environ.get("REPRO_PERF_TOLERANCE", "1.0"))
        assert speedups["UniformHull"] >= 5.5 * tol, (
            f"uniform batch fast path regressed: "
            f"{speedups['UniformHull']:.2f}x < {5.5 * tol:.2f}x"
        )
        assert speedups["AdaptiveHull"] >= 4.0 * tol, (
            f"adaptive survivor hot path regressed: "
            f"{speedups['AdaptiveHull']:.2f}x < {4.0 * tol:.2f}x"
        )
        # 8-point groups over all three ages together: on mature hulls
        # the batch-wide validation alone costs a few percent of the
        # cheap per-point discards, so a single cell sits near the floor.
        short = sum(c[8][0] for c in group_sweep.values()) / sum(
            c[8][1] for c in group_sweep.values()
        )
        assert short >= 0.9 * tol, (
            f"8-point groups regressed: {short:.2f}x < {0.9 * tol:.2f}x sequential"
        )
        seq, bat = group_sweep[SWEEP_AGES[-1]][64]
        mature = seq / bat
        assert mature >= 2.0 * tol, (
            f"64-point groups on mature hulls regressed: "
            f"{mature:.2f}x < {2.0 * tol:.2f}x sequential"
        )


def test_engine_routing_throughput(stream):
    """Keyed batch routing overhead stays small: the engine spreads the
    same stream over 100 keys and must hold a healthy records/sec."""
    keys = np.array([f"k{i % 100:03d}" for i in range(N)])
    engine = StreamEngine(lambda: AdaptiveHull(R))
    t0 = time.perf_counter()
    engine.ingest_arrays(keys, stream)
    elapsed = time.perf_counter() - t0
    rate = N / elapsed
    report = banner(
        "Engine keyed routing (100 keys)",
        f"{rate:,.0f} records/sec across {len(engine)} summaries",
    )
    write_report("batch_ingest_engine", report)
    write_json(
        "batch_ingest_engine",
        {
            "benchmark": "batch_ingest_engine",
            "n": N,
            "r": R,
            "keys": 100,
            "rate_records_per_sec": rate,
        },
    )
    print("\n" + report)
    assert len(engine) == 100
    assert engine.stats().points_ingested == N
