"""Sliding-window summaries vs. an exact recompute-from-deque baseline.

The acceptance workload streams drifting Gaussian clusters through a
count-based window (last 10^4 of 2*10^5 points, adaptive hulls at
r = 32) with a hull + diameter query after every 500-record batch —
the monitoring access pattern the window layer exists for.  The
baseline holds the same window in a ``collections.deque(maxlen=N)``
and recomputes the exact hull from scratch per query: O(N log N) per
query and O(N) memory, against the window's O(r log n) memory and
two-merge cached view.

The query cadence drives the contrast.  Ingestion alone favours the
deque (appending is free; the window pays bucket seals whose young
hulls process many points — measured ~2.6x windowed at one query per
500 records, ~0.7x at one per 2000 on a 1-CPU container), so the
recorded JSON carries both rates and the speedup rather than a
machine-dependent assertion.

Alongside throughput the benchmark records the bucket-count growth
curve (the exponential-histogram space guarantee: logarithmic in the
window, not linear) and the windowed hull's error against the exact
window hull, which must sit within the Theorem 5.4-style bound
(constant-factor degradation through the bucket merges).
"""

import math
import time
from collections import deque

import numpy as np
from _util import banner, smoke, write_json, write_report

from repro.core import AdaptiveHull
from repro.experiments.metrics import hull_distance
from repro.geometry.calipers import diameter as polygon_diameter
from repro.geometry.hull import convex_hull
from repro.queries import diameter
from repro.streams import drifting_clusters_stream
from repro.window import WindowedHullSummary

N = 5_000 if smoke() else 200_000
LAST_N = 1_000 if smoke() else 10_000
R = 32
BATCH = 500
#: Constant-factor slack on the Theorem 5.4 bound: bucket merges and
#: the view merge each degrade by at most a constant (see
#: tests/window/test_window_properties.py, which asserts the same).
BOUND_FACTOR = 4.0


def _workload():
    return drifting_clusters_stream(N, n_clusters=3, drift=0.2, seed=7)


def _run_windowed(pts):
    w = WindowedHullSummary(lambda: AdaptiveHull(R), last_n=LAST_N)
    buckets = []
    t0 = time.perf_counter()
    last_diam = 0.0
    for s in range(0, len(pts), BATCH):
        w.insert_many(pts[s : s + BATCH])
        if w.hull():
            last_diam = diameter(w)
        buckets.append(w.bucket_count)
    elapsed = time.perf_counter() - t0
    return w, elapsed, buckets, last_diam


def _run_exact(pts):
    window = deque(maxlen=LAST_N)
    t0 = time.perf_counter()
    hull = []
    last_diam = 0.0
    for s in range(0, len(pts), BATCH):
        window.extend(map(tuple, pts[s : s + BATCH]))
        hull = convex_hull(window)
        if hull:
            last_diam = polygon_diameter(hull)[0]
    elapsed = time.perf_counter() - t0
    return hull, elapsed, last_diam


def test_window_vs_exact_baseline():
    """Windowed ingest+query throughput, bucket growth, and error."""
    pts = _workload()
    w, w_elapsed, buckets, w_diam = _run_windowed(pts)
    exact_hull, e_elapsed, e_diam = _run_exact(pts)

    view = w.merged_view()
    err = hull_distance(exact_hull, view.hull())
    bound = BOUND_FACTOR * 16.0 * math.pi * view.perimeter / (R * R)
    assert err <= bound + 1e-9, f"window error {err} exceeds bound {bound}"
    assert w_diam <= e_diam + 1e-9  # samples are genuine window points
    # The space guarantee this subsystem exists for: logarithmic bucket
    # count, never the O(N / head_capacity) of unmerged buckets.
    cap = w.config.effective_head_capacity
    log_bound = w.config.level_width * (
        math.log2(max(2.0, LAST_N / cap)) + 2
    ) + 2 * w.covered_count / max(cap, LAST_N // 4) + 4
    assert max(buckets) <= log_bound, (max(buckets), log_bound)

    w_rate = N / w_elapsed
    e_rate = N / e_elapsed
    lines = [
        f"{'variant':>24} {'rate':>16} {'memory':>24}",
        f"{'windowed (r=32)':>24} {w_rate:>12,.0f} p/s "
        f"{w.sample_size:>5} samples / {w.bucket_count} buckets",
        f"{'exact deque recompute':>24} {e_rate:>12,.0f} p/s "
        f"{LAST_N:>5} points",
        "",
        f"speedup           : {w_rate / e_rate:.2f}x",
        f"bucket count      : max {max(buckets)}, final {w.bucket_count} "
        f"(log bound {log_bound:.1f})",
        f"window diameter   : windowed {w_diam:.4f} vs exact {e_diam:.4f}",
        f"hull error        : {err:.5f} (bound {bound:.5f})",
    ]
    report = banner(
        f"Sliding window, {N:,} drifting-cluster points, last_n={LAST_N:,}",
        "\n".join(lines),
    )
    write_report("window", report)
    write_json(
        "window",
        {
            "benchmark": "window",
            "n": N,
            "last_n": LAST_N,
            "r": R,
            "batch": BATCH,
            "smoke": smoke(),
            "windowed_rate_points_per_sec": w_rate,
            "exact_rate_points_per_sec": e_rate,
            "speedup_vs_exact": w_rate / e_rate,
            "bucket_count_max": max(buckets),
            "bucket_count_final": w.bucket_count,
            "bucket_count_series": buckets[:: max(1, len(buckets) // 50)],
            "bucket_log_bound": log_bound,
            "hull_error": err,
            "error_bound": bound,
            "diameter_windowed": w_diam,
            "diameter_exact": e_diam,
        },
    )
    print("\n" + report)


if __name__ == "__main__":
    test_window_vs_exact_baseline()
