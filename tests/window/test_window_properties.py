"""Property suite for the sliding-window layer (hypothesis).

On the acceptance stream shapes (disk, adversarial spiral, drifting
clusters) and random window parameters:

* the windowed hull's vertices are genuine *live* input points — the
  window never serves a point it has expired, and never overshoots the
  exact hull of the live window contents;
* the windowed hull stays within the Theorem 5.4-style bound of the
  exact live-window hull (constant-factor degradation through bucket
  merges: every discarded point was within its bucket's bound, and the
  view merge adds one more re-sampling);
* bucket count is logarithmic in the window, O(r * log n) space total —
  the reason this beats a keep-everything deque;
* time windows actually forget: a point older than
  ``horizon + horizon/4`` (the documented bucket-span slack) is never a
  hull vertex, however the buckets happened to coalesce;
* snapshot/restore round-trips bucket state exactly and the restored
  window keeps streaming identically.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveHull
from repro.experiments.metrics import hull_distance
from repro.geometry.hull import convex_hull
from repro.streams import (
    as_tuples,
    disk_stream,
    drifting_clusters_stream,
    spiral_stream,
)
from repro.streams.io import summary_from_state, summary_state
from repro.window import WindowedHullSummary

#: Constant-factor slack on the Theorem 5.4 bound after bucket + view
#: merges (matches benchmarks/bench_window.py).
BOUND_FACTOR = 4.0


def _make_stream(kind, n, seed):
    if kind == "disk":
        return disk_stream(n, seed=seed)
    if kind == "spiral":
        return spiral_stream(n, seed=seed)
    return drifting_clusters_stream(n, drift=0.2, seed=seed)


stream_params = st.tuples(
    st.sampled_from(["disk", "spiral", "drifting"]),
    st.integers(min_value=50, max_value=1500),
    st.integers(min_value=0, max_value=2**16),
)
window_params = st.tuples(
    st.integers(min_value=20, max_value=400),   # last_n
    st.integers(min_value=4, max_value=64),     # head_capacity
    st.integers(min_value=1, max_value=3),      # level_width
)
r_values = st.sampled_from([16, 32])


def _build(params, window, r):
    pts = list(as_tuples(_make_stream(*params)))
    last_n, head_capacity, level_width = window
    w = WindowedHullSummary(
        lambda: AdaptiveHull(r),
        last_n=last_n,
        head_capacity=head_capacity,
        level_width=level_width,
    )
    w.insert_many(pts)
    return w, pts


@settings(max_examples=25, deadline=None)
@given(stream_params, window_params, r_values)
def test_windowed_hull_inside_exact_window_hull(params, window, r):
    """Every windowed hull vertex is a live input point, hence inside
    the exact hull of the live window contents."""
    w, pts = _build(params, window, r)
    live = pts[-w.covered_count :]
    assert len(live) == w.covered_count
    live_set = set(live)
    for v in w.hull():
        assert v in live_set
    # Coverage sits between the target and target + slack.
    n = min(len(pts), window[0])
    assert n <= w.covered_count <= len(pts)
    if len(pts) > window[0] + max(window[1], window[0] // 4):
        assert w.covered_count <= window[0] + max(window[1], window[0] // 4)


@settings(max_examples=25, deadline=None)
@given(stream_params, window_params, r_values)
def test_window_error_bound(params, window, r):
    """Theorem 5.4-style bound against the exact live-window hull."""
    w, pts = _build(params, window, r)
    exact = convex_hull(pts[-w.covered_count :])
    view = w.merged_view()
    err = hull_distance(exact, view.hull())
    bound = BOUND_FACTOR * 16.0 * math.pi * view.perimeter / (r * r)
    assert err <= bound + 1e-9


@settings(max_examples=25, deadline=None)
@given(stream_params, window_params, r_values)
def test_bucket_count_logarithmic(params, window, r):
    """Space: bucket count O(level_width * log(covered / head_capacity)),
    plus the bounded tail of cap-blocked buckets — never linear."""
    w, _ = _build(params, window, r)
    last_n, cap, width = window
    count_cap = max(cap, last_n // 4)
    bound = (
        width * (math.log2(max(2.0, (last_n + count_cap) / cap)) + 2)
        + 2 * w.covered_count / count_cap
        + 4
    )
    assert w.bucket_count <= bound
    # Total sample storage is O(r) per bucket.
    assert w.sample_size <= (2 * r + 1) * max(1, w.bucket_count)


@settings(max_examples=20, deadline=None)
@given(
    stream_params,
    st.floats(min_value=5.0, max_value=50.0),
    st.integers(min_value=4, max_value=64),
    st.integers(min_value=0, max_value=2**16),
)
def test_time_expiry_actually_forgets(params, horizon, head_capacity, salt):
    """A point older than horizon + span-cap slack never appears as a
    hull vertex, no matter how buckets coalesced around it."""
    pts = list(as_tuples(_make_stream(*params)))
    rng = np.random.default_rng(salt)
    outlier_at = int(rng.integers(0, max(1, len(pts) // 2)))
    outlier = (1e7, 1e7)
    w = WindowedHullSummary(
        lambda: AdaptiveHull(16),
        horizon=horizon,
        head_capacity=head_capacity,
    )
    span = float(rng.uniform(2.0, 4.0)) * horizon / len(pts)
    stale_after = horizon + horizon / 4.0
    outlier_ts = None
    for i, p in enumerate(pts):
        ts = i * span
        if i == outlier_at:
            outlier_ts = ts
            w.insert(outlier, ts=ts)
        w.insert(p, ts=ts)
        if outlier_ts is not None and ts > outlier_ts + stale_after:
            assert outlier not in w.hull(), (
                f"stale outlier served at age {ts - outlier_ts} "
                f"(horizon {horizon})"
            )
    w.advance_time(outlier_ts + stale_after + 1e-6)
    assert outlier not in w.hull()
    assert outlier not in w.samples()


@settings(max_examples=15, deadline=None)
@given(stream_params, window_params, r_values)
def test_snapshot_roundtrip_streams_identically(params, window, r):
    """Restore reproduces buckets/counters exactly and the restored
    window continues under the identical policy."""
    w, pts = _build(params, window, r)
    restored = summary_from_state(summary_state(w))
    assert restored.hull() == w.hull()
    assert restored.buckets() == w.buckets()
    assert restored.covered_count == w.covered_count
    extra = list(as_tuples(disk_stream(200, seed=1)))
    w.insert_many(extra)
    restored.insert_many(extra)
    assert restored.hull() == w.hull()
    assert restored.buckets() == w.buckets()
    assert restored.points_seen == w.points_seen


@pytest.mark.parametrize("kind", ["disk", "spiral", "drifting"])
def test_acceptance_parity_per_shape(kind):
    """Non-hypothesis acceptance anchor: on each required shape the
    windowed queries match an exact recompute over the live window
    within the scheme's bound."""
    pts = list(as_tuples(_make_stream(kind, 4000, 7)))
    r = 32
    w = WindowedHullSummary(lambda: AdaptiveHull(r), last_n=1000)
    w.insert_many(pts)
    exact = convex_hull(pts[-w.covered_count :])
    view = w.merged_view()
    err = hull_distance(exact, view.hull())
    assert err <= BOUND_FACTOR * 16.0 * math.pi * view.perimeter / (r * r)
