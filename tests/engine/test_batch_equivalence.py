"""Batch/sequential equivalence: insert_many == point-by-point insert.

The batch fast path (``repro.core.batch``) must be *undetectable* from
the outside: for every summary scheme, every workload shape (including
the adversarial spiral that maximises hull churn and the grid stream
full of exact ties), and every chunk size, ``insert_many`` must yield
the identical hull, identical samples, and identical operation
counters as the sequential loop.

Counter semantics under bulk classification: the vectorised survivor
hooks (``consume_survivors``) may discharge a run of non-mutating rows
without executing the per-point walk, but the counters still describe
the *sequential* execution — each bulk-discharged row advances
``points_seen``/``points_processed`` exactly as its scalar fate would
have, and ``nodes_visited`` is reconstructed arithmetically as
``rows x live-node count`` (the walk sequential insert would have
done, node for node).  ``generation`` is deliberately *outside* the
contract: it counts cache rebuilds, and deferring a rebuild the
sequential path would have performed eagerly is exactly the kind of
internal freedom the batch path is allowed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DudleyKernelHull,
    ExactHull,
    PartiallyAdaptiveHull,
    RadialHistogramHull,
    RandomSampleHull,
)
from repro.core import AdaptiveHull, FixedSizeAdaptiveHull, UniformHull
from repro.streams import (
    as_tuples,
    clusters_stream,
    disk_stream,
    ellipse_stream,
    spiral_stream,
    square_stream,
)

COUNTERS = (
    "points_seen",
    "points_processed",
    "refinements",
    "unrefinements",
    "nodes_visited",
    "ring_discards",
    "swaps",
)

#: The schemes whose insert_many is repro.core.batch's prefiltered driver.
PREFILTERED_SCHEMES = [
    pytest.param(lambda: UniformHull(8), id="uniform-8"),
    pytest.param(lambda: UniformHull(32), id="uniform-32"),
    pytest.param(lambda: AdaptiveHull(8), id="adaptive-8"),
    pytest.param(lambda: AdaptiveHull(16, queue_mode="exact"), id="adaptive-exact"),
    pytest.param(lambda: AdaptiveHull(16, ring_discard=True), id="adaptive-ring"),
    pytest.param(lambda: AdaptiveHull(16, height_limit=0), id="adaptive-k0"),
    pytest.param(lambda: AdaptiveHull(32), id="adaptive-32"),
    pytest.param(
        lambda: AdaptiveHull(16, ring_discard=True, queue_mode="exact"),
        id="adaptive-ring-exact",
    ),
    pytest.param(lambda: FixedSizeAdaptiveHull(8), id="fixed-size"),
    pytest.param(lambda: FixedSizeAdaptiveHull(16), id="fixed-size-16"),
]

SCHEMES = PREFILTERED_SCHEMES + [
    pytest.param(lambda: ExactHull(), id="exact"),
    pytest.param(lambda: DudleyKernelHull(8), id="dudley"),
    pytest.param(lambda: PartiallyAdaptiveHull(8, train_size=200), id="partial"),
    pytest.param(lambda: RadialHistogramHull(8), id="radial"),
    pytest.param(lambda: RandomSampleHull(17, seed=5), id="reservoir"),
]


def _grid_stream(n, seed):
    """Integer grid points — exact duplicates and exact orientation ties,
    the worst case for any tolerance-based shortcut."""
    g = np.random.default_rng(seed)
    return g.integers(-5, 6, (n, 2)).astype(float)


def _churn_stream(n, seed):
    """Mostly-interior noise with periodic outward spikes at a rotating
    angle.  Every spike replaces several extrema mid-segment (the sample
    hull both grows toward the spike and sheds vertices elsewhere), so
    the batch driver's re-filter / hull-shrink certification logic fires
    over and over instead of once per chunk."""
    g = np.random.default_rng(seed)
    pts = g.normal(0.0, 0.2, (n, 2))
    idx = np.arange(0, n, 37)
    ang = 0.7 * idx
    rad = 1.0 + 0.01 * idx
    pts[idx, 0] = rad * np.cos(ang)
    pts[idx, 1] = rad * np.sin(ang)
    return pts


def _collinear_then_fan(n, seed):
    """A long exactly-collinear prefix (hulls of 1-2 vertices) before any
    2-D spread: exercises every vectorised path's degenerate-hull
    fallback, then the transition to a real polygon."""
    g = np.random.default_rng(seed)
    m = n // 2
    xs = g.uniform(-3.0, 3.0, m)
    line = np.stack([xs, 0.25 * xs], axis=1)
    fan = g.normal(0.0, 1.0, (n - m, 2))
    return np.concatenate([line, fan])


STREAMS = [
    pytest.param(lambda: disk_stream(1500, seed=1), id="disk"),
    pytest.param(lambda: ellipse_stream(1500, rotation=0.1, seed=2), id="ellipse"),
    pytest.param(lambda: square_stream(1500, rotation=0.15, seed=3), id="square"),
    pytest.param(lambda: spiral_stream(800, seed=4), id="spiral"),
    pytest.param(lambda: clusters_stream(1500, seed=5), id="clusters"),
    pytest.param(lambda: _grid_stream(1500, 6), id="grid-ties"),
    pytest.param(lambda: _churn_stream(1500, 7), id="extremum-churn"),
    pytest.param(lambda: _collinear_then_fan(1200, 8), id="collinear-fan"),
]


def _assert_equivalent(seq, bat):
    assert seq.hull() == bat.hull()
    assert seq.samples() == bat.samples()
    for attr in COUNTERS:
        assert getattr(seq, attr, None) == getattr(bat, attr, None), attr


@pytest.mark.parametrize("make_stream", STREAMS)
@pytest.mark.parametrize("factory", SCHEMES)
def test_insert_many_equals_sequential(factory, make_stream):
    arr = make_stream()
    seq = factory()
    for p in as_tuples(arr):
        seq.insert(p)
    bat = factory()
    changed = bat.insert_many(arr)
    _assert_equivalent(seq, bat)
    assert 0 <= changed <= len(arr)


@pytest.fixture
def mask_calls(monkeypatch):
    """Segment lengths of every vectorised prefilter call, in order."""
    from repro.core import batch as batch_mod

    seen = []
    orig = batch_mod.certain_inside_mask

    def spying(hull, xs, ys):
        seen.append(len(xs))
        return orig(hull, xs, ys)

    monkeypatch.setattr(batch_mod, "certain_inside_mask", spying)
    return seen


def test_tiny_chunk_bound_is_respected_after_refilters(mask_calls):
    """A hull-shrink re-filter must not balloon segments past the
    caller's chunk bound (the spiral forces constant hull change)."""
    h = AdaptiveHull(8)
    h.insert_many(clusters_stream(600, seed=8), chunk=10)
    assert mask_calls and max(mask_calls) <= 10


@pytest.mark.parametrize("chunk", [1, 3, 64, 100_000])
def test_chunk_size_is_invisible(chunk):
    arr = ellipse_stream(1200, rotation=0.07, seed=9)
    seq = AdaptiveHull(16)
    for p in as_tuples(arr):
        seq.insert(p)
    bat = AdaptiveHull(16)
    bat.insert_many(arr, chunk=chunk)
    _assert_equivalent(seq, bat)


def test_changed_count_matches_sequential():
    arr = disk_stream(2000, seed=11)
    seq = AdaptiveHull(16)
    seq_changed = sum(1 for p in as_tuples(arr) if seq.insert(p))
    bat = AdaptiveHull(16)
    assert bat.insert_many(arr) == seq_changed


def test_batches_can_be_split_arbitrarily():
    arr = disk_stream(3000, seed=12)
    whole = AdaptiveHull(16)
    whole.insert_many(arr)
    pieces = AdaptiveHull(16)
    cuts = [0, 1, 7, 500, 501, 2999, 3000]
    for lo, hi in zip(cuts, cuts[1:]):
        pieces.insert_many(arr[lo:hi])
    _assert_equivalent(whole, pieces)


def test_accepts_lists_tuples_and_generators():
    arr = disk_stream(300, seed=13)
    expected = UniformHull(8)
    expected.insert_many(arr)
    for form in (
        arr.tolist(),
        list(as_tuples(arr)),
        (tuple(row) for row in arr.tolist()),
    ):
        h = UniformHull(8)
        h.insert_many(form)
        _assert_equivalent(expected, h)


def test_empty_batch_is_a_noop():
    h = AdaptiveHull(8)
    assert h.insert_many([]) == 0
    assert h.insert_many(np.empty((0, 2))) == 0
    assert h.points_seen == 0
    assert h.hull() == []


def test_interleaved_batch_and_single_inserts():
    arr = ellipse_stream(1000, rotation=0.2, seed=14)
    seq = AdaptiveHull(16)
    for p in as_tuples(arr):
        seq.insert(p)
    mixed = AdaptiveHull(16)
    mixed.insert_many(arr[:400])
    for p in as_tuples(arr[400:600]):
        mixed.insert(p)
    mixed.insert_many(arr[600:])
    _assert_equivalent(seq, mixed)


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: UniformHull(16), id="uniform"),
        pytest.param(lambda: AdaptiveHull(16), id="adaptive"),
        pytest.param(
            lambda: AdaptiveHull(16, ring_discard=True), id="adaptive-ring"
        ),
        pytest.param(lambda: FixedSizeAdaptiveHull(8), id="fixed-size"),
    ],
)
def test_snapshot_restore_then_batch_matches_sequential(factory):
    """After restoring a snapshot (which stores pure-leaf trees as
    ``None``), ``insert_many`` must equal per-point ``insert`` on an
    identically restored twin — the restored summary's direction
    registry must be resynchronised before any bulk shortcut is
    trusted.  (Both runs start from the *restored* state: for the
    fixed-size scheme a restore itself is not perfectly transparent to
    later rebalance choices, batch or not.)"""
    from repro.streams.io import summary_from_state, summary_state

    arr = _churn_stream(1200, 21)
    first = factory()
    first.insert_many(arr[:600])
    snap = summary_state(first)
    seq = summary_from_state(snap)
    for p in as_tuples(arr[600:]):
        seq.insert(p)
    bat = summary_from_state(snap)
    bat.insert_many(arr[600:])
    _assert_equivalent(seq, bat)


_INTERLEAVE_SCHEMES = [
    lambda: UniformHull(8),
    lambda: AdaptiveHull(8),
    lambda: AdaptiveHull(8, ring_discard=True),
    lambda: AdaptiveHull(8, queue_mode="exact"),
    lambda: FixedSizeAdaptiveHull(8),
]

_INTERLEAVE_STREAMS = [
    lambda n, seed: disk_stream(n, seed=seed),
    lambda n, seed: spiral_stream(n, seed=seed),
    lambda n, seed: _grid_stream(n, seed),
    lambda n, seed: _churn_stream(n, seed),
    lambda n, seed: _collinear_then_fan(n, seed),
]


@settings(max_examples=30, deadline=None)
@given(
    scheme_i=st.integers(min_value=0, max_value=len(_INTERLEAVE_SCHEMES) - 1),
    stream_i=st.integers(min_value=0, max_value=len(_INTERLEAVE_STREAMS) - 1),
    seed=st.integers(min_value=0, max_value=99),
    n=st.integers(min_value=5, max_value=400),
    cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    singles=st.booleans(),
)
def test_adversarial_interleavings(scheme_i, stream_i, seed, n, cuts, singles):
    """Any segmentation of any stream through any mix of ``insert`` and
    ``insert_many`` is indistinguishable from the sequential run."""
    arr = np.asarray(_INTERLEAVE_STREAMS[stream_i](n, seed), dtype=float)
    factory = _INTERLEAVE_SCHEMES[scheme_i]
    seq = factory()
    for p in as_tuples(arr):
        seq.insert(p)
    bounds = sorted({min(c, n) for c in cuts} | {0, n})
    mixed = factory()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if singles and i % 2 == 1:
            for p in as_tuples(arr[lo:hi]):
                mixed.insert(p)
        else:
            mixed.insert_many(arr[lo:hi])
    _assert_equivalent(seq, mixed)


@pytest.mark.parametrize("warm", [0, 2000], ids=["fresh", "warm"])
@pytest.mark.parametrize("size", [15, 16, 17])
@pytest.mark.parametrize("factory", SCHEMES)
def test_short_batch_route_boundary(factory, size, warm):
    """Batches just under, at and over the sequential-route threshold
    (16 points) match the insert loop, on fresh and on warmed summaries,
    including the changed count."""
    arr = _churn_stream(warm + 3 * size, 23)
    seq = factory()
    bat = factory()
    for p in as_tuples(arr[:warm]):
        seq.insert(p)
    bat.insert_many(arr[:warm])
    for lo in range(warm, len(arr), size):
        group = arr[lo:lo + size]
        seq_changed = sum(1 for p in as_tuples(group) if seq.insert(p))
        assert bat.insert_many(group) == seq_changed
        _assert_equivalent(seq, bat)


def test_short_batch_route_honours_chunk():
    """chunk is still validated and invisible on the short route."""
    arr = _churn_stream(15, 24)
    seq = AdaptiveHull(8)
    for p in as_tuples(arr):
        seq.insert(p)
    bat = AdaptiveHull(8)
    bat.insert_many(arr, chunk=3)
    _assert_equivalent(seq, bat)
    with pytest.raises(ValueError, match="chunk"):
        bat.insert_many(arr, chunk=0)


@pytest.mark.parametrize("size,calls", [(15, False), (16, True)])
def test_short_batches_skip_the_prefilter(mask_calls, size, calls):
    """Under 16 points no vectorised mask is computed; from 16 on, the
    prefilter runs (on a hull that can certify points)."""
    h = AdaptiveHull(16)
    h.insert_many(disk_stream(2000, seed=25))
    mask_calls.clear()
    h.insert_many(disk_stream(size, seed=26))
    assert bool(mask_calls) is calls


@pytest.mark.parametrize("factory", PREFILTERED_SCHEMES)
def test_short_batch_validation_stays_atomic(factory):
    """A NaN anywhere in a short batch rejects the whole batch before
    any point is ingested."""
    h = factory()
    h.insert_many(disk_stream(200, seed=27))
    seen, hull, samples = h.points_seen, h.hull(), h.samples()
    bad = disk_stream(5, seed=28)
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="row 3"):
        h.insert_many(bad)
    assert h.points_seen == seen
    assert h.hull() == hull
    assert h.samples() == samples
