"""Snapshot → JSON → restore → continue ≡ uninterrupted, for every
registered scheme; and every tier refuses a scheme it cannot restore.

Recovery, WAL compaction, ``resize()``, standby promotion and every
sharded read rest on the first property: a summary that takes a trip
through :func:`summary_state` / :func:`summary_from_state` at any cut
must go on streaming exactly as if the trip never happened — same hull,
same samples, same full ``state_dict()`` (counters and refinement
forest included), whether the rest of the stream arrives as one batch
or point by point.
"""

import json

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
from repro.engine import StreamEngine
from repro.shard import ShardedEngine
from repro.streams import (
    as_tuples,
    changing_ellipse_stream,
    disk_stream,
    ellipse_stream,
)
from repro.streams.io import (
    save_summary,
    scheme_registry,
    summary_from_state,
    summary_state,
)
from repro.window import WindowedHullSummary

SCHEMES = {
    "uniform-16": lambda: UniformHull(16),
    "adaptive-16": lambda: AdaptiveHull(16),
    "adaptive-16-exact": lambda: AdaptiveHull(16, queue_mode="exact"),
    "adaptive-16-ring": lambda: AdaptiveHull(16, ring_discard=True),
    "fixed-8": lambda: FixedSizeAdaptiveHull(8),
    "fixed-16": lambda: FixedSizeAdaptiveHull(16),
    "exact": ExactHull,
    "windowed-adaptive": lambda: WindowedHullSummary(
        lambda: AdaptiveHull(16), last_n=600
    ),
    "windowed-fixed": lambda: WindowedHullSummary(
        lambda: FixedSizeAdaptiveHull(8), last_n=600
    ),
}

BASELINES = {
    "DudleyKernelHull": lambda: DudleyKernelHull(16),
    "RadialHistogramHull": lambda: RadialHistogramHull(8),
    "RandomSampleHull": lambda: RandomSampleHull(10),
    "PartiallyAdaptiveHull": lambda: PartiallyAdaptiveHull(8, train_size=50),
}


def _stream(kind: str, n: int, seed: int) -> np.ndarray:
    if kind == "disk":
        return disk_stream(n, radius=10.0, seed=seed)
    if kind == "ellipse":
        return ellipse_stream(n, rotation=0.1, seed=seed)
    # Distribution shift: the fixed-size scheme re-aims its budget.
    return changing_ellipse_stream(n // 2, tilt=0.05, seed=seed)


def _doc(summary) -> dict:
    """The summary's full state, normalised through JSON."""
    return json.loads(json.dumps(summary.state_dict()))


def _feed(summary, pts: np.ndarray, batched: bool) -> None:
    if batched:
        summary.insert_many(pts)
    else:
        for p in as_tuples(pts):
            summary.insert(p)


def test_every_registered_scheme_is_covered():
    covered = {type(make()).__name__ for make in SCHEMES.values()}
    assert covered == set(scheme_registry())


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["disk", "ellipse", "shift"]),
    n=st.integers(min_value=40, max_value=1600),
    cut=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    batched=st.booleans(),
)
def test_restore_then_continue_matches_uninterrupted(
    name, kind, n, cut, seed, batched
):
    make = SCHEMES[name]
    pts = _stream(kind, n, seed)
    k = int(cut * len(pts))
    live = make()
    _feed(live, pts[:k], batched)
    doc = json.loads(json.dumps(summary_state(live)))
    restored = summary_from_state(doc)
    assert type(restored) is type(live)
    assert _doc(restored) == _doc(live)
    _feed(live, pts[k:], batched)
    _feed(restored, pts[k:], batched)
    assert restored.hull() == live.hull()
    assert restored.samples() == live.samples()
    assert _doc(restored) == _doc(live)


def _without_queue(doc: dict) -> dict:
    """The same snapshot as written before the queue was saved."""
    doc = json.loads(json.dumps(doc))
    del doc["state"]["queue"]
    return doc


def test_restored_fixed_size_holds_no_threshold_queue():
    """A live fixed-size summary never queues a node (budget mode), so
    neither does a restored one, whichever doc it comes from."""
    live = FixedSizeAdaptiveHull(8)
    live.insert_many(changing_ellipse_stream(500, seed=4))
    assert live.internal_node_count == live.budget
    assert len(live._queue) == 0
    doc = summary_state(live)
    for snapshot in (doc, _without_queue(doc)):
        restored = summary_from_state(snapshot)
        assert len(restored._queue) == 0
        assert _doc(restored) == _doc(live)


def test_doc_without_queue_still_restores_the_hull():
    """Docs written before the queue was saved keep loading: the queue
    is rebuilt from the forest, so hull and samples are exact."""
    live = AdaptiveHull(16)
    live.insert_many(disk_stream(800, seed=5))
    restored = summary_from_state(_without_queue(summary_state(live)))
    assert restored.hull() == live.hull()
    assert restored.samples() == live.samples()
    assert len(restored._queue) == live.internal_node_count


# -- refusal: schemes that do not restore exactly ------------------------


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_save_summary_refuses_unregistered_scheme(name, tmp_path):
    summary = BASELINES[name]()
    summary.insert_many(disk_stream(50, seed=1))
    with pytest.raises(TypeError, match=name):
        save_summary(summary, tmp_path / "s.json")
    assert not (tmp_path / "s.json").exists()


def test_baselines_are_not_registered():
    assert not set(BASELINES) & set(scheme_registry())


def test_stream_engine_refuses_unregistered_scheme():
    with pytest.raises(TypeError, match="RandomSampleHull"):
        StreamEngine(lambda: RandomSampleHull(10))


def test_sharded_engine_refuses_unregistered_scheme():
    with pytest.raises(TypeError, match="DudleyKernelHull"):
        ShardedEngine(DudleyKernelHull, shards=2)


def test_windowed_engine_refuses_unregistered_scheme():
    with pytest.raises(TypeError, match="RadialHistogramHull"):
        StreamEngine(
            lambda: RadialHistogramHull(8), window={"last_n": 100}
        )
