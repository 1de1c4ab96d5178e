"""One scheme descriptor on both tiers: every engine holds a SummarySpec,
every snapshot and WAL records it, so restore and recovery need no
restated scheme — for every registered base scheme, whichever form
(spec, instance, factory) the engine was built from.
"""

import numpy as np
import pytest

from repro.baselines import ExactHull, RandomSampleHull
from repro.core import AdaptiveHull, FixedSizeAdaptiveHull, UniformHull
from repro.durable import DurabilityConfig, recover_engine
from repro.engine import StreamEngine
from repro.shard import ShardedEngine, SummarySpec
from repro.window import WindowedHullSummary

SCHEMES = {
    "uniform": lambda: UniformHull(16),
    "adaptive": lambda: AdaptiveHull(8),
    "fixed": lambda: FixedSizeAdaptiveHull(8),
    "exact": ExactHull,
}
FORMS = {
    "spec": lambda make: SummarySpec.for_summary(make()),
    "instance": lambda make: make(),
    "lambda": lambda make: (lambda: make()),
}


def _batches(n=240, n_keys=5, size=60, seed=11):
    rng = np.random.default_rng(seed)
    keys = np.array([f"k{i}" for i in rng.integers(0, n_keys, n)])
    pts = rng.normal(0.0, 10.0, (n, 2))
    return [(keys[i:i + size], pts[i:i + size]) for i in range(0, n, size)]


@pytest.fixture(params=sorted(FORMS))
def form(request):
    return FORMS[request.param]


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_snapshot_restores_with_no_scheme(name, form):
    make = SCHEMES[name]
    eng = StreamEngine(form(make))
    assert eng.spec == SummarySpec.for_summary(make())
    for keys, pts in _batches():
        eng.ingest_arrays(keys, pts)
    doc = eng.snapshot_state()
    assert doc["spec"] == eng.spec.to_doc()
    restored = StreamEngine.from_snapshot_state(doc)
    assert restored.snapshot_state() == doc


@pytest.mark.parametrize("tier", ["engine", "shard"])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_wal_recovers_with_no_scheme(name, tier, form, tmp_path):
    scheme = form(SCHEMES[name])
    cfg = DurabilityConfig(tmp_path / "wal")
    if tier == "engine":
        eng = StreamEngine(scheme, durability=cfg)
    else:
        eng = ShardedEngine(scheme, shards=2, durability=cfg)
    with eng:
        for keys, pts in _batches():
            eng.ingest_arrays(keys, pts)
        expect = eng.snapshot_state()
    with recover_engine(tmp_path / "wal") as rec:
        assert rec._tier == tier
        assert rec.spec == eng.spec
        assert rec.snapshot_state() == expect


def test_doc_without_spec_loads_with_a_scheme():
    eng = StreamEngine(lambda: AdaptiveHull(8))
    for keys, pts in _batches():
        eng.ingest_arrays(keys, pts)
    doc = eng.snapshot_state()
    legacy = {k: v for k, v in doc.items() if k != "spec"}
    with pytest.raises(ValueError, match="no summary spec"):
        StreamEngine.from_snapshot_state(legacy)
    restored = StreamEngine.from_snapshot_state(
        legacy, lambda: AdaptiveHull(8)
    )
    assert restored.snapshot_state() == doc


def test_ring_doc_without_engine_specs_loads():
    # Ring snapshots from before engine docs recorded their own spec:
    # the workers fall back on the ring's.
    with ShardedEngine(SummarySpec("AdaptiveHull", {"r": 8}), shards=2) as ring:
        for keys, pts in _batches():
            ring.ingest_arrays(keys, pts)
        doc = ring.snapshot_state()
    legacy = dict(doc)
    legacy["engines"] = [
        {k: v for k, v in e.items() if k != "spec"} for e in doc["engines"]
    ]
    with ShardedEngine.from_snapshot_state(legacy) as restored:
        assert restored.snapshot_state() == doc


def test_mismatched_scheme_is_refused():
    doc = StreamEngine(lambda: AdaptiveHull(8)).snapshot_state()
    with pytest.raises(ValueError, match="does not match"):
        StreamEngine.from_snapshot_state(doc, lambda: AdaptiveHull(16))


def test_coerce_refusals():
    for scheme in (RandomSampleHull, lambda: RandomSampleHull(10)):
        with pytest.raises(TypeError, match="RandomSampleHull"):
            SummarySpec.coerce(scheme)
    windowed = WindowedHullSummary(lambda: AdaptiveHull(8), last_n=50)
    with pytest.raises(TypeError, match="windowed"):
        SummarySpec.coerce(windowed)
    with pytest.raises(ValueError, match="NoSuchHull"):
        SummarySpec.coerce({"class": "NoSuchHull", "config": {}})


def test_late_hooks_fire_newest_first():
    calls = []
    eng = StreamEngine(
        lambda: AdaptiveHull(8),
        window={"horizon": 5.0, "max_delay": 1.0},
        on_late=lambda *a: calls.append("on_late"),
    )
    eng.prepend_late_hook(lambda *a: calls.append("second"))
    eng.prepend_late_hook(lambda *a: calls.append("first"))
    eng.ingest_arrays(["a"], [[0.0, 0.0]], ts=[10.0])
    eng.advance_time(20.0)
    eng.ingest_arrays(["a"], [[1.0, 1.0]], ts=[1.0])
    assert calls == ["first", "second", "on_late"]
