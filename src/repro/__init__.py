"""repro — Adaptive Sampling for Geometric Problems over Data Streams.

A complete reproduction of Hershberger & Suri (PODS 2004; Computational
Geometry 39 (2008) 191-208): streaming convex-hull summaries with
provably optimal O(D/r^2) error using at most 2r+1 adaptive samples,
together with every substrate, baseline, query, and experiment the
paper describes — grown into a batch-first, multi-stream engine.

Quickstart (single stream, point at a time)::

    from repro import AdaptiveHull

    hull = AdaptiveHull(r=32)
    for x, y in stream:
        hull.insert((x, y))
    polygon = hull.hull()           # CCW convex polygon, <= 2r+1 points

Batch quickstart — real feeds arrive as ``(n, 2)`` NumPy blocks, and
``insert_many`` ingests them through a vectorised containment
pre-filter (several times the sequential throughput, bit-for-bit the
same result)::

    import numpy as np
    from repro import AdaptiveHull

    hull = AdaptiveHull(r=32)
    hull.insert_many(np.random.default_rng(0).normal(size=(100_000, 2)))

Many streams — one summary per vehicle/sensor/user — go through the
:class:`StreamEngine`: keyed batch routing, lazy per-key summaries,
LRU eviction, standing-query subscriptions, and JSON snapshot/restore::

    from repro import AdaptiveHull, SeparationTracker, StreamEngine

    engine = StreamEngine(lambda: AdaptiveHull(r=32))
    engine.ingest([("drone-1", 0.5, 1.2), ("drone-2", 3.1, -0.4)])
    engine.ingest_arrays(keys, points)          # NumPy-native routing

    tracker = SeparationTracker(lambda: AdaptiveHull(r=32))
    engine.attach_tracker(tracker, ["drone-1", "drone-2"])
    tracker.separable("drone-1", "drone-2")     # live standing query

    engine.snapshot("fleet.json")               # checkpoint...
    engine = StreamEngine.restore("fleet.json", lambda: AdaptiveHull(r=32))

Summaries are *mergeable* (``a |= b`` folds another summary of the same
scheme/config into ``a``, preserving the error bounds), which scales
the engine across processes: the :class:`ShardedEngine` routes keys
over N workers by consistent hashing and answers global queries through
a tree reduction of per-shard merged summaries::

    from repro import ShardedEngine, SummarySpec

    with ShardedEngine(SummarySpec("AdaptiveHull", {"r": 32}), shards=4) as eng:
        eng.ingest_arrays(keys, points)         # parallel fan-out
        eng.merged_hull()                       # global union hull
        eng.snapshot("ring.json")               # whole-ring checkpoint

Monitoring workloads ask about the *recent* window, not the whole
prefix — stale extremes must age out.  Both engine tiers take a
``window=`` config that gives every key a
:class:`~repro.window.WindowedHullSummary`: bucketed summaries merged
through the same algebra, whole-bucket expiry, logarithmic space::

    from repro import AdaptiveHull, StreamEngine, WindowConfig

    engine = StreamEngine(lambda: AdaptiveHull(32),
                          window=WindowConfig(horizon=300.0))
    engine.ingest_arrays(keys, points, ts=timestamps)
    engine.advance_time(now)                    # expire with no new data
    engine.merged_summary().hull()              # hull of the live windows

Real feeds arrive *out of order*: ``WindowConfig(horizon=...,
max_delay=D)`` opts a time window into bounded lateness
(:mod:`repro.engine.time`) — records up to ``D`` behind the newest
event are reordered behind a watermark (hulls bit-identical to the
sorted stream), later ones are counted and dropped, never silently
applied.

Both tiers implement one formal contract, :class:`EngineProtocol`
(ingest / queries / standing-query subscribe / snapshots / lifecycle),
so they are drop-in interchangeable — and the :mod:`repro.serve`
package serves any of them asynchronously: a bounded batch-coalescing
ingest queue, standing-query push to asyncio subscribers, and periodic
window expiry ticks.  The network front door over that facade is the
multi-tenant HTTP/SSE :mod:`repro.gateway` (results bit-identical to
direct synchronous calls)::

    from repro import AdaptiveHull, StreamEngine
    from repro.gateway import HullGateway, Tenant, TenantRegistry
    from repro.serve import AsyncHullService

    engine = StreamEngine(lambda: AdaptiveHull(32))
    registry = TenantRegistry([Tenant(id="ops", token="ops-token")])
    async with AsyncHullService(engine, own_engine=True) as service:
        async with HullGateway(service, registry, port=8765) as gateway:
            await gateway.serve_forever()

Production streams also need to survive crashes: ``durability=`` gives
either tier a write-ahead log (appended *before* apply, so recovery =
latest snapshot + tail replay, bit-identical by determinism), the
sharded tier takes ``standbys=`` hot replicas per shard (promoted
automatically when a primary dies) and resizes its ring online with
``resize(n)``, moving only the proportional key slice::

    from repro import DurabilityConfig, ShardedEngine, SummarySpec
    from repro.durable import recover_engine

    cfg = DurabilityConfig("waldir")
    with ShardedEngine(SummarySpec("AdaptiveHull", {"r": 32}), shards=4,
                       standbys=1, durability=cfg) as eng:
        eng.ingest_arrays(keys, points)         # durable before applied
        eng.resize(8)                           # live, serving throughout

    eng = recover_engine("waldir")              # after a crash

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .core.adaptive_hull import AdaptiveHull
from .core.base import HullSummary
from .core.fixed_size import FixedSizeAdaptiveHull
from .core.uniform_hull import UniformHull
from .baselines import (
    DudleyKernelHull,
    ExactHull,
    PartiallyAdaptiveHull,
    RadialHistogramHull,
    RandomSampleHull,
)
from .engine import (
    EngineProtocol,
    EngineStats,
    StreamEngine,
    Subscription,
    TimePolicy,
)
from .serve import AsyncHullService
from .shard import HashRing, ShardedEngine, ShardError, ShardStats, SummarySpec, tree_merge
from .queries import (
    ContainmentTracker,
    OverlapTracker,
    SeparationTracker,
    diameter,
    enclosing_circle,
    extent,
    farthest_neighbor,
    width,
)
from .streams.io import load_summary, save_summary
from .window import WindowConfig, WindowedHullSummary

# After the engine tiers: repro.durable composes over both of them.
from .durable import DurabilityConfig, WalError

__version__ = "1.5.0"

__all__ = [
    "AdaptiveHull",
    "FixedSizeAdaptiveHull",
    "UniformHull",
    "HullSummary",
    "PartiallyAdaptiveHull",
    "RadialHistogramHull",
    "DudleyKernelHull",
    "ExactHull",
    "RandomSampleHull",
    "StreamEngine",
    "EngineStats",
    "Subscription",
    "EngineProtocol",
    "AsyncHullService",
    "ShardedEngine",
    "ShardError",
    "ShardStats",
    "SummarySpec",
    "HashRing",
    "tree_merge",
    "WindowConfig",
    "WindowedHullSummary",
    "DurabilityConfig",
    "WalError",
    "TimePolicy",
    "save_summary",
    "load_summary",
    "diameter",
    "width",
    "extent",
    "farthest_neighbor",
    "enclosing_circle",
    "SeparationTracker",
    "ContainmentTracker",
    "OverlapTracker",
    "__version__",
]
