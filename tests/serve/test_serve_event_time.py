"""Bounded-lateness event time through the serving layer.

The acceptance criterion end to end: a stream shuffled within
``max_delay`` and pushed through the async facade or the HTTP gateway
yields **bit-identical** per-key and global results to the sorted
stream fed directly into a synchronous engine — for both engine tiers
— and beyond-lateness records are counted in the service/engine stats
(visible over HTTP), never silently applied.  The
facade's coalescing queue additionally pre-sorts bounded-lateness runs
before the engine sees them.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.serve import AsyncHullService
from repro.shard import ShardedEngine, SummarySpec
from repro.streams import bounded_shuffle
from repro.streams.io import summary_from_state
from repro.window import WindowConfig

R = 8
KEYS = [f"late-{i}" for i in range(5)]
MAX_DELAY = 2.0


def _window(horizon=10.0):
    return WindowConfig(horizon=horizon, max_delay=MAX_DELAY)


def _engine(tier):
    if tier == "stream":
        return StreamEngine(lambda: AdaptiveHull(R), window=_window())
    return ShardedEngine(
        SummarySpec("AdaptiveHull", {"r": R}), shards=2, window=_window()
    )


def _workload(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, 2.0, (n, 2))
    ts = np.sort(rng.uniform(0.0, 30.0, n)) + np.arange(n) * 1e-9
    keys = np.array([KEYS[i % len(KEYS)] for i in range(n)])
    return keys, pts, ts


def _reference(keys, pts, ts, final, tier="stream", scope=str):
    """Sorted-stream answers on the same tier (global reductions are
    only bit-comparable within one tier and one key naming: a
    multi-shard ring tree-merges in its own deterministic order).
    ``scope`` maps a client key to the engine key the service sees."""
    ref = _engine(tier)
    with ref:
        ref.ingest_arrays([scope(k) for k in keys], pts, ts=ts)
        ref.advance_time(final)
        return (
            {k: ref.hull(scope(k)) for k in KEYS},
            ref.merged_hull(),
            ref.diameter(),
            ref.width(),
        )


@pytest.mark.parametrize("tier", ["stream", "sharded"])
def test_facade_shuffled_parity_and_presort(tier):
    n, batch = 600, 120
    keys, pts, ts = _workload(n, 41)
    order = bounded_shuffle(ts, MAX_DELAY, seed=42)
    final = float(ts[-1]) + 2 * MAX_DELAY
    hulls, merged, diam, width = _reference(keys, pts, ts, final, tier)

    async def run():
        engine = _engine(tier)
        async with AsyncHullService(engine, own_engine=True) as service:
            for s in range(0, n, batch):
                sl = order[s : s + batch]
                await service.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
            await service.flush()
            await service.advance_time(final)
            got = {k: await service.hull(k) for k in KEYS}
            stats = await service.stats()
            return (
                got,
                await service.merged_hull(),
                await service.diameter(),
                await service.width(),
                stats,
                await service.late_drops(),
            )

    got, got_merged, got_diam, got_width, stats, drops = asyncio.run(run())
    assert got == hulls
    assert got_merged == merged
    assert got_diam == diam and got_width == width
    assert stats.late_dropped == 0 and stats.buffered == 0
    assert drops == {}


@pytest.mark.parametrize("tier", ["stream", "sharded"])
def test_tcp_shuffled_parity_and_late_accounting(tier, served, tenant):
    n, batch = 500, 100
    keys, pts, ts = _workload(n, 51)
    order = bounded_shuffle(ts, MAX_DELAY, seed=52)
    final = float(ts[-1]) + 2 * MAX_DELAY
    hulls, merged, _, _ = _reference(
        keys, pts, ts, final, tier, scope=tenant.scope
    )

    async def run():
        async with served(_engine(tier)) as (client, admin, _service):
            for s in range(0, n, batch):
                sl = order[s : s + batch]
                await client.ingest(
                    [
                        (
                            str(keys[i]),
                            float(pts[i, 0]),
                            float(pts[i, 1]),
                            float(ts[i]),
                        )
                        for i in sl
                    ],
                    sync=True,
                )
            await client.flush()
            await admin.advance_time(final)
            got = {k: await client.hull(k) for k in KEYS}
            got_merged = await client.merged_hull()
            # A far-late record: counted (tenant stats + late_drops +
            # the admin view of the service stats), never applied.
            await client.ingest([("straggler", 1e6, 1e6, 0.0)], sync=True)
            stats = await client.stats()
            drops = await client.late_drops()
            sstats = (await admin.stats())["totals"]["service"]
            after = {k: await client.hull(k) for k in KEYS}
            return got, got_merged, stats, drops, sstats, after

    got, got_merged, stats, drops, sstats, after = asyncio.run(run())
    assert got == hulls
    assert got_merged == merged
    assert stats["late_dropped"] == 1
    assert drops == {"straggler": 1}
    assert sstats["late_dropped"] == 1
    assert after == hulls  # the straggler changed nothing


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), batch=st.integers(20, 200))
def test_facade_parity_property(seed, batch):
    # Hypothesis sweep on the in-process tier (cheap enough to run
    # many shapes): facade == sorted direct, bit-identical.
    n = 300
    keys, pts, ts = _workload(n, seed)
    order = bounded_shuffle(ts, MAX_DELAY, seed=seed + 1)
    final = float(ts[-1]) + 2 * MAX_DELAY
    hulls, merged, _, _ = _reference(keys, pts, ts, final)

    async def run():
        engine = _engine("stream")
        async with AsyncHullService(engine, own_engine=True) as service:
            for s in range(0, n, batch):
                sl = order[s : s + batch]
                await service.ingest_arrays(keys[sl], pts[sl], ts=ts[sl])
            await service.flush()
            await service.advance_time(final)
            return (
                {k: await service.hull(k) for k in KEYS},
                await service.merged_hull(),
            )

    got, got_merged = asyncio.run(run())
    assert got == hulls and got_merged == merged


def test_summary_state_fetch_over_tcp(served):
    keys, pts, ts = _workload(200, 61)
    final = float(ts[-1]) + 2 * MAX_DELAY

    async def run():
        engine = _engine("stream")
        async with served(engine) as (client, admin, _service):
            await client.ingest(
                [
                    (
                        str(keys[i]),
                        float(pts[i, 0]),
                        float(pts[i, 1]),
                        float(ts[i]),
                    )
                    for i in range(len(ts))
                ],
                sync=True,
            )
            await admin.advance_time(final)
            doc = await client.summary_state(KEYS[0])
            missing = await client.summary_state("never-fed")
            server_hull = await client.hull(KEYS[0])
            return doc, missing, server_hull, engine.summary_factory

    doc, missing, server_hull, factory = asyncio.run(run())
    assert missing is None
    rebuilt = summary_from_state(doc, factory=factory)
    assert rebuilt.hull() == server_hull  # full state, bit-exact
