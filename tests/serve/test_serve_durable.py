"""Serving with durability: WAL behind the coalescer, resize over HTTP.

The serve-tier durability contract: ``durability=`` on the service
attaches the WAL to the *engine thread* (write-ahead of each apply, so
the log captures exactly the applied order even when coalescing
re-sorts arrivals), a recovered engine is served with
``durability=None`` (double-attach is refused loudly), and the gateway's
admin ``resize`` verb carries the live ring resize over the wire.
"""

import asyncio

import numpy as np
import pytest

from repro.durable import DurabilityConfig, WalError, recover_engine
from repro.engine import StreamEngine
from repro.gateway import GatewayHTTPError
from repro.serve import AsyncHullService
from repro.shard import ShardedEngine, SummarySpec

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
KEYS = [f"svc-{i}" for i in range(5)]


def workload(n=400, seed=13):
    rng = np.random.default_rng(seed)
    keys = np.array([KEYS[i] for i in rng.integers(0, len(KEYS), n)])
    return keys, rng.normal(0.0, 10.0, (n, 2))


class TestServiceDurability:
    def test_served_stream_recovers_bit_identically(self, tmp_path):
        keys, pts = workload()

        async def run():
            engine = StreamEngine(SPEC.build)
            async with AsyncHullService(
                engine,
                own_engine=True,
                durability=DurabilityConfig(tmp_path / "wal"),
            ) as service:
                for lo in range(0, len(keys), 80):
                    await service.ingest_arrays(
                        keys[lo:lo + 80], pts[lo:lo + 80]
                    )
                await service.flush()
                assert service.service_stats()["wal_seq"] > 0
                return engine.snapshot_state()

        expect = asyncio.run(run())
        rec = recover_engine(tmp_path / "wal")
        try:
            assert rec.snapshot_state() == expect
        finally:
            rec.close()

    def test_wal_seq_is_none_without_durability(self):
        async def run():
            engine = StreamEngine(SPEC.build)
            async with AsyncHullService(engine, own_engine=True) as service:
                await service.ingest_arrays(*workload(50))
                await service.flush()
                return service.service_stats()["wal_seq"]

        assert asyncio.run(run()) is None

    def test_serving_a_recovered_engine_refuses_double_attach(
        self, tmp_path
    ):
        keys, pts = workload(100)
        eng = StreamEngine(
            SPEC.build, durability=DurabilityConfig(tmp_path / "wal")
        )
        eng.ingest_arrays(keys, pts)
        eng.close()

        # Recovered WITH durability: the engine already holds the
        # writer, a second attach must fail.
        rec = recover_engine(
            tmp_path / "wal", durability=DurabilityConfig(tmp_path / "wal")
        )
        with pytest.raises(WalError):
            AsyncHullService(
                rec, durability=DurabilityConfig(tmp_path / "wal")
            )
        rec.close()

        # Recovered WITHOUT durability: attaching fresh over a
        # non-empty log is refused too (it would re-log the replay).
        rec = recover_engine(tmp_path / "wal")
        with pytest.raises(WalError, match="already holds"):
            AsyncHullService(
                rec, durability=DurabilityConfig(tmp_path / "wal")
            )
        rec.close()

    def test_served_recovered_engine_continues(self, tmp_path):
        keys, pts = workload()
        half = len(keys) // 2
        eng = StreamEngine(
            SPEC.build, durability=DurabilityConfig(tmp_path / "wal")
        )
        eng.ingest_arrays(keys[:half], pts[:half])
        eng.close()

        async def run():
            # The documented pattern: recover_engine re-attaches the
            # log, the service gets durability=None.
            engine = recover_engine(
                tmp_path / "wal",
                durability=DurabilityConfig(tmp_path / "wal"),
            )
            async with AsyncHullService(
                engine, own_engine=True
            ) as service:
                await service.ingest_arrays(keys[half:], pts[half:])
                await service.flush()
                return engine.snapshot_state()

        expect = asyncio.run(run())
        with StreamEngine(SPEC.build) as ref:
            # Same batch boundaries: counters are part of the state.
            ref.ingest_arrays(keys[:half], pts[:half])
            ref.ingest_arrays(keys[half:], pts[half:])
            direct = ref.snapshot_state()
        assert expect == direct

        rec = recover_engine(tmp_path / "wal")
        try:
            assert rec.snapshot_state() == direct
        finally:
            rec.close()


class TestResizeVerb:
    def test_resize_over_tcp(self, served):
        keys, pts = workload()

        async def run():
            engine = ShardedEngine(SPEC, shards=2)
            async with served(engine) as (client, admin, service):
                await client.ingest(
                    [[str(k), float(x), float(y)] for k, (x, y) in zip(keys, pts)],
                    sync=True,
                )
                # Resizing acts on the whole ring: admin only.
                status, _ = await client.request(
                    "POST", "/v1/resize", {"shards": 3}
                )
                assert status == 403
                event = await admin.resize(3)
                hulls = {k: await client.hull(k) for k in KEYS}
                stats = await service.stats()
                return event, hulls, stats

        event, hulls, stats = asyncio.run(run())
        assert event["from"] == 2 and event["to"] == 3
        assert event["total_keys"] == len(KEYS)
        assert stats.shards == 3
        with ShardedEngine(SPEC, shards=3) as ref:
            keys_, pts_ = workload()
            ref.ingest_arrays(keys_, pts_)
            for k in KEYS:
                assert hulls[k] == ref.hull(k)

    def test_resize_requires_sharded_engine(self, served):
        async def run():
            engine = StreamEngine(SPEC.build)
            async with served(engine) as (_client, admin, _service):
                with pytest.raises(GatewayHTTPError, match="sharded") as err:
                    await admin.resize(3)
                assert err.value.status == 400

        asyncio.run(run())
