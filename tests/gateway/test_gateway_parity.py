"""Tenancy-transparency properties (hypothesis + both engine tiers).

The namespace layer must be *invisible* in the results: a tenant
talking to the shared gateway gets bit-identical per-key hulls to the
same record sequence fed into a private single-tenant engine.  The
hypothesis suite drives random interleaved two-tenant streams through
one shared gateway and checks every key of every tenant against its
own reference engine; the parametrized suite repeats the check over
both engine tiers, windowed and not, on a fixed workload.
"""

import asyncio
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.gateway import GatewayClient, HullGateway, Tenant, TenantRegistry
from repro.serve import AsyncHullService
from repro.shard import ShardedEngine, SummarySpec
from repro.window import WindowConfig

R = 8
TENANTS = ("acme", "globex")


def make_engine(tier, window=None):
    if tier == "stream":
        return StreamEngine(lambda: AdaptiveHull(R), window=window)
    return ShardedEngine(
        SummarySpec("AdaptiveHull", {"r": R}), shards=2, window=window
    )


@contextlib.asynccontextmanager
async def shared_gateway(engine):
    registry = TenantRegistry(
        [Tenant(id=t, token=f"tok-{t}") for t in TENANTS]
    )
    async with AsyncHullService(engine, own_engine=True) as service:
        async with HullGateway(service, registry) as gw:
            clients = {
                t: GatewayClient("127.0.0.1", gw.port, f"tok-{t}")
                for t in TENANTS
            }
            try:
                yield gw, clients
            finally:
                for c in clients.values():
                    await c.aclose()


def reference_hulls(records, *, window=None, ts=None, merged=None):
    """Per-tenant private engines fed the identical subsequences.  When
    ``merged`` is a dict, each tenant's union hull lands there too."""
    out = {}
    for tenant in TENANTS:
        mine = [
            (i, rec) for i, rec in enumerate(records) if rec[0] == tenant
        ]
        with make_engine("stream", window) as ref:
            for i, (_, key, x, y) in mine:
                if ts is None:
                    ref.insert(key, x, y)
                else:
                    ref.insert(key, x, y, ts=ts[i])
            out[tenant] = {
                key: ref.hull(key) for key in ref.keys()
            }
            if merged is not None:
                merged[tenant] = ref.merged_hull()
    return out


# -- hypothesis: random interleavings --------------------------------------

coord = st.floats(
    min_value=-100.0, max_value=100.0,
    allow_nan=False, allow_infinity=False,
)
record = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(["k0", "k1", "k2"]),
    coord,
    coord,
)


class TestInterleavedParity:
    @given(records=st.lists(record, min_size=1, max_size=40))
    @settings(max_examples=10, deadline=None)
    def test_two_tenants_match_private_engines(self, records):
        async def main():
            merged = {}
            expected = reference_hulls(records, merged=merged)
            engine = StreamEngine(lambda: AdaptiveHull(R))
            async with shared_gateway(engine) as (gw, clients):
                # Feed the interleaving faithfully: one request per
                # record, in sequence order, alternating tenants
                # exactly as drawn.
                for tenant, key, x, y in records:
                    await clients[tenant].ingest(
                        [[key, x, y]], sync=True
                    )
                for tenant in TENANTS:
                    keys = await clients[tenant].keys()
                    assert keys == sorted(expected[tenant])
                    for key in keys:
                        got = await clients[tenant].hull(key)
                        assert got == [
                            (float(x), float(y))
                            for x, y in expected[tenant][key]
                        ], (tenant, key)
                    # The union fold over the tenant's own keys is the
                    # private engine's fold (the namespace prefix keeps
                    # the canonical key order).
                    assert await clients[tenant].merged_hull() == [
                        (float(x), float(y)) for x, y in merged[tenant]
                    ], tenant

        asyncio.run(main())

    @given(records=st.lists(record, min_size=1, max_size=30))
    @settings(max_examples=10, deadline=None)
    def test_no_verb_leaks_foreign_keys(self, records):
        async def main():
            engine = StreamEngine(lambda: AdaptiveHull(R))
            async with shared_gateway(engine) as (gw, clients):
                batches = {t: [] for t in TENANTS}
                for tenant, key, x, y in records:
                    batches[tenant].append([key, x, y])
                for tenant, batch in batches.items():
                    if batch:
                        await clients[tenant].ingest(batch, sync=True)
                mine = {
                    t: {r[0] for r in batches[t]} for t in TENANTS
                }
                for tenant in TENANTS:
                    other = TENANTS[1 - TENANTS.index(tenant)]
                    keys = set(await clients[tenant].keys())
                    assert keys == mine[tenant]
                    # A key only the OTHER tenant populated is 404
                    # here, never the other tenant's data.
                    for key in mine[other] - mine[tenant]:
                        for path in ("/v1/hull/", "/v1/summary/"):
                            status, _ = await clients[tenant].request(
                                "GET", f"{path}{key}"
                            )
                            assert status == 404
                        # Listing it in a fold selects nothing foreign.
                        assert await clients[tenant].merged_hull(
                            keys=[key]
                        ) == []
                    stats = await clients[tenant].stats()
                    assert stats["keys"] == len(mine[tenant])

        asyncio.run(main())


# -- both tiers, windowed and not ------------------------------------------

def workload(n=160):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(n, 2)).round(3)
    records = [
        (TENANTS[i % 2], f"k{i % 3}", float(x), float(y))
        for i, (x, y) in enumerate(pts)
    ]
    ts = np.arange(n, dtype=np.float64) / 40.0
    return records, ts


class TestTierParity:
    @pytest.mark.parametrize("tier", ["stream", "shard"])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_gateway_matches_private_engine(self, tier, windowed):
        window = WindowConfig(horizon=3.0) if windowed else None
        records, ts = workload()
        expected = reference_hulls(
            records, window=window, ts=ts if windowed else None
        )

        async def main():
            engine = make_engine(tier, window)
            async with shared_gateway(engine) as (gw, clients):
                # One record per request, alternating tenants, so the
                # shared engine sees the interleaving in global event-
                # time order (the strict time policy demands monotonic
                # ts across tenants — that is the point: the clock is
                # shared even though the namespaces are not).
                for i, (tenant, key, x, y) in enumerate(records):
                    rec = [key, x, y] + ([ts[i]] if windowed else [])
                    await clients[tenant].ingest([rec], sync=True)
                for tenant in TENANTS:
                    keys = await clients[tenant].keys()
                    assert keys == sorted(expected[tenant])
                    for key in keys:
                        got = await clients[tenant].hull(key)
                        want = [
                            (float(x), float(y))
                            for x, y in expected[tenant][key]
                        ]
                        assert got == want, (tier, windowed, tenant, key)

        asyncio.run(main())
