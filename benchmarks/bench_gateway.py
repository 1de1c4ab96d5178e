"""HTTP gateway overhead vs the in-process service facade.

The gateway adds JSON encoding, per-request HTTP framing over loopback,
bearer-token auth, rate-limit accounting, and key namespacing on top of
:class:`~repro.serve.AsyncHullService`.  This bench measures what the
whole network front door costs on the batched keyed ingest pattern,
over the identical workload and engine configuration:

* **facade** — ``AsyncHullService.ingest_arrays`` called in-process
  (no wire, no JSON);
* **http x1** — one tenant through :class:`~repro.gateway.HullGateway`
  with a :class:`~repro.gateway.GatewayClient` keep-alive connection;
* **http x2** — the same workload split across two tenants on separate
  connections, exercising the namespace + per-tenant accounting path
  under concurrency.

Gates: per-key hulls through the gateway are **bit-identical** to the
facade path (the wire and the namespace layer must be invisible in the
results), and — full runs only, CI smoke containers are too noisy —
the single-tenant HTTP ingest rate stays within ``OVERHEAD_GATE`` of
the facade.
"""

import asyncio
import time

import numpy as np
from _util import banner, smoke, write_json, write_report

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.gateway import (
    GatewayClient,
    HullGateway,
    Tenant,
    TenantRegistry,
)
from repro.serve import AsyncHullService
from repro.streams import drifting_clusters_stream

N = 4_000 if smoke() else 60_000
KEYS = 16
R = 32
BATCH = 1_000
OVERHEAD_GATE = 2.0  # http x1 vs the facade, full runs only


def _workload():
    pts = drifting_clusters_stream(N, n_clusters=4, drift=0.1, seed=11)
    keys = [
        f"gw-{i:03d}"
        for i in np.random.default_rng(11).integers(0, KEYS, N)
    ]
    return keys, pts


def _engine():
    return StreamEngine(lambda: AdaptiveHull(R))


async def _run_facade(keys, pts):
    engine = _engine()
    async with AsyncHullService(engine, own_engine=True) as service:
        t0 = time.perf_counter()
        for s in range(0, N, BATCH):
            await service.ingest_arrays(keys[s : s + BATCH], pts[s : s + BATCH])
        await service.flush()
        rate = N / (time.perf_counter() - t0)
        hulls = {}
        for key in sorted(set(keys)):
            hulls[key] = await service.hull(key)
        return rate, hulls


async def _run_http(keys, pts, tenants):
    """Split the batch sequence round-robin across ``tenants`` gateway
    connections; returns the aggregate rate and per-tenant hulls."""
    registry = TenantRegistry(
        [Tenant(id=t, token=f"tok-{t}") for t in tenants]
    )
    engine = _engine()
    async with AsyncHullService(engine, own_engine=True) as service:
        async with HullGateway(service, registry) as gw:
            clients = [
                GatewayClient("127.0.0.1", gw.port, f"tok-{t}")
                for t in tenants
            ]
            try:
                starts = list(range(0, N, BATCH))

                async def one_tenant(idx):
                    for s in starts[idx :: len(clients)]:
                        await clients[idx].ingest(
                            [
                                [k, float(x), float(y)]
                                for k, (x, y) in zip(
                                    keys[s : s + BATCH],
                                    pts[s : s + BATCH],
                                )
                            ]
                        )

                t0 = time.perf_counter()
                await asyncio.gather(
                    *(one_tenant(i) for i in range(len(clients)))
                )
                await service.flush()
                rate = N / (time.perf_counter() - t0)
                hulls = {}
                for idx, client in enumerate(clients):
                    for key in await client.keys():
                        hulls[tenants[idx], key] = await client.hull(key)
                return rate, hulls
            finally:
                for client in clients:
                    await client.aclose()


def test_gateway_overhead():
    keys, pts = _workload()
    base_rate, base_hulls = asyncio.run(_run_facade(keys, pts))
    one_rate, one_hulls = asyncio.run(_run_http(keys, pts, ["solo"]))
    two_rate, two_hulls = asyncio.run(
        _run_http(keys, pts, ["acme", "globex"])
    )

    # Parity gate: the wire and the tenancy layer are invisible in the
    # results — a single tenant's per-key hulls match the facade's
    # exactly.
    assert {k for (_, k) in one_hulls} == set(base_hulls)
    for key, hull in base_hulls.items():
        assert one_hulls["solo", key] == hull, key
    # Two tenants fed disjoint batch slices of the same stream each get
    # exactly their own records: their per-key unions cover the stream.
    per_key_counts = {}
    for (tenant, key), hull in two_hulls.items():
        assert hull, (tenant, key)
        per_key_counts[key] = per_key_counts.get(key, 0) + 1
    assert set(per_key_counts) == set(base_hulls)

    overhead = base_rate / one_rate if one_rate else float("inf")
    if not smoke():
        assert overhead < OVERHEAD_GATE, (
            f"gateway ingest overhead {overhead:.2f}x exceeds "
            f"{OVERHEAD_GATE}x vs the in-process facade"
        )

    lines = [
        f"{'path':>14} {'ingest rate':>16}",
        f"{'facade':>14} {base_rate:>12,.0f} r/s",
        f"{'http x1':>14} {one_rate:>12,.0f} r/s",
        f"{'http x2':>14} {two_rate:>12,.0f} r/s",
        "",
        f"http/facade overhead : {overhead:.2f}x (gate "
        f"{'skipped (smoke)' if smoke() else f'< {OVERHEAD_GATE}x'})",
        f"records              : {N:,} across {KEYS} keys, "
        f"batch {BATCH}",
    ]
    body = "\n".join(lines)
    print()
    print(banner("gateway ingest overhead", body))
    write_report("bench_gateway", body)
    write_json(
        "bench_gateway",
        {
            "n": N,
            "keys": KEYS,
            "batch": BATCH,
            "facade_rate": base_rate,
            "http_rate_1tenant": one_rate,
            "http_rate_2tenants": two_rate,
            "overhead_x": overhead,
            "gate": None if smoke() else OVERHEAD_GATE,
        },
    )


if __name__ == "__main__":
    test_gateway_overhead()
