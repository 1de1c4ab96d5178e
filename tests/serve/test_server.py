"""The network front door over HTTP: round-trip parity, push, errors.

The acceptance property, over the wire: a stream ingested through the
gateway yields bit-identical per-key and global results to the same
stream fed synchronously into a private engine under the keys the
service sees (JSON round-trips IEEE doubles exactly, and the tenant
namespace is a key prefix that preserves the canonical fold order).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.gateway import GatewayClient, GatewayHTTPError
from repro.shard import ShardedEngine, SummarySpec
from repro.streams import drifting_clusters_stream
from repro.window import WindowConfig

R = 8
N = 600
BATCH = 120
KEYS = [f"tcp-{i}" for i in range(4)]


def workload():
    pts = drifting_clusters_stream(N, n_clusters=2, drift=0.1, seed=5)
    keys = [KEYS[i % len(KEYS)] for i in range(N)]
    ts = np.arange(N, dtype=np.float64) / 80.0
    return keys, pts, ts


def records(timed):
    keys, pts, ts = workload()
    for s in range(0, N, BATCH):
        yield [
            (
                [k, float(p[0]), float(p[1]), float(t)]
                if timed
                else [k, float(p[0]), float(p[1])]
            )
            for k, p, t in zip(
                keys[s : s + BATCH], pts[s : s + BATCH], ts[s : s + BATCH]
            )
        ]


def sync_reference(engine_factory, timed, tenant):
    """A private engine fed the same records under the scoped keys the
    gateway hands the service (a ring routes by key, so the global folds
    of a sharded tier are only bit-comparable on the same key names)."""
    with engine_factory() as engine:
        for batch in records(timed):
            engine.ingest(
                [(tenant.scope(rec[0]), *rec[1:]) for rec in batch]
            )
        return {
            "keys": KEYS,
            "per_key": {k: engine.hull(tenant.scope(k)) for k in KEYS},
            "merged": engine.merged_hull(),
            "diameter": engine.diameter(),
            "width": engine.width(),
        }


@pytest.mark.parametrize(
    "tier,mode",
    [
        ("stream", "none"),
        ("stream", "count"),
        ("stream", "timed"),
        ("sharded", "timed"),
    ],
)
def test_tcp_round_trip_parity(tier, mode, served, tenant):
    window = {
        "none": None,
        "count": WindowConfig(last_n=150),
        "timed": WindowConfig(horizon=3.0),
    }[mode]

    def factory():
        if tier == "stream":
            return StreamEngine(lambda: AdaptiveHull(R), window=window)
        return ShardedEngine(
            SummarySpec("AdaptiveHull", {"r": R}), shards=2, window=window
        )

    timed = window is not None and window.timed

    async def run():
        async with served(factory()) as (client, _admin, _service):
            for batch in records(timed):
                await client.ingest(batch)
            await client.flush()
            return {
                "keys": await client.keys(),
                "per_key": {
                    k: await client.hull(k) for k in await client.keys()
                },
                "merged": await client.merged_hull(),
                "diameter": await client.diameter(),
                "width": await client.width(),
            }

    got = asyncio.run(run())
    assert got == sync_reference(factory, timed, tenant)  # bit-identical


def test_subscribe_push_and_unsubscribe_over_tcp(served):
    async def run():
        engine = StreamEngine(lambda: AdaptiveHull(R))
        async with served(engine, sse_heartbeat=0.05) as (
            client, _admin, service,
        ):
            sse = await client.subscribe(keys=["a"])
            await client.ingest([["b", 1.0, 1.0]], sync=True)
            await client.ingest([["a", 2.0, 2.0]], sync=True)
            event = await sse.next_event(timeout=5)
            assert event["event"] == "update"
            assert event["data"]["keys"] == ["a"]
            assert service.service_stats()["subscribers"] == 1
            # Closing the stream is the unsubscribe: the next heartbeat
            # write fails and the gateway detaches the subscription.
            await sse.aclose()
            for _ in range(200):
                if service.service_stats()["subscribers"] == 0:
                    break
                await asyncio.sleep(0.025)
            assert service.service_stats()["subscribers"] == 0
            await client.ingest([["a", 3.0, 3.0]], sync=True)

    asyncio.run(run())


def test_oversize_line_drops_connection_cleanly(served):
    async def run():
        engine = StreamEngine(lambda: AdaptiveHull(R))
        async with served(engine) as (client, _admin, _service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", client.port
            )
            writer.write(b"GET /" + b"x" * (1 << 17) + b" HTTP/1.1\r\n\r\n")
            await writer.drain()
            # The gateway answers the broken request once and hangs up
            # instead of hanging or crashing.  Closing with the rest of
            # the request unread may turn the hang-up into a reset that
            # overtakes the answer.
            try:
                raw = await asyncio.wait_for(reader.read(), 10)
            except ConnectionResetError:
                raw = b""
            assert raw == b"" or raw.startswith(b"HTTP/1.1 431")
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionResetError:
                pass
            # And the listener still serves fresh connections.
            await client.ingest([["a", 1.0, 1.0]], sync=True)
            assert await client.keys() == ["a"]

    asyncio.run(run())


def test_remote_errors_and_bad_lines(served):
    async def run():
        engine = StreamEngine(
            lambda: AdaptiveHull(R), window=WindowConfig(horizon=5.0)
        )
        async with served(engine) as (client, _admin, _service):
            status, doc = await client.request("GET", "/v1/nonsense")
            assert status == 404 and "unknown path" in doc["error"]
            # Producer-side validation travels back as a 400.
            with pytest.raises(GatewayHTTPError, match="coercible") as err:
                await client.ingest([["a", "oops", 0.0, 1.0]])
            assert err.value.status == 400
            # Engine-level rejection surfaces on sync ingest.
            await client.ingest([["a", 1.0, 1.0, 9.0]], sync=True)
            with pytest.raises(GatewayHTTPError, match="non-decreasing"):
                await client.ingest([["a", 2.0, 2.0, 1.0]], sync=True)
            # The connection survives all of it.
            assert await client.keys() == ["a"]
            # A malformed body gets an error answer, not a hangup.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", client.port
            )
            body = b"this is not json"
            writer.write(
                b"POST /v1/ingest HTTP/1.1\r\n"
                b"Authorization: Bearer " + client.token.encode() + b"\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                + body
            )
            await writer.drain()
            status, _, payload = await GatewayClient._read_response(reader)
            assert status == 400 and "invalid JSON" in payload["error"]
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            status, _, payload = await GatewayClient._read_response(reader)
            assert (status, payload) == (200, {"ok": True})
            writer.close()
            await writer.wait_closed()

    asyncio.run(run())


def test_snapshot_over_tcp_restores_identically(tmp_path, served):
    async def run():
        engine = StreamEngine(lambda: AdaptiveHull(R))
        async with served(engine) as (client, admin, _service):
            for batch in records(False):
                await client.ingest(batch)
            await client.flush()
            state = await admin.snapshot()
            server_path = await admin.snapshot(str(tmp_path / "remote.json"))
            # Snapshots act on the whole engine: admin only.
            status, _ = await client.request("POST", "/v1/snapshot", {})
            assert status == 403
            hulls = {k: engine.hull(k) for k in engine.keys()}
            return state, server_path, hulls

    state, server_path, hulls = asyncio.run(run())
    # The inline state crossed the wire as JSON, exactly like the file.
    assert state == json.loads(json.dumps(state))
    with StreamEngine.from_snapshot_state(
        state, lambda: AdaptiveHull(R)
    ) as restored:
        assert {k: restored.hull(k) for k in restored.keys()} == hulls
    with StreamEngine.restore(server_path, lambda: AdaptiveHull(R)) as disk:
        assert {k: disk.hull(k) for k in disk.keys()} == hulls
