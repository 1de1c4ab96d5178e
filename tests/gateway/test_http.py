"""Gateway verbs over real sockets: auth, isolation, limits, SSE.

Acceptance criteria exercised here:

* a tenant over its rate limit gets 429 + ``Retry-After`` while the
  other tenant's ingest keeps flowing;
* cross-tenant key access is impossible through every verb, including
  the SSE stream;
* a quota rejection is atomic — nothing reaches the engine;
* ``/metrics`` exposes per-tenant ingest/reject counters.
"""

import asyncio
import json

import pytest

from repro.core import AdaptiveHull
from repro.engine import StreamEngine
from repro.gateway import GatewayClient, GatewayHTTPError, Tenant
from repro.streams.io import summary_from_state
from repro.window import WindowConfig

R = 8  # matches the conftest gateway_ctx default engine
ADMIN_TOKEN = "admin-tok"


def run(coro):
    return asyncio.run(coro)


def client_for(gw, token):
    return GatewayClient("127.0.0.1", gw.port, token)


class TestVerbs:
    def test_ingest_hull_keys_parity(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, service, registry):
                c = client_for(gw, "tok-acme")
                doc = await c.ingest(
                    [["k", 0, 0], ["k", 2, 0], ["k", 1, 3], ["k", 1, 1]],
                    sync=True,
                )
                assert doc == {"queued": 4, "live_keys": 1}
                direct = AdaptiveHull(R)
                for x, y in [(0, 0), (2, 0), (1, 3), (1, 1)]:
                    direct.insert((float(x), float(y)))
                assert await c.hull("k") == [
                    (float(x), float(y)) for x, y in direct.hull()
                ]
                assert await c.keys() == ["k"]
                await c.aclose()

        run(main())

    def test_numeric_keys_coerce_to_strings(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                await c.ingest([[7, 0, 0], [7, 1, 1]], sync=True)
                assert await c.keys() == ["7"]
                assert len(await c.hull("7")) == 2
                await c.aclose()

        run(main())

    def test_key_percent_encoding_roundtrip(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                key = "a b/c:d"  # spaces, slashes, separators
                await c.ingest([[key, 0, 0]], sync=True)
                assert await c.keys() == [key]
                assert await c.hull(key) == [(0.0, 0.0)]
                await c.aclose()

        run(main())

    def test_hull_unknown_key_404(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                status, payload = await c.request("GET", "/v1/hull/nope")
                assert status == 404
                assert "unknown key" in payload["error"]
                await c.aclose()

        run(main())

    def test_stats_and_healthz(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                await c.ingest([["k", 1, 2]], sync=True)
                stats = await c.stats()
                assert stats["tenant"] == "acme"
                assert stats["keys"] == 1
                assert stats["ingested_records"] == 1
                assert stats["ingested_bytes"] > 0
                assert stats["rejected"] == {}
                anon = GatewayClient("127.0.0.1", gw.port)
                status, doc = await anon.request("GET", "/healthz")
                assert (status, doc) == (200, {"ok": True})
                await c.aclose()
                await anon.aclose()

        run(main())

    def test_admin_stats_global_view(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                acme = client_for(gw, "tok-acme")
                globex = client_for(gw, "tok-globex")
                await acme.ingest([["a", 1, 1]], sync=True)
                await globex.ingest([["b", 2, 2], ["c", 3, 3]], sync=True)
                # The admin token gets the documented global view from
                # the one data verb that has an operator shape...
                admin = client_for(gw, ADMIN_TOKEN)
                doc = await admin.stats()
                by_id = {t["tenant"]: t for t in doc["tenants"]}
                assert by_id["acme"]["keys"] == 1
                assert by_id["globex"]["keys"] == 2
                assert by_id["globex"]["ingested_records"] == 2
                assert doc["totals"]["tenants"] == 2
                assert doc["totals"]["keys"] == 3
                assert doc["totals"]["unscoped_keys"] == 0
                assert doc["totals"]["ingested_records"] == 3
                # ...while tenant tokens keep getting their own view
                # and the other data verbs still refuse the admin.
                stats = await acme.stats()
                assert stats["tenant"] == "acme"
                status, _ = await admin.request("GET", "/v1/keys")
                assert status == 403
                await acme.aclose()
                await globex.aclose()
                await admin.aclose()

        run(main())

    def test_malformed_requests_400(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                for doc in (
                    {"records": "nope"},
                    {"records": [["k", 1]]},
                    {"records": [[None, 1, 2]]},
                    {"records": [["k", 1, 2, 3.0], ["k", 1, 2]]},
                    {"records": [["k", "x", "y"]]},
                    {"records": [["k", 1, 2, 3.0]]},  # ts, no window
                ):
                    status, _ = await c.request("POST", "/v1/ingest", doc)
                    assert status == 400, doc
                stats = await c.stats()
                assert stats["rejected"]["bad_request"] >= 5
                await c.aclose()

        run(main())

    def test_method_and_path_errors(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                status, _ = await c.request("GET", "/v1/ingest")
                assert status == 405
                assert c.last_headers.get("allow") == "POST"
                status, _ = await c.request("GET", "/v1/nothing")
                assert status == 404
                status, _ = await c.request("GET", "/elsewhere")
                assert status == 404
                await c.aclose()

        run(main())

    def test_sync_engine_rejection_maps_to_400(self, gateway_ctx):
        async def main():
            engine = StreamEngine(
                lambda: AdaptiveHull(R),
                window=WindowConfig(horizon=5.0),
            )
            async with gateway_ctx(engine=engine) as (gw, *_):
                c = client_for(gw, "tok-acme")
                await c.ingest([["k", 0, 0, 100.0]], sync=True)
                # Strict time policy: an older-than-watermark record is
                # an engine-level rejection, surfaced to the sync
                # producer as 400 and attributed in stats.
                with pytest.raises(GatewayHTTPError) as err:
                    await c.ingest([["k", 1, 1, 1.0]], sync=True)
                assert err.value.status == 400
                stats = await c.stats()
                assert stats["rejected"]["engine"] == 1
                assert stats["last_error"]
                await c.aclose()

        run(main())


class TestServiceVerbs:
    """The facade verbs the gateway exposes beyond ingest/hull/keys."""

    def test_extent_folds_own_or_listed_keys(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                acme = client_for(gw, "tok-acme")
                globex = client_for(gw, "tok-globex")
                recs = [["a", 0, 0], ["a", 4, 0], ["b", 0, 3], ["b", 1, 1]]
                await acme.ingest(recs, sync=True)
                # Far-away foreign points must never enter acme's folds.
                await globex.ingest([["a", 100, 100]], sync=True)
                await acme.flush()
                with StreamEngine(lambda: AdaptiveHull(R)) as ref:
                    ref.ingest([tuple(r) for r in recs])
                    assert await acme.merged_hull() == ref.merged_hull()
                    assert await acme.diameter() == ref.diameter()
                    assert await acme.width() == ref.width()
                    assert await acme.merged_hull(keys=["a"]) == (
                        ref.merged_hull(["a"])
                    )
                    assert await acme.diameter(keys=["a", "zz"]) == (
                        ref.diameter(["a"])
                    )
                empty = client_for(gw, "tok-globex")
                status, doc = await empty.request(
                    "GET", "/v1/merged_hull?keys=b"
                )
                assert (status, doc) == (200, {"hull": [], "count": 0})
                await acme.aclose()
                await globex.aclose()
                await empty.aclose()

        run(main())

    def test_summary_state_and_late_drops(self, gateway_ctx):
        async def main():
            engine = StreamEngine(
                lambda: AdaptiveHull(R),
                window=WindowConfig(horizon=50.0, max_delay=1.0),
            )
            async with gateway_ctx(engine=engine) as (gw, service, _):
                acme = client_for(gw, "tok-acme")
                globex = client_for(gw, "tok-globex")
                admin = client_for(gw, ADMIN_TOKEN)
                await acme.ingest(
                    [["k", 0, 0, 10.0], ["k", 1, 2, 11.0]], sync=True
                )
                await admin.advance_time(20.0)
                # Later than the watermark: counted per tenant, dropped.
                await acme.ingest([["late", 5, 5, 1.0]], sync=True)
                await globex.ingest([["g", 5, 5, 2.0]], sync=True)
                assert await acme.late_drops() == {"late": 1}
                assert await globex.late_drops() == {"g": 1}
                doc = await acme.summary_state("k")
                rebuilt = summary_from_state(
                    doc, factory=engine.summary_factory
                )
                assert rebuilt.hull() == await acme.hull("k")
                assert await acme.summary_state("late") is None
                assert await globex.summary_state("k") is None
                # The admin view carries the facade's counters.
                totals = (await admin.stats())["totals"]
                assert totals["service"]["late_dropped"] == 2
                assert "obs" not in totals["service"]
                await acme.aclose()
                await globex.aclose()
                await admin.aclose()

        run(main())

    def test_flush_snapshot_resize_access(self, gateway_ctx, tmp_path):
        async def main():
            async with gateway_ctx() as (gw, *_):
                acme = client_for(gw, "tok-acme")
                admin = client_for(gw, ADMIN_TOKEN)
                anon = GatewayClient("127.0.0.1", gw.port)
                await acme.ingest([["k", 1, 1]])
                await acme.flush()
                await admin.flush()
                status, _ = await anon.request("POST", "/v1/flush")
                assert status == 401
                for path, doc in (
                    ("/v1/snapshot", {}),
                    ("/v1/resize", {"shards": 2}),
                ):
                    status, _ = await acme.request("POST", path, doc)
                    assert status == 403, path
                state = await admin.snapshot()
                assert [k for k, _ in state["summaries"]] == ["acme:k"]
                path = await admin.snapshot(str(tmp_path / "snap.json"))
                assert json.loads(open(path).read()) == state
                status, doc = await admin.request(
                    "POST", "/v1/resize", {"shards": "two"}
                )
                assert status == 400 and "integer" in doc["error"]
                # An in-process engine has no ring to resize.
                status, doc = await admin.request(
                    "POST", "/v1/resize", {"shards": 2}
                )
                assert status == 400 and "sharded" in doc["error"]
                text = await acme.metrics_text()
                for verb in ("flush", "snapshot", "resize"):
                    assert (
                        f'repro_gateway_request_seconds_count{{verb="{verb}"}}'
                        in text
                    ), verb
                await acme.aclose()
                await admin.aclose()
                await anon.aclose()

        run(main())


class TestAuth:
    def test_missing_and_unknown_tokens_401(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                anon = GatewayClient("127.0.0.1", gw.port)
                status, _ = await anon.request("GET", "/v1/keys")
                assert status == 401
                assert "bearer" in anon.last_headers.get(
                    "www-authenticate", ""
                ).lower()
                bad = client_for(gw, "wrong-token")
                status, _ = await bad.request("GET", "/v1/keys")
                assert status == 401
                await anon.aclose()
                await bad.aclose()

        run(main())

    def test_disabled_tenant_403(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, _svc, registry):
                registry.set_enabled("acme", False)
                c = client_for(gw, "tok-acme")
                status, payload = await c.request("GET", "/v1/keys")
                assert status == 403
                assert "disabled" in payload["error"]
                await c.aclose()

        run(main())

    def test_admin_only_verbs(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                tenant = client_for(gw, "tok-acme")
                admin = client_for(gw, ADMIN_TOKEN)
                # advance_time: tenants must not move the shared clock.
                status, _ = await tenant.request(
                    "POST", "/v1/advance_time", {"now": 1.0}
                )
                assert status == 403
                status, _ = await tenant.request(
                    "GET", "/v1/admin/tenants"
                )
                assert status == 403
                # The admin token owns no namespace: data verbs refuse.
                status, _ = await admin.request("GET", "/v1/keys")
                assert status == 403
                await tenant.aclose()
                await admin.aclose()

        run(main())

    def test_admin_tenant_crud(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                admin = client_for(gw, ADMIN_TOKEN)
                status, doc = await admin.request(
                    "POST",
                    "/v1/admin/tenants",
                    {"id": "initech", "token": "tok-init", "max_keys": 1},
                )
                assert (status, doc["created"]) == (200, True)
                assert "token" not in doc["tenant"]
                init = client_for(gw, "tok-init")
                await init.ingest([["k", 1, 1]], sync=True)
                status, doc = await admin.request("GET", "/v1/admin/tenants")
                listed = {t["id"]: t for t in doc["tenants"]}
                assert listed["initech"]["ingested_records"] == 1
                status, _ = await admin.request(
                    "DELETE", "/v1/admin/tenants/initech"
                )
                assert status == 200
                status, _ = await init.request("GET", "/v1/keys")
                assert status == 401  # token revoked with the tenant
                status, _ = await admin.request(
                    "DELETE", "/v1/admin/tenants/initech"
                )
                assert status == 404
                await admin.aclose()
                await init.aclose()

        run(main())


class TestLimits:
    def test_rate_limited_tenant_gets_429_other_continues(
        self, gateway_ctx
    ):
        async def main():
            tenants = [
                Tenant(id="small", token="tok-small", rate_records=4.0),
                Tenant(id="big", token="tok-big"),
            ]
            async with gateway_ctx(tenants=tenants) as (gw, *_):
                small = client_for(gw, "tok-small")
                big = client_for(gw, "tok-big")
                await small.ingest([["k", i, i] for i in range(4)])
                status, payload = await small.request(
                    "POST", "/v1/ingest", {"records": [["k", 9, 9]]}
                )
                assert status == 429
                assert int(small.last_headers["retry-after"]) >= 1
                # The unlimited tenant is unaffected mid-breach.
                for _ in range(3):
                    doc = await big.ingest(
                        [["k", i, i] for i in range(50)], sync=True
                    )
                    assert doc["queued"] == 50
                stats = await small.stats()
                assert stats["rejected"]["rate_limit"] == 1
                assert stats["ingested_records"] == 4
                await small.aclose()
                await big.aclose()

        run(main())

    def test_byte_budget_429(self, gateway_ctx):
        async def main():
            tenants = [
                Tenant(id="tiny", token="tok-tiny", rate_bytes=64.0),
            ]
            async with gateway_ctx(tenants=tenants) as (gw, *_):
                c = client_for(gw, "tok-tiny")
                # One batch is admitted even though it exceeds the burst
                # (the clamp); the balance goes deep negative, so the
                # next request is refused with a proportional wait.
                await c.ingest([["key-name", 1.25, 2.5]] * 8)
                status, _ = await c.request(
                    "POST", "/v1/ingest", {"records": [["k", 1, 1]]}
                )
                assert status == 429
                assert int(c.last_headers["retry-after"]) >= 1
                await c.aclose()

        run(main())

    def test_quota_403_is_atomic(self, gateway_ctx):
        async def main():
            tenants = [
                Tenant(id="capped", token="tok-cap", max_keys=2),
                Tenant(id="free", token="tok-free"),
            ]
            async with gateway_ctx(tenants=tenants) as (
                gw, service, _registry,
            ):
                c = client_for(gw, "tok-cap")
                await c.ingest([["a", 1, 1], ["b", 2, 2]], sync=True)
                # A batch mixing an existing key with one over quota is
                # refused whole, before anything reaches the engine.
                status, payload = await c.request(
                    "POST",
                    "/v1/ingest",
                    {"records": [["a", 3, 3], ["c", 4, 4]]},
                )
                assert status == 403
                assert "quota" in payload["error"]
                await service.flush()
                assert sorted(await service.keys()) == [
                    "capped:a", "capped:b",
                ]
                assert await c.hull("a") == [(1.0, 1.0)]
                # Existing keys keep ingesting under the cap.
                await c.ingest([["a", 5, 5]], sync=True)
                # The other tenant's identically named keys are theirs.
                free = client_for(gw, "tok-free")
                await free.ingest([["c", 0, 0]], sync=True)
                assert await free.keys() == ["c"]
                assert await c.keys() == ["a", "b"]
                await c.aclose()
                await free.aclose()

        run(main())

    def test_concurrent_ingests_cannot_exceed_quota(self, gateway_ctx):
        async def main():
            tenants = [Tenant(id="capped", token="tok-cap", max_keys=1)]
            async with gateway_ctx(tenants=tenants) as (
                gw, service, _registry,
            ):
                # Hold every enqueue long enough that both requests sit
                # past their quota checks at the same time: the novel
                # keys must be reserved against the ledger *before*
                # that await, or both batches pass.
                orig = service.ingest_arrays

                async def slow_ingest(*a, **kw):
                    await asyncio.sleep(0.05)
                    return await orig(*a, **kw)

                service.ingest_arrays = slow_ingest
                a = client_for(gw, "tok-cap")
                b = client_for(gw, "tok-cap")
                results = await asyncio.gather(
                    a.request(
                        "POST", "/v1/ingest",
                        {"records": [["one", 1, 1]], "sync": True},
                    ),
                    b.request(
                        "POST", "/v1/ingest",
                        {"records": [["two", 2, 2]], "sync": True},
                    ),
                )
                assert sorted(s for s, _ in results) == [202, 403]
                await service.flush()
                assert len(list(await service.keys())) == 1
                await a.aclose()
                await b.aclose()

        run(main())


    @pytest.mark.parametrize(
        "refresh", ["/v1/keys", "/v1/stats", "/metrics"]
    )
    def test_ledger_refresh_keeps_inflight_reservations(
        self, gateway_ctx, refresh
    ):
        """A ledger refresh (behind /v1/keys, /v1/stats and /metrics)
        that lands while a quota-checked batch waits to be enqueued
        must keep that batch's key reservation — re-deriving the ledger
        from the engine's live keys alone would free the slot, and a
        second new key would pass the quota too."""

        async def main():
            tenants = [Tenant(id="capped", token="tok-cap", max_keys=1)]
            async with gateway_ctx(tenants=tenants) as (
                gw, service, _registry,
            ):
                orig = service.ingest_arrays
                held, release = asyncio.Event(), asyncio.Event()

                async def held_first(*a, **kw):
                    if not held.is_set():
                        held.set()
                        await release.wait()
                    return await orig(*a, **kw)

                service.ingest_arrays = held_first
                a = client_for(gw, "tok-cap")
                b = client_for(gw, "tok-cap")
                first = asyncio.ensure_future(
                    a.request(
                        "POST", "/v1/ingest",
                        {"records": [["one", 1, 1]], "sync": True},
                    )
                )
                await held.wait()  # "one" passed its quota check
                status, _ = await b.request("GET", refresh)
                assert status == 200
                status, payload = await b.request(
                    "POST", "/v1/ingest",
                    {"records": [["two", 2, 2]], "sync": True},
                )
                assert status == 403, payload
                assert "quota" in payload["error"]
                release.set()
                status, _ = await first
                assert status == 202
                await service.flush()
                assert await service.keys() == ["capped:one"]
                await a.aclose()
                await b.aclose()

        run(main())


class TestSSE:
    def test_subscription_is_namespaced(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                acme = client_for(gw, "tok-acme")
                globex = client_for(gw, "tok-globex")
                stream = await acme.subscribe()
                # Another tenant's ingest (same client-side key name!)
                # must never surface on this stream.
                await globex.ingest([["shared", 9, 9]], sync=True)
                with pytest.raises(asyncio.TimeoutError):
                    await stream.next_event(timeout=0.3)
                await acme.ingest([["shared", 1, 1]], sync=True)
                event = await stream.next_event(timeout=5.0)
                assert event["event"] == "update"
                assert event["data"]["keys"] == ["shared"]  # unscoped
                await stream.aclose()
                await acme.aclose()
                await globex.aclose()

        run(main())

    def test_key_filter_query(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                c = client_for(gw, "tok-acme")
                stream = await c.subscribe(keys=["watched"])
                await c.ingest([["other", 1, 1]], sync=True)
                with pytest.raises(asyncio.TimeoutError):
                    await stream.next_event(timeout=0.3)
                await c.ingest([["watched", 2, 2]], sync=True)
                event = await stream.next_event(timeout=5.0)
                assert event["data"]["keys"] == ["watched"]
                await stream.aclose()
                await c.aclose()

        run(main())

    def test_heartbeat_keeps_idle_stream_alive(self, gateway_ctx):
        async def main():
            async with gateway_ctx(sse_heartbeat=0.05) as (gw, *_):
                c = client_for(gw, "tok-acme")
                stream = await c.subscribe()
                # An idle stream gets comment frames (on every Python
                # the CI matrix runs — asyncio.TimeoutError was not the
                # builtin until 3.11), never a JSON 500...
                raw = await asyncio.wait_for(
                    stream._reader.readline(), timeout=5.0
                )
                assert raw.startswith(b":")
                # ...and stays live for real events afterwards.
                await c.ingest([["k", 1, 1]], sync=True)
                event = await stream.next_event(timeout=5.0)
                assert event["event"] == "update"
                assert event["data"]["keys"] == ["k"]
                await stream.aclose()
                await c.aclose()

        run(main())

    def test_subscribe_requires_auth(self, gateway_ctx):
        async def main():
            async with gateway_ctx() as (gw, *_):
                anon = GatewayClient("127.0.0.1", gw.port)
                with pytest.raises(GatewayHTTPError) as err:
                    await anon.subscribe()
                assert err.value.status == 401
                await anon.aclose()

        run(main())


class TestMetrics:
    def test_metrics_expose_per_tenant_counters(self, gateway_ctx):
        async def main():
            tenants = [
                Tenant(id="acme", token="tok-acme", rate_records=1.0),
                Tenant(id="globex", token="tok-globex"),
            ]
            async with gateway_ctx(tenants=tenants) as (gw, *_):
                acme = client_for(gw, "tok-acme")
                globex = client_for(gw, "tok-globex")
                await acme.ingest([["k", 1, 1]], sync=True)
                await globex.ingest([["k", 2, 2]], sync=True)
                status, _ = await acme.request(
                    "POST", "/v1/ingest", {"records": [["k", 3, 3]]}
                )
                assert status == 429
                text = await globex.metrics_text()
                assert (
                    'repro_gateway_ingest_records_total{tenant="acme"} 1'
                    in text
                )
                assert (
                    'repro_gateway_ingest_records_total{tenant="globex"} 1'
                    in text
                )
                assert (
                    'repro_gateway_rejected_total{tenant="acme",'
                    'reason="rate_limit"} 1' in text
                )
                assert 'repro_gateway_tenant_keys{tenant="acme"} 1' in text
                await acme.aclose()
                await globex.aclose()

        run(main())

    def test_dedicated_metrics_port(self, gateway_ctx):
        async def main():
            async with gateway_ctx(metrics_port=0) as (gw, *_):
                assert gw.metrics_port not in (None, 0, gw.port)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gw.metrics_port
                )
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"200" in head.split(b"\r\n", 1)[0]
                assert b"repro_gateway_requests_total" in body

        run(main())


class TestClientRetry:
    def test_only_get_is_replayed_on_connection_drop(self):
        async def main():
            # A server that reads one request line and hangs up without
            # answering, counting connections.
            conns = []

            async def handle(reader, writer):
                conns.append(None)
                await reader.readline()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                # POST is not idempotent: one connection, no replay —
                # the server may have applied the batch already.
                c = GatewayClient("127.0.0.1", port, "tok")
                with pytest.raises(ConnectionError):
                    await c.request(
                        "POST", "/v1/ingest", {"records": []}
                    )
                assert len(conns) == 1
                await c.aclose()
                # GET retries once before giving up.
                del conns[:]
                c = GatewayClient("127.0.0.1", port, "tok")
                with pytest.raises(ConnectionError):
                    await c.request("GET", "/v1/keys")
                assert len(conns) == 2
                await c.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run(main())


@pytest.mark.parametrize("tier", ["stream", "sharded"])
def test_advance_time_non_finite_now_is_400(gateway_ctx, tier):
    """``{"now": Infinity}`` / ``NaN`` is a client error on both tiers
    (the engine refuses it before logging or broadcasting), and the
    clock keeps working afterwards."""
    from repro.shard import ShardedEngine, SummarySpec

    window = WindowConfig(horizon=5.0)
    if tier == "stream":
        engine = StreamEngine(lambda: AdaptiveHull(R), window=window)
    else:
        engine = ShardedEngine(
            SummarySpec("AdaptiveHull", {"r": R}), shards=2, window=window
        )

    async def main():
        async with gateway_ctx(engine=engine) as (gw, *_):
            admin = client_for(gw, ADMIN_TOKEN)
            for now in (float("inf"), float("-inf"), float("nan")):
                status, payload = await admin.request(
                    "POST", "/v1/advance_time", {"now": now}
                )
                assert status == 400, (now, payload)
                assert "finite" in payload["error"]
            status, payload = await admin.request(
                "POST", "/v1/advance_time", {"now": 1.0}
            )
            assert (status, payload) == (200, {"expired": 0})
            await admin.aclose()

    run(main())
