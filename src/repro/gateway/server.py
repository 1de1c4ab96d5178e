"""The multi-tenant HTTP/SSE front door over :class:`AsyncHullService`.

:class:`HullGateway` binds a REST surface onto an already-started
service facade — it is the package's one network front door — and adds
a tenancy layer on top:

* **auth** — every ``/v1`` verb demands ``Authorization: Bearer
  <token>``; tokens resolve through the constant-time
  :class:`~repro.gateway.tenants.TenantRegistry`.  Missing/unknown
  tokens get 401, a disabled tenant or an admin-only verb gets 403.
* **namespaces** — client keys are prefixed with the tenant id before
  they reach the service, and stripped again on the way out, so the
  ring/window/WAL stack stays tenancy-free and per-key hulls are
  bit-identical to a single-tenant engine fed the same records.
  Cross-tenant reads are impossible by construction: no verb ever
  interprets a client-supplied key outside the caller's own prefix.
* **rate limits** — per-tenant records/sec + bytes/sec token buckets
  admit or refuse each ingest atomically; a refusal is 429 with a
  ``Retry-After`` header and charges neither budget.
* **quotas** — a per-tenant live-key ledger is checked *before* the
  batch is enqueued, so a quota rejection (403) is atomic: nothing
  reaches the engine or its WAL.
* **SSE push** — ``GET /v1/subscribe`` streams the service's
  standing-query notifications as ``text/event-stream`` frames,
  filtered server-side to the tenant's namespace.

Verbs (all JSON unless noted)::

    POST   /v1/ingest             {"records": [[key,x,y(,ts)],...], "sync": bool}
    POST   /v1/flush              barrier: everything enqueued is applied
    GET    /v1/hull/<key>         one key's hull vertices
    GET    /v1/merged_hull[?keys=a,b]   union hull of the tenant's keys
    GET    /v1/diameter[?keys=a,b]      ... its diameter
    GET    /v1/width[?keys=a,b]         ... its width
    GET    /v1/summary/<key>      one key's repro.streams.io summary state
    GET    /v1/keys               the tenant's live keys
    GET    /v1/late_drops         per-key later-than-watermark drop counts
    GET    /v1/stats              tenant usage (admin token: global view)
    POST   /v1/advance_time      {"now": t}           (admin only)
    POST   /v1/snapshot          {"path": p} or {}    (admin only)
    POST   /v1/resize            {"shards": n}        (admin only)
    GET    /v1/subscribe[?keys=a,b]                   (SSE stream)
    GET    /v1/admin/tenants                          (admin only)
    POST   /v1/admin/tenants      tenant document     (admin only)
    DELETE /v1/admin/tenants/<id>                     (admin only)
    GET    /metrics               Prometheus text     (unauthenticated)
    GET    /healthz               liveness            (unauthenticated)

``advance_time``, ``snapshot`` and ``resize`` are admin-only on
purpose: each acts on the whole engine (the event clock is global, so
one tenant advancing it would expire every other tenant's time
windows).  The extent folds (``merged_hull``/``diameter``/``width``)
run over the caller's own live keys, or over the listed ones — always
inside the caller's namespace.

The server is plain stdlib asyncio — an HTTP/1.1 keep-alive loop per
connection, one request in flight at a time (no pipelining), chunked
uploads refused with 501.  That is all curl, browsers, and the bundled
:class:`~repro.gateway.client.GatewayClient` need.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
import urllib.parse
from typing import Dict, Iterable, Optional, Set, Tuple

from ..obs import metrics as OBS
from .ratelimit import TenantLimiter
from .tenants import Tenant, TenantRegistry

__all__ = ["HullGateway", "GatewayError", "tenant_dead_letter_hook"]

MAX_HEADERS = 100
MAX_BODY = 1 << 26  # 64 MiB request-body cap

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

#: Sentinel a handler returns after taking over the connection (SSE).
_STREAMED = object()

#: ``/v1/<verb>`` names that get their own metrics label.  A fixed set:
#: client-controlled paths must never mint new label children.
_VERBS = frozenset(
    {
        "ingest", "flush", "hull", "merged_hull", "diameter", "width",
        "summary", "keys", "late_drops", "stats", "advance_time",
        "snapshot", "resize", "subscribe",
    }
)


class GatewayError(Exception):
    """An HTTP error response raised from inside a verb handler."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Iterable[Tuple[str, str]] = (),
    ):
        super().__init__(message)
        self.status = int(status)
        self.headers = tuple(headers)


def tenant_dead_letter_hook(chain=None):
    """An engine ``on_late`` hook attributing dead letters to tenants.

    Splits the tenant id back out of each late batch's scoped key and
    bumps the per-tenant dead-letter counter; keys without a namespace
    (an embedding application sharing the engine) are attributed to
    ``"_unscoped"``.  ``chain`` is called afterwards with the original
    arguments, so this composes with
    :func:`repro.durable.attach_dead_letters` the same way every other
    ``_on_late`` wrapper in the stack does.
    """

    def hook(key, points, ts, watermark):
        scoped = str(key)
        tenant_id, sep, _ = scoped.partition(":")
        if not sep:
            tenant_id = "_unscoped"
        OBS.GATEWAY_DEAD_LETTER_RECORDS.labels(tenant_id).inc(len(points))
        if chain is not None:
            chain(key, points, ts, watermark)

    return hook


class _TenantState:
    """Per-tenant runtime state the registry's static config drives."""

    __slots__ = (
        "limiter",
        "keys",
        "pending",
        "ingested_records",
        "ingested_bytes",
        "rejected",
        "last_error",
    )

    def __init__(self, tenant: Tenant, *, clock):
        self.limiter = TenantLimiter(tenant, clock=clock)
        self.keys: Set[str] = set()  # scoped live-key ledger
        # Novel keys reserved by batches that passed the quota check but
        # have not gone through the engine yet; every ledger refresh
        # keeps them, or a refresh racing an in-flight batch would free
        # its quota slot for a second batch.
        self.pending: Set[str] = set()
        self.ingested_records = 0
        self.ingested_bytes = 0
        self.rejected: Dict[str, int] = {}
        self.last_error: Optional[str] = None

    def count_reject(self, tenant: Tenant, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        OBS.GATEWAY_REJECTED.labels(tenant.id, reason).inc()

    def refresh(self, tenant: Tenant, live) -> None:
        """Re-derive the key ledger from the engine's live keys, keeping
        in-flight reservations."""
        self.keys = {k for k in live if tenant.owns(k)} | self.pending
        OBS.GATEWAY_TENANT_KEYS.labels(tenant.id).set(len(self.keys))


class HullGateway:
    """Multi-tenant HTTP/SSE gateway (see module docstring).

    Args:
        service: a *started* :class:`~repro.serve.AsyncHullService`
            (either engine tier beneath it).  The gateway never owns
            it; close order is gateway first, then service.
        registry: the :class:`TenantRegistry` to authenticate against;
            mutable at runtime through the admin verbs.
        host / port: main listener bind (port 0 = ephemeral; the bound
            port is :attr:`port` after :meth:`start`).
        metrics_port: optional extra plain-HTTP listener serving only
            ``GET /metrics`` — the Prometheus scrape target when the
            main port sits behind client auth at the network layer.
        sse_heartbeat: seconds between ``: keep-alive`` comment frames
            on idle SSE streams (keeps proxies from reaping them).
        clock: monotonic clock injected into every tenant's rate
            limiter (tests advance it explicitly).
    """

    def __init__(
        self,
        service,
        registry: TenantRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: Optional[int] = None,
        sse_heartbeat: float = 15.0,
        clock=time.monotonic,
    ):
        if sse_heartbeat <= 0.0:
            raise ValueError("sse_heartbeat must be positive")
        self.service = service
        self.registry = registry
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.sse_heartbeat = float(sse_heartbeat)
        self._clock = clock
        self._states: Dict[str, _TenantState] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "HullGateway":
        if self._server is not None:
            return self
        # Seed each tenant's live-key ledger from the engine: a gateway
        # over a recovered (WAL-replayed) engine must count the keys
        # that already exist against the quota.
        live = await self.service.keys()
        for tenant in self.registry.tenants():
            self._state(tenant).refresh(tenant, live)
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_conn, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        return self

    async def __aenter__(self) -> "HullGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop listening and tear down open connections (idempotent).

        The underlying service is left running — it has its own
        lifecycle and may be shared."""
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        self._conns.clear()

    # -- tenant runtime state ----------------------------------------------

    def _state(self, tenant: Tenant) -> _TenantState:
        state = self._states.get(tenant.id)
        if state is None:
            state = _TenantState(tenant, clock=self._clock)
            self._states[tenant.id] = state
        return state

    async def _refresh_ledgers(self) -> None:
        """Re-derive every tenant's key ledger and late-drop gauge from
        the engine (the ledger is advisory between refreshes: a
        fire-and-forget batch the engine later rejects, or a window
        expiry, can leave it stale until the next stats/keys/metrics
        call)."""
        live = await self.service.keys()
        late = await self.service.late_drops()
        for tenant in self.registry.tenants():
            self._state(tenant).refresh(tenant, live)
            OBS.GATEWAY_LATE_DROPPED.labels(tenant.id).set(
                sum(n for k, n in late.items() if tenant.owns(k))
            )

    # -- connection loop ---------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        OBS.GATEWAY_CONNECTIONS.inc()
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, query, headers, body, keep_alive = request
                streamed = await self._dispatch(
                    method, path, query, headers, body, writer, keep_alive
                )
                if streamed or not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass
        except asyncio.CancelledError:
            pass  # gateway shutdown
        finally:
            OBS.GATEWAY_CONNECTIONS.dec()
            self._conns.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader, writer):
        """Parse one request; returns None when the connection should
        close (EOF or a protocol error already answered)."""
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            await self._protocol_error(writer, 431, "request line too long")
            return None
        if not line:
            return None  # clean EOF between requests
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._protocol_error(writer, 400, "malformed request line")
            return None
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                await self._protocol_error(writer, 431, "header too long")
                return None
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                await self._protocol_error(writer, 431, "too many headers")
                return None
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            await self._protocol_error(
                writer, 501, "chunked uploads are not supported"
            )
            return None
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
                if length < 0:
                    raise ValueError
            except ValueError:
                await self._protocol_error(
                    writer, 400, "bad Content-Length"
                )
                return None
            if length > MAX_BODY:
                await self._protocol_error(
                    writer, 413, f"body exceeds {MAX_BODY} bytes"
                )
                return None
            if headers.get("expect", "").lower() == "100-continue":
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
            if length:
                body = await reader.readexactly(length)
        path, _, raw_query = target.partition("?")
        query = urllib.parse.parse_qs(raw_query)
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        return method.upper(), path, query, headers, body, keep_alive

    async def _protocol_error(self, writer, status, message) -> None:
        OBS.GATEWAY_REQUESTS.labels("other", str(status)).inc()
        try:
            self._write_json(
                writer, status, {"error": message}, keep_alive=False
            )
            await writer.drain()
        except ConnectionError:
            pass

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(
        self, method, path, query, headers, body, writer, keep_alive
    ):
        """Route + auth + handle one request, write the response, and
        record the request metrics.  Returns True when the handler took
        over the connection (SSE)."""
        segs = [urllib.parse.unquote(s) for s in path.split("/")[1:]]
        verb = self._verb_label(segs)
        t0 = time.perf_counter()
        status = 500
        try:
            result = await self._route(
                method, segs, query, headers, body, writer
            )
            if result is _STREAMED:
                status = 200
                return True
            status, payload, extra = result
            self._write_json(
                writer, status, payload, keep_alive=keep_alive, extra=extra
            )
        except GatewayError as exc:
            status = exc.status
            self._write_json(
                writer,
                status,
                {"error": str(exc)},
                keep_alive=keep_alive,
                extra=exc.headers,
            )
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - server boundary
            status = 500
            self._write_json(
                writer,
                status,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=keep_alive,
            )
        finally:
            OBS.GATEWAY_REQUESTS.labels(verb, str(status)).inc()
            OBS.GATEWAY_REQUEST_SECONDS.labels(verb).observe(
                time.perf_counter() - t0
            )
        await writer.drain()
        return False

    @staticmethod
    def _verb_label(segs) -> str:
        """A fixed-vocabulary metrics label — never the raw path, which
        would be unbounded label cardinality."""
        if segs == ["healthz"]:
            return "healthz"
        if segs == ["metrics"]:
            return "metrics"
        if len(segs) >= 2 and segs[0] == "v1":
            if segs[1] == "admin":
                return "admin_tenants"
            if segs[1] in _VERBS:
                return segs[1]
        return "other"

    async def _route(self, method, segs, query, headers, body, writer):
        """Resolve one request to a handler result tuple
        ``(status, payload, extra_headers)`` or the SSE sentinel."""
        if segs == ["healthz"]:
            self._expect(method, "GET")
            return 200, {"ok": True}, ()
        if segs == ["metrics"]:
            self._expect(method, "GET")
            await self._refresh_ledgers()
            text = await self.service.metrics_text()
            self._write_raw(
                writer,
                200,
                text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return _STREAMED  # raw body already written; close after
        if not segs or segs[0] != "v1" or len(segs) < 2:
            raise GatewayError(404, "unknown path")

        if segs[1] == "admin":
            self._require_admin(headers)
            if segs[2:] == ["tenants"]:
                if method == "GET":
                    return self._h_admin_list()
                if method == "POST":
                    return self._h_admin_upsert(body)
                self._expect(method, "GET")  # raises 405 (Allow GET/POST)
            if len(segs) == 4 and segs[2] == "tenants":
                self._expect(method, "DELETE")
                return self._h_admin_remove(segs[3])
            raise GatewayError(404, "unknown admin path")

        if segs[1] == "advance_time" and len(segs) == 2:
            self._expect(method, "POST")
            self._require_admin(headers)
            return await self._h_advance_time(body)
        if segs[1] == "snapshot" and len(segs) == 2:
            self._expect(method, "POST")
            self._require_admin(headers)
            return await self._h_snapshot(body)
        if segs[1] == "resize" and len(segs) == 2:
            self._expect(method, "POST")
            self._require_admin(headers)
            return await self._h_resize(body)
        if segs[1] == "flush" and len(segs) == 2:
            # The barrier acts on the whole queue, like the admin
            # verbs, but reveals nothing: any valid token may wait.
            self._expect(method, "POST")
            if not self.registry.is_admin(self._token(headers)):
                self._require_tenant(headers)
            await self.service.flush()
            return 200, {"flushed": True}, ()

        if segs[1] == "stats" and len(segs) == 2:
            self._expect(method, "GET")
            if self.registry.is_admin(self._token(headers)):
                # The admin token owns no namespace, so its stats view
                # is the documented global one.
                return await self._h_admin_stats()
            tenant, state = self._require_tenant(headers)
            return await self._h_stats(tenant, state)

        tenant, state = self._require_tenant(headers)
        if segs[1] == "ingest" and len(segs) == 2:
            self._expect(method, "POST")
            return await self._h_ingest(tenant, state, body)
        if segs[1] == "hull" and len(segs) == 3:
            self._expect(method, "GET")
            return await self._h_hull(tenant, state, segs[2])
        if segs[1] in ("merged_hull", "diameter", "width") and len(segs) == 2:
            self._expect(method, "GET")
            return await self._h_extent(tenant, segs[1], query)
        if segs[1] == "summary" and len(segs) == 3:
            self._expect(method, "GET")
            return await self._h_summary(tenant, segs[2])
        if segs[1] == "keys" and len(segs) == 2:
            self._expect(method, "GET")
            return await self._h_keys(tenant, state)
        if segs[1] == "late_drops" and len(segs) == 2:
            self._expect(method, "GET")
            return await self._h_late_drops(tenant)
        if segs[1] == "subscribe" and len(segs) == 2:
            self._expect(method, "GET")
            await self._h_subscribe(tenant, query, writer)
            return _STREAMED
        raise GatewayError(404, "unknown path")

    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise GatewayError(
                405,
                f"method {method} not allowed",
                headers=(("Allow", allowed),),
            )

    # -- auth --------------------------------------------------------------

    def _token(self, headers) -> str:
        value = headers.get("authorization", "")
        scheme, _, token = value.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            OBS.GATEWAY_AUTH_FAILURES.inc()
            raise GatewayError(
                401,
                "missing bearer token",
                headers=(("WWW-Authenticate", "Bearer"),),
            )
        return token.strip()

    def _require_tenant(self, headers) -> Tuple[Tenant, _TenantState]:
        token = self._token(headers)
        tenant = self.registry.by_token(token)
        if tenant is None:
            if self.registry.is_admin(token):
                # The admin token is an operator identity: it owns no
                # key namespace, so data verbs have nothing to scope.
                raise GatewayError(
                    403, "admin token has no tenant namespace"
                )
            OBS.GATEWAY_AUTH_FAILURES.inc()
            raise GatewayError(
                401,
                "unknown token",
                headers=(("WWW-Authenticate", "Bearer"),),
            )
        if not tenant.enabled:
            raise GatewayError(403, f"tenant {tenant.id!r} is disabled")
        return tenant, self._state(tenant)

    def _require_admin(self, headers) -> None:
        token = self._token(headers)
        if not self.registry.is_admin(token):
            raise GatewayError(403, "admin token required")

    # -- verb handlers -----------------------------------------------------

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            doc = json.loads(body)
        except ValueError as exc:
            raise GatewayError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise GatewayError(400, "request body must be a JSON object")
        return doc

    async def _h_ingest(self, tenant, state, body):
        doc = self._json_body(body)
        records = doc.get("records")
        if not isinstance(records, list):
            raise GatewayError(400, "'records' must be a list")
        sync = bool(doc.get("sync", False))
        keys, pts, ts_list = [], [], []
        for rec in records:
            if not isinstance(rec, (list, tuple)) or len(rec) not in (3, 4):
                state.count_reject(tenant, "bad_request")
                raise GatewayError(
                    400, "each record must be [key, x, y] or [key, x, y, ts]"
                )
            key = rec[0]
            if not isinstance(key, str):
                # JSON keys that are numbers are legal; they become the
                # string the hull/keys verbs address them by.
                if isinstance(key, bool) or not isinstance(key, (int, float)):
                    state.count_reject(tenant, "bad_request")
                    raise GatewayError(
                        400, "record keys must be strings or numbers"
                    )
                key = str(key)
            keys.append(tenant.scope(key))
            pts.append(rec[1:3])
            if len(rec) == 4:
                ts_list.append(rec[3])
        if ts_list and len(ts_list) != len(records):
            state.count_reject(tenant, "bad_request")
            raise GatewayError(
                400, "either every record carries a ts or none does"
            )

        wait = state.limiter.admit(len(records), len(body))
        if wait > 0.0:
            state.count_reject(tenant, "rate_limit")
            raise GatewayError(
                429,
                f"tenant {tenant.id!r} over ingest rate",
                headers=(
                    ("Retry-After", str(max(1, math.ceil(wait)))),
                ),
            )

        novel = {k for k in keys if k not in state.keys}
        if (
            tenant.max_keys is not None
            and len(state.keys) + len(novel) > tenant.max_keys
        ):
            state.count_reject(tenant, "quota")
            raise GatewayError(
                403,
                f"tenant {tenant.id!r} live-key quota "
                f"({tenant.max_keys}) exceeded",
            )
        # Reserve the novel keys *before* the enqueue awaits: a
        # concurrent ingest on another connection must see them counted
        # against the quota, or two in-flight batches could each pass
        # the check above and collectively exceed max_keys.  The
        # reservation lasts until the batch went through the engine
        # (then the engine's own key set carries it) and is dropped
        # from the ledger if nothing reaches the engine.
        state.keys.update(novel)
        state.pending.update(novel)

        loop = asyncio.get_running_loop()
        applied = loop.create_future()

        def on_result(exc):
            # Runs on the event loop once this batch went through the
            # engine: attribute drain-time rejections to this tenant.
            state.pending.difference_update(novel)
            if exc is not None:
                state.keys.difference_update(novel)
                state.count_reject(tenant, "engine")
                state.last_error = f"{type(exc).__name__}: {exc}"
            if not applied.done():
                applied.set_result(exc)

        try:
            accepted = await self.service.ingest_arrays(
                keys,
                pts,
                ts=ts_list if ts_list else None,
                on_result=on_result,
            )
        except BaseException as exc:
            # Nothing was enqueued (validation failed, or the service is
            # closing): release the reservation.
            state.pending.difference_update(novel)
            state.keys.difference_update(novel)
            if not isinstance(exc, (ValueError, TypeError)):
                raise
            # Producer-side validation (shape, finiteness, ts-vs-window).
            state.count_reject(tenant, "bad_request")
            raise GatewayError(400, str(exc)) from exc
        if sync:
            exc = await applied
            if exc is not None:
                # Already attributed (and the reservation released) by
                # on_result; surface it to the producer that asked to
                # wait.
                raise GatewayError(400, f"engine rejected batch: {exc}")
        state.ingested_records += accepted
        state.ingested_bytes += len(body)
        OBS.GATEWAY_INGEST_RECORDS.labels(tenant.id).inc(accepted)
        OBS.GATEWAY_INGEST_BYTES.labels(tenant.id).inc(len(body))
        return 202, {"queued": accepted, "live_keys": len(state.keys)}, ()

    async def _h_hull(self, tenant, state, key):
        scoped = tenant.scope(key)
        hull = await self.service.hull(scoped)
        if not hull:
            live = await self.service.keys()
            if scoped not in live:
                raise GatewayError(404, f"unknown key {key!r}")
        return (
            200,
            {
                "key": key,
                "hull": [[float(x), float(y)] for x, y in hull],
                "count": len(hull),
            },
            (),
        )

    async def _h_extent(self, tenant, what, query):
        """One of the union-hull folds over the caller's own live keys,
        or over the ``?keys=`` it lists (scoped, so a listed name can
        never reach another tenant's stream)."""
        keys = self._query_keys(tenant, query)
        if keys is None:
            keys = [k for k in await self.service.keys() if tenant.owns(k)]
        if what == "merged_hull":
            hull = await self.service.merged_hull(keys)
            return (
                200,
                {
                    "hull": [[float(x), float(y)] for x, y in hull],
                    "count": len(hull),
                },
                (),
            )
        fold = getattr(self.service, what)  # diameter / width
        return 200, {what: float(await fold(keys))}, ()

    async def _h_summary(self, tenant, key):
        doc = await self.service.summary_state(tenant.scope(key))
        if doc is None:
            raise GatewayError(404, f"unknown key {key!r}")
        return 200, {"key": key, "summary": doc}, ()

    async def _h_keys(self, tenant, state):
        live = await self.service.keys()
        state.refresh(tenant, live)
        names = sorted(k[len(tenant.prefix):] for k in live if tenant.owns(k))
        return 200, {"keys": names, "count": len(names)}, ()

    async def _h_late_drops(self, tenant):
        late = await self.service.late_drops()
        prefix_len = len(tenant.prefix)
        drops = {
            k[prefix_len:]: int(n) for k, n in late.items() if tenant.owns(k)
        }
        return 200, {"late_drops": drops}, ()

    async def _h_stats(self, tenant, state):
        await self._refresh_ledgers()
        late = await self.service.late_drops()
        doc = {
            "tenant": tenant.id,
            "keys": len(state.keys),
            "max_keys": tenant.max_keys,
            "rate_records": tenant.rate_records,
            "rate_bytes": tenant.rate_bytes,
            "ingested_records": state.ingested_records,
            "ingested_bytes": state.ingested_bytes,
            "rejected": dict(state.rejected),
            "late_dropped": sum(
                n for k, n in late.items() if tenant.owns(k)
            ),
            "last_error": state.last_error,
        }
        return 200, doc, ()

    async def _h_admin_stats(self):
        """``GET /v1/stats`` with the admin token: every tenant's usage
        plus engine-wide totals, including keys no tenant owns (an
        embedding application sharing the engine)."""
        await self._refresh_ledgers()
        live = await self.service.keys()
        late = await self.service.late_drops()
        tenants, owned = [], set()
        for tenant in self.registry.tenants():
            state = self._state(tenant)
            owned.update(state.keys)
            tenants.append(
                {
                    "tenant": tenant.id,
                    "keys": len(state.keys),
                    "max_keys": tenant.max_keys,
                    "ingested_records": state.ingested_records,
                    "ingested_bytes": state.ingested_bytes,
                    "rejected": dict(state.rejected),
                    "late_dropped": sum(
                        n for k, n in late.items() if tenant.owns(k)
                    ),
                    "last_error": state.last_error,
                }
            )
        doc = {
            "tenants": tenants,
            "totals": {
                "tenants": len(tenants),
                "keys": len(live),
                "unscoped_keys": len(set(live) - owned),
                "ingested_records": sum(
                    t["ingested_records"] for t in tenants
                ),
                "ingested_bytes": sum(
                    t["ingested_bytes"] for t in tenants
                ),
                "late_dropped": sum(late.values()),
                # The facade's own counters; the registry snapshot it
                # also carries is what /metrics renders.
                "service": {
                    k: v
                    for k, v in self.service.service_stats().items()
                    if k != "obs"
                },
            },
        }
        return 200, doc, ()

    async def _h_advance_time(self, body):
        doc = self._json_body(body)
        now = doc.get("now")
        if isinstance(now, bool) or not isinstance(now, (int, float)):
            raise GatewayError(400, "'now' must be a number")
        try:
            expired = await self.service.advance_time(float(now))
        except ValueError as exc:
            raise GatewayError(400, str(exc)) from exc
        return 200, {"expired": int(expired)}, ()

    async def _h_snapshot(self, body):
        """Write a snapshot file server-side (``{"path": ...}``) or
        return the whole engine state inline (empty body or ``{}``)."""
        path = self._json_body(body).get("path") if body else None
        if path is None:
            return 200, {"state": await self.service.snapshot_state()}, ()
        if not isinstance(path, str) or not path:
            raise GatewayError(400, "'path' must be a non-empty string")
        try:
            written = await self.service.snapshot(path)
        except OSError as exc:
            raise GatewayError(400, f"snapshot failed: {exc}") from exc
        return 200, {"path": str(written)}, ()

    async def _h_resize(self, body):
        shards = self._json_body(body).get("shards")
        if isinstance(shards, bool) or not isinstance(shards, int):
            raise GatewayError(400, "'shards' must be an integer")
        try:
            event = await self.service.resize(shards)
        except ValueError as exc:
            # An in-process engine, or a shard count the ring refuses.
            raise GatewayError(400, str(exc)) from exc
        return 200, {"resize": event}, ()

    @staticmethod
    def _query_keys(tenant, query) -> Optional[Set[str]]:
        """The scoped keys a ``?keys=a,b`` query lists (None: no list)."""
        wanted: Optional[Set[str]] = None
        for part in query.get("keys", []):
            wanted = wanted or set()
            wanted.update(tenant.scope(k) for k in part.split(",") if k)
        return wanted

    async def _h_subscribe(self, tenant, query, writer):
        wanted = self._query_keys(tenant, query)
        if wanted is None:
            key_filter = tenant.owns
        else:
            key_filter = lambda k: tenant.owns(k) and k in wanted  # noqa: E731
        sub = await self.service.subscribe(key_filter=key_filter)
        OBS.GATEWAY_SSE_STREAMS.inc()
        prefix_len = len(tenant.prefix)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        event_id = 0
        try:
            await writer.drain()
            while True:
                try:
                    touched = await asyncio.wait_for(
                        sub.get(), self.sse_heartbeat
                    )
                except (TimeoutError, asyncio.TimeoutError):
                    # Both spellings: asyncio.TimeoutError only became
                    # the builtin on 3.11, and this stream must idle
                    # forever on 3.10 too.
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                event_id += 1
                data = json.dumps(
                    {
                        "keys": sorted(
                            str(k)[prefix_len:] for k in touched
                        )
                    },
                    separators=(",", ":"),
                )
                writer.write(
                    f"id: {event_id}\nevent: update\n"
                    f"data: {data}\n\n".encode("utf-8")
                )
                await writer.drain()
        finally:
            OBS.GATEWAY_SSE_STREAMS.dec()
            try:
                await sub.cancel()
            except Exception:  # noqa: BLE001 - service may be closing
                pass

    # -- admin handlers ----------------------------------------------------

    def _h_admin_list(self):
        docs = []
        for tenant in self.registry.tenants():
            state = self._state(tenant)
            doc = tenant.to_doc(redact=True)
            doc["live_keys"] = len(state.keys)
            doc["ingested_records"] = state.ingested_records
            doc["rejected"] = dict(state.rejected)
            docs.append(doc)
        return 200, {"tenants": docs, "count": len(docs)}, ()

    def _h_admin_upsert(self, body):
        doc = self._json_body(body)
        try:
            tenant = Tenant.from_doc(doc)
            created = tenant.id not in self.registry
            self.registry.add(tenant)
        except ValueError as exc:
            raise GatewayError(400, str(exc)) from exc
        state = self._states.get(tenant.id)
        if state is not None:
            # New limits take effect now; the key ledger and usage
            # counters survive the update.
            state.limiter = TenantLimiter(tenant, clock=self._clock)
        return (
            200,
            {"tenant": tenant.to_doc(redact=True), "created": created},
            (),
        )

    def _h_admin_remove(self, tenant_id):
        try:
            self.registry.remove(tenant_id)
        except KeyError as exc:
            raise GatewayError(404, str(exc)) from exc
        self._states.pop(tenant_id, None)
        # The tenant's summaries stay in the engine (data removal is a
        # retention decision, not an auth one); with the token gone
        # they are unreachable through the gateway.
        return 200, {"removed": tenant_id}, ()

    # -- response writing --------------------------------------------------

    def _write_json(
        self, writer, status, payload, *, keep_alive, extra=()
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        body += b"\n"
        self._write_raw(
            writer,
            status,
            body,
            content_type="application/json",
            keep_alive=keep_alive,
            extra=extra,
        )

    @staticmethod
    def _write_raw(
        writer,
        status,
        body: bytes,
        *,
        content_type: str,
        keep_alive: bool = False,
        extra=(),
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in extra)
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )

    # -- dedicated metrics listener ----------------------------------------

    async def _handle_metrics_conn(self, reader, writer) -> None:
        """Minimal one-shot HTTP responder for Prometheus scrapes."""
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            line = await reader.readline()
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
            parts = line.decode("latin-1").strip().split()
            path = parts[1].partition("?")[0] if len(parts) >= 2 else ""
            if len(parts) >= 2 and parts[0] == "GET" and path in (
                "/metrics", "/healthz",
            ):
                if path == "/healthz":
                    body = b'{"ok":true}\n'
                    ctype = "application/json"
                else:
                    await self._refresh_ledgers()
                    body = (await self.service.metrics_text()).encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                self._write_raw(writer, 200, body, content_type=ctype)
            else:
                self._write_raw(
                    writer,
                    404,
                    b'{"error":"unknown path"}\n',
                    content_type="application/json",
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
