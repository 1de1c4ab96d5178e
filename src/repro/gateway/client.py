"""Asyncio client for the gateway's REST + SSE surface.

:class:`GatewayClient` keeps one HTTP/1.1 keep-alive connection and
reopens it transparently when the server (or an intervening error)
closed it.  :meth:`GatewayClient.request` is the raw escape hatch —
it returns ``(status, payload)`` without raising, which is what the
auth/limit tests assert against; the convenience verbs raise
:class:`GatewayHTTPError` on any non-2xx answer.

SSE subscriptions open a *dedicated* connection (the stream consumes
it until cancelled) and hand back a :class:`GatewaySSEStream` whose
:meth:`~GatewaySSEStream.next_event` parses one ``text/event-stream``
frame at a time.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Iterable, Optional, Sequence, Tuple

__all__ = ["GatewayClient", "GatewayHTTPError", "GatewaySSEStream"]


class GatewayHTTPError(Exception):
    """A non-2xx gateway answer, with its status and decoded body."""

    def __init__(self, status: int, payload):
        self.status = int(status)
        self.payload = payload
        detail = (
            payload.get("error") if isinstance(payload, dict) else payload
        )
        super().__init__(f"HTTP {status}: {detail}")


class GatewaySSEStream:
    """One open ``text/event-stream`` response."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer

    async def next_event(self, timeout: Optional[float] = None) -> dict:
        """Parse the next SSE frame into ``{"event", "data", "id"}``
        (``data`` JSON-decoded when possible); comment/heartbeat
        frames are skipped."""

        async def read_frame() -> dict:
            fields = {}
            while True:
                raw = await self._reader.readline()
                if not raw:
                    raise ConnectionError("SSE stream closed")
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if fields:
                        return fields
                    continue  # blank after a comment-only frame
                if line.startswith(":"):
                    continue  # heartbeat comment
                name, _, value = line.partition(":")
                fields[name.strip()] = value.lstrip()

        fields = (
            await asyncio.wait_for(read_frame(), timeout)
            if timeout is not None
            else await read_frame()
        )
        data = fields.get("data", "")
        try:
            data = json.loads(data)
        except ValueError:
            pass
        return {
            "event": fields.get("event", "message"),
            "data": data,
            "id": fields.get("id"),
        }

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


class GatewayClient:
    """Keep-alive HTTP client for one gateway endpoint.

    Args:
        host / port: the gateway's main listener.
        token: bearer token sent on every request (a tenant's, or the
            admin token for the operator verbs); None sends no
            ``Authorization`` header at all.
    """

    def __init__(self, host: str, port: int, token: Optional[str] = None):
        self.host = host
        self.port = int(port)
        self.token = token
        #: Response headers of the most recent :meth:`request` (e.g.
        #: ``Retry-After`` after a 429), lower-cased names.
        self.last_headers: dict = {}
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    # -- raw HTTP ----------------------------------------------------------

    async def _open(self):
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return reader, writer

    def _head(
        self, method: str, path: str, body: bytes, *, sse: bool = False
    ) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        if self.token is not None:
            lines.append(f"Authorization: Bearer {self.token}")
        if sse:
            lines.append("Accept: text/event-stream")
        if body:
            lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    @staticmethod
    async def _read_response(reader) -> Tuple[int, dict, object]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("connection closed before response")
        parts = line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = await reader.readexactly(length) if length else b""
        if headers.get("content-type", "").startswith("application/json"):
            payload = json.loads(body) if body else None
        else:
            payload = body.decode("utf-8", "replace")
        return status, headers, payload

    async def request(
        self, method: str, path: str, doc=None
    ) -> Tuple[int, object]:
        """One round trip; returns ``(status, payload)`` and never
        raises on HTTP-level errors (only transport failures).

        A dropped connection is reopened and the request replayed once
        — but only for GET, which is idempotent.  A POST (an ingest,
        say) may already have been applied before the connection died,
        so replaying it blindly could double-ingest; non-GET callers
        see the transport error and decide for themselves."""
        body = (
            b""
            if doc is None
            else json.dumps(doc, separators=(",", ":")).encode("utf-8")
        )
        payload = self._head(method, path, body) + body
        for attempt in (0, 1):
            if self._writer is None:
                self._reader, self._writer = await self._open()
            try:
                self._writer.write(payload)
                await self._writer.drain()
                status, headers, decoded = await self._read_response(
                    self._reader
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                # The server may have dropped an idle keep-alive
                # connection between requests; reopen once, for
                # idempotent verbs only.
                await self.aclose()
                if attempt or method != "GET":
                    raise
                continue
            self.last_headers = headers
            if headers.get("connection", "").lower() == "close":
                await self.aclose()
            return status, decoded
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _checked(self, method: str, path: str, doc=None):
        status, payload = await self.request(method, path, doc)
        if status >= 400:
            raise GatewayHTTPError(status, payload)
        return payload

    # -- convenience verbs -------------------------------------------------

    async def ingest(
        self, records: Iterable[Sequence], sync: bool = False
    ) -> dict:
        return await self._checked(
            "POST",
            "/v1/ingest",
            {"records": [list(r) for r in records], "sync": sync},
        )

    async def hull(self, key: str):
        doc = await self._checked(
            "GET", f"/v1/hull/{urllib.parse.quote(str(key), safe='')}"
        )
        return [tuple(pt) for pt in doc["hull"]]

    async def flush(self) -> None:
        await self._checked("POST", "/v1/flush")

    @staticmethod
    def _keys_query(path: str, keys) -> str:
        if keys is None:
            return path
        joined = ",".join(urllib.parse.quote(str(k), safe="") for k in keys)
        return f"{path}?keys={joined}"

    async def merged_hull(self, keys=None):
        doc = await self._checked(
            "GET", self._keys_query("/v1/merged_hull", keys)
        )
        return [tuple(pt) for pt in doc["hull"]]

    async def diameter(self, keys=None) -> float:
        path = self._keys_query("/v1/diameter", keys)
        return (await self._checked("GET", path))["diameter"]

    async def width(self, keys=None) -> float:
        path = self._keys_query("/v1/width", keys)
        return (await self._checked("GET", path))["width"]

    async def summary_state(self, key: str) -> Optional[dict]:
        """One key's summary state document (None when not live)."""
        status, doc = await self.request(
            "GET", f"/v1/summary/{urllib.parse.quote(str(key), safe='')}"
        )
        if status == 404:
            return None
        if status >= 400:
            raise GatewayHTTPError(status, doc)
        return doc["summary"]

    async def keys(self):
        return (await self._checked("GET", "/v1/keys"))["keys"]

    async def late_drops(self) -> dict:
        return (await self._checked("GET", "/v1/late_drops"))["late_drops"]

    async def stats(self) -> dict:
        return await self._checked("GET", "/v1/stats")

    async def advance_time(self, now: float) -> int:
        doc = await self._checked(
            "POST", "/v1/advance_time", {"now": float(now)}
        )
        return doc["expired"]

    async def snapshot(self, path: Optional[str] = None):
        """Admin: write a server-side snapshot file and return its path,
        or (no ``path``) return the whole engine state inline."""
        if path is None:
            return (await self._checked("POST", "/v1/snapshot", {}))["state"]
        doc = await self._checked("POST", "/v1/snapshot", {"path": str(path)})
        return doc["path"]

    async def resize(self, shards: int) -> dict:
        """Admin: resize the sharded ring online; returns the event."""
        doc = await self._checked(
            "POST", "/v1/resize", {"shards": int(shards)}
        )
        return doc["resize"]

    async def metrics_text(self) -> str:
        return await self._checked("GET", "/metrics")

    async def subscribe(self, keys=None) -> GatewaySSEStream:
        """Open an SSE stream on its own connection (the keep-alive
        request connection stays usable for other verbs)."""
        path = self._keys_query("/v1/subscribe", keys or None)
        reader, writer = await self._open()
        writer.write(self._head("GET", path, b"", sse=True))
        await writer.drain()
        line = await reader.readline()
        status = int(line.decode("latin-1").split(None, 2)[1])
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if status != 200:
            length = int(headers.get("content-length", 0))
            body = await reader.readexactly(length) if length else b""
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            payload = json.loads(body) if body else None
            raise GatewayHTTPError(status, payload)
        return GatewaySSEStream(reader, writer)
