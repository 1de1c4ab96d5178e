"""repro.gateway — multi-tenant HTTP/SSE front door.

The gateway is the tenancy layer over :mod:`repro.serve`: bearer-token
auth, per-tenant key namespaces, token-bucket ingest rate limits,
live-key quotas, and Server-Sent-Events push — all on top of an
unchanged engine stack, so per-key hulls stay bit-identical to a
single-tenant engine fed the same records.

Quickstart::

    import asyncio
    from repro.core import AdaptiveHull
    from repro.engine import StreamEngine
    from repro.serve import AsyncHullService
    from repro.gateway import (
        GatewayClient, HullGateway, Tenant, TenantRegistry,
    )

    async def main():
        registry = TenantRegistry(
            [Tenant(id="acme", token="acme-token", rate_records=1000)],
            admin_token="s3cret",
        )
        engine = StreamEngine(lambda: AdaptiveHull(64))
        async with AsyncHullService(engine) as service:
            async with HullGateway(service, registry) as gw:
                client = GatewayClient("127.0.0.1", gw.port, "acme-token")
                await client.ingest(
                    [["sensor", 0, 0], ["sensor", 1, 1]], sync=True
                )
                print(await client.hull("sensor"))
                await client.aclose()

    asyncio.run(main())

Or from the shell: ``python -m repro gateway --tenants tenants.json``.
"""

from .client import GatewayClient, GatewayHTTPError, GatewaySSEStream
from .ratelimit import TenantLimiter, TokenBucket
from .server import GatewayError, HullGateway, tenant_dead_letter_hook
from .tenants import (
    NAMESPACE_SEP,
    Tenant,
    TenantRegistry,
    scope_key,
    split_key,
)

__all__ = [
    "NAMESPACE_SEP",
    "GatewayClient",
    "GatewayError",
    "GatewayHTTPError",
    "GatewaySSEStream",
    "HullGateway",
    "Tenant",
    "TenantLimiter",
    "TenantRegistry",
    "TokenBucket",
    "scope_key",
    "split_key",
    "tenant_dead_letter_hook",
]
