"""Serving-stack plumbing for the over-the-wire suites.

``served`` is a factory fixture: an async context manager that stands
engine -> AsyncHullService -> HullGateway up on an ephemeral port with
one tenant and an admin token, and yields ``(client, admin, service)``
— a :class:`~repro.gateway.GatewayClient` per identity plus the facade.
Tests drive it inside plain ``asyncio.run`` coroutines (no
pytest-asyncio).
"""

import contextlib

import pytest

from repro.gateway import GatewayClient, HullGateway, Tenant, TenantRegistry
from repro.serve import AsyncHullService

TENANT = Tenant(id="t", token="tok-t")
ADMIN_TOKEN = "tok-admin"


@pytest.fixture
def tenant():
    """The one tenant ``served`` registers (its ``scope`` maps client
    keys to the engine keys the service sees)."""
    return TENANT


@pytest.fixture
def served():
    @contextlib.asynccontextmanager
    async def ctx(engine, **gw_kwargs):
        registry = TenantRegistry([TENANT], admin_token=ADMIN_TOKEN)
        async with AsyncHullService(engine, own_engine=True) as service:
            async with HullGateway(service, registry, **gw_kwargs) as gw:
                client = GatewayClient("127.0.0.1", gw.port, TENANT.token)
                admin = GatewayClient("127.0.0.1", gw.port, ADMIN_TOKEN)
                try:
                    yield client, admin, service
                finally:
                    await client.aclose()
                    await admin.aclose()

    return ctx
