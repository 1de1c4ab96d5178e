"""repro.serve — the asyncio serving front door.

Production monitoring wants the engines *behind a service*: producers
push records without blocking on summary maintenance, dashboards pull
hull/diameter/width answers, detectors sit on standing-query push —
the continuous-monitoring shape the observing-run pipelines in
PAPERS.md run at.  This package provides exactly that, over any
:class:`~repro.engine.protocol.EngineProtocol` engine (in-process or
sharded, windowed or not):

* :class:`AsyncHullService` — bounded, batch-coalescing ingest queue
  with awaitable backpressure; a single engine thread keeping the
  event loop responsive; a periodic ``advance_time`` ticker for
  time-windowed configs; per-subscriber asyncio push queues bridging
  the engines' standing queries; graceful drain + final snapshot.

The network front door over the facade is :mod:`repro.gateway` (HTTP
+ SSE, with per-tenant auth, namespaces, quotas and rate limits).

Quickstart::

    import asyncio
    from repro import AdaptiveHull, StreamEngine, WindowConfig
    from repro.serve import AsyncHullService

    async def main():
        engine = StreamEngine(lambda: AdaptiveHull(32),
                              window=WindowConfig(horizon=300.0))
        async with AsyncHullService(engine, own_engine=True) as service:
            await service.ingest([("sensor", 0.0, 0.0, 1.0)])
            await service.flush()
            print(await service.hull("sensor"))

    asyncio.run(main())

Over the network: ``python -m repro gateway --tenants tenants.json``.
"""

from .service import AsyncHullService, AsyncSubscription

__all__ = ["AsyncHullService", "AsyncSubscription"]
