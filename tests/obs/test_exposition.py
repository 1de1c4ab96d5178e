"""Prometheus text exposition: format lint + live-server scrape.

``lint_promtext`` is a strict format checker for exposition 0.0.4:
every sample must belong to a family announced by HELP/TYPE lines,
histogram buckets must be cumulative, monotone, and end at ``+Inf``
with a matching ``_count``.  It is run against both a synthetic
registry and a live :class:`~repro.gateway.HullGateway` over a sharded
windowed ring — the acceptance surface: the page must include engine,
shard (with the per-shard transport timing split), window, serve and
gateway families.
"""

import asyncio
import re

import numpy as np
import pytest

from repro.gateway import GatewayClient, HullGateway, Tenant, TenantRegistry
from repro.obs import Counter, Registry, render_snapshot
from repro.serve import AsyncHullService
from repro.shard import ShardedEngine, SummarySpec

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\"\\n])*\",?)*)\})?"
    r" (-?(?:\d+\.?\d*(?:e[+-]?\d+)?|inf)|[+-]Inf|NaN)$",
    re.IGNORECASE,
)
LABEL_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\\n]|\\[\"\\n])*)\"")


def lint_promtext(text: str) -> dict:
    """Validate exposition text; returns {family: type}.  Raises
    AssertionError with a line-numbered message on any violation."""
    families: dict = {}
    seen_samples: set = set()
    histograms: dict = {}  # (family, labels-sans-le) -> [(le, cum)]
    hist_counts: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        assert line == line.rstrip(), f"line {lineno}: trailing whitespace"
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            assert len(parts) >= 3, f"line {lineno}: malformed HELP"
            name = parts[2]
            assert name not in families, f"line {lineno}: duplicate HELP {name}"
            families[name] = None
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {lineno}: malformed TYPE"
            _, _, name, kind = parts
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            assert name in families and families[name] is None, (
                f"line {lineno}: TYPE {name} without preceding HELP "
                f"(or repeated)"
            )
            families[name] = kind
            continue
        assert not line.startswith("#"), f"line {lineno}: stray comment"
        m = SAMPLE_RE.match(line)
        assert m, f"line {lineno}: unparseable sample: {line!r}"
        name, labelstr, value = m.group(1), m.group(2) or "", m.group(3)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and families.get(base) == "histogram":
                family = base
                break
        assert families.get(family) is not None, (
            f"line {lineno}: sample {name} has no HELP/TYPE for {family}"
        )
        labels = dict(LABEL_RE.findall(labelstr))
        if families[family] == "histogram":
            assert name != family, (
                f"line {lineno}: bare sample for histogram {family}"
            )
            key = (
                family,
                tuple(sorted((k, v) for k, v in labels.items() if k != "le")),
            )
            if name.endswith("_bucket"):
                assert "le" in labels, f"line {lineno}: bucket without le"
                le = labels["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                histograms.setdefault(key, []).append((bound, float(value)))
            elif name.endswith("_count"):
                assert key not in hist_counts, f"line {lineno}: dup _count"
                hist_counts[key] = float(value)
        else:
            assert "le" not in labels
            sample_key = (name, labelstr)
            assert sample_key not in seen_samples, (
                f"line {lineno}: duplicate sample {line!r}"
            )
            seen_samples.add(sample_key)
            float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
    for (family, labels), buckets in histograms.items():
        bounds = [b for b, _ in buckets]
        assert bounds == sorted(bounds), f"{family}{labels}: le out of order"
        cums = [c for _, c in buckets]
        assert all(a <= b for a, b in zip(cums, cums[1:])), (
            f"{family}{labels}: non-monotone cumulative buckets {cums}"
        )
        assert bounds[-1] == float("inf"), f"{family}{labels}: missing +Inf"
        assert (family, labels) in hist_counts, f"{family}{labels}: no _count"
        assert hist_counts[(family, labels)] == cums[-1], (
            f"{family}{labels}: _count {hist_counts[(family, labels)]} != "
            f"+Inf bucket {cums[-1]}"
        )
    return families


def test_lint_accepts_default_registry_render():
    from repro.obs import registry as obs_registry

    families = lint_promtext(obs_registry().render())
    # Eager declaration: every family renders HELP/TYPE before traffic.
    assert families["repro_ingest_records_total"] == "counter"
    assert families["repro_span_seconds"] == "histogram"


def test_lint_catches_violations():
    reg = Registry()
    Counter("x_total", "h", registry=reg, _use_default=False)
    good = reg.render()
    lint_promtext(good)
    with pytest.raises(AssertionError):
        lint_promtext(good.replace("# HELP x_total h\n", ""))
    with pytest.raises(AssertionError):
        lint_promtext(good + "rogue_metric 1\n")
    with pytest.raises(AssertionError):
        lint_promtext("# HELP h_s h\n# TYPE h_s histogram\n"
                      'h_s_bucket{le="1"} 5\nh_s_bucket{le="+Inf"} 3\n'
                      "h_s_sum 1\nh_s_count 3\n")


REQUIRED_FAMILIES = (
    # engine tier
    "repro_ingest_records_total",
    "repro_ingest_batch_seconds",
    "repro_engine_released_records_total",
    "repro_late_dropped_records_total",
    # shard tier, incl. the PR 6 timing split as histograms
    "repro_shard_partition_seconds",
    "repro_shard_send_seconds",
    "repro_shard_collect_seconds",
    "repro_transport_bytes_total",
    "repro_transport_frames_total",
    "repro_partial_cache_total",
    # window layer
    "repro_window_bucket_seals_total",
    "repro_window_bucket_merges_total",
    "repro_window_bucket_expiries_total",
    # serve tier
    "repro_serve_queue_wait_seconds",
    "repro_serve_coalesced_records",
    # gateway (the network front door)
    "repro_gateway_request_seconds",
    "repro_gateway_connections",
)


def test_live_server_exposition_verb_and_http():
    async def run():
        eng = ShardedEngine(
            SummarySpec("AdaptiveHull", {"r": 8}),
            shards=2,
            window={"horizon": 50.0, "max_delay": 2.0, "head_capacity": 16},
        )
        registry = TenantRegistry([Tenant(id="ops", token="tok")])
        async with AsyncHullService(eng, own_engine=True) as svc:
            async with HullGateway(svc, registry, metrics_port=0) as gw:
                client = GatewayClient("127.0.0.1", gw.port, "tok")
                try:
                    rng = np.random.default_rng(3)
                    pts = rng.normal(size=(600, 2))
                    await client.ingest(
                        [
                            (f"k{i % 5}", float(x), float(y), float(i) / 50.0)
                            for i, (x, y) in enumerate(pts)
                        ],
                        sync=True,
                    )
                    await client.flush()
                    await client.merged_hull()
                    verb_text = await client.metrics_text()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", gw.metrics_port
                    )
                    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    # And the 404 path.
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", gw.metrics_port
                    )
                    writer.write(b"GET /other HTTP/1.0\r\n\r\n")
                    await writer.drain()
                    miss = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    return verb_text, raw, miss
                finally:
                    await client.aclose()

    verb_text, raw, miss = asyncio.run(run())
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"text/plain; version=0.0.4" in head
    assert miss.startswith(b"HTTP/1.1 404")

    http_text = body.decode("utf-8")
    for text in (verb_text, http_text):
        families = lint_promtext(text)
        for name in REQUIRED_FAMILIES:
            assert name in families, f"missing family {name}"
    # Real traffic, not just declarations: per-shard send split and
    # worker-side window activity must show on the page.
    assert re.search(
        r'repro_shard_send_seconds_count\{shard="0"\} [1-9]', http_text
    )
    assert re.search(
        r'repro_shard_send_seconds_count\{shard="1"\} [1-9]', http_text
    )
    assert re.search(
        r"repro_window_bucket_seals_total [1-9]", http_text
    )
    assert re.search(
        r'repro_gateway_request_seconds_count\{verb="ingest"\} [1-9]',
        http_text,
    )
    assert re.search(
        r'repro_transport_bytes_total\{dir="send"\} [1-9]', http_text
    )
