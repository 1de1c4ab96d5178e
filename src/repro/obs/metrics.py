"""Metric families for every repro tier, declared once on the default registry.

Hot-path call sites import the pre-resolved label children (e.g.
``ENGINE_INGEST_RECORDS``) so steady-state cost is one attribute access, a
flag check, and a locked add.  Families are declared eagerly so the
Prometheus exposition always lists every HELP/TYPE pair, traffic or not.
"""

from __future__ import annotations

from .registry import Counter, Gauge, Histogram, LATENCY_BUCKETS, SIZE_BUCKETS

# -- ingest (shared across tiers via the tier label) -----------------------

INGEST_RECORDS = Counter(
    "repro_ingest_records_total",
    "Records admitted by an engine tier (post late-drop filtering).",
    ("tier",),
)
INGEST_BATCHES = Counter(
    "repro_ingest_batches_total",
    "ingest_arrays batches processed by an engine tier.",
    ("tier",),
)
INGEST_BATCH_SECONDS = Histogram(
    "repro_ingest_batch_seconds",
    "Wall-clock latency of one ingest_arrays batch, per tier.",
    ("tier",),
)
ENGINE_INGEST_RECORDS = INGEST_RECORDS.labels("engine")
ENGINE_INGEST_BATCHES = INGEST_BATCHES.labels("engine")
ENGINE_INGEST_BATCH_SECONDS = INGEST_BATCH_SECONDS.labels("engine")
SHARD_INGEST_RECORDS = INGEST_RECORDS.labels("shard")
SHARD_INGEST_BATCHES = INGEST_BATCHES.labels("shard")
SHARD_INGEST_BATCH_SECONDS = INGEST_BATCH_SECONDS.labels("shard")

# -- engine tier -----------------------------------------------------------

ENGINE_RELEASED_RECORDS = Counter(
    "repro_engine_released_records_total",
    "Buffered out-of-order records released by watermark advance.",
)
ENGINE_EXPIRED_BUCKETS = Counter(
    "repro_engine_expired_buckets_total",
    "Window buckets expired by advance_time across all streams.",
)
ENGINE_EVICTIONS = Counter(
    "repro_engine_evictions_total",
    "Streams evicted (LRU or explicit evict).",
)
LATE_DROPPED_RECORDS = Counter(
    "repro_late_dropped_records_total",
    "Records dropped for arriving later than the bounded-lateness watermark.",
)
DEAD_LETTER_RECORDS = Counter(
    "repro_dead_letter_records_total",
    "Late-dropped records handed to an on_late dead-letter callback.",
)
ENGINE_STREAMS = Gauge(
    "repro_engine_streams",
    "Live keyed streams in the engine (refreshed at stats()).",
)
ENGINE_SAMPLE_POINTS = Gauge(
    "repro_engine_sample_points",
    "Total retained hull sample points (refreshed at stats()).",
)
ENGINE_BUFFERED_RECORDS = Gauge(
    "repro_engine_buffered_records",
    "Records held in reorder buffers awaiting watermark (refreshed at stats()).",
)

# -- window layer ----------------------------------------------------------

WINDOW_BUCKET_SEALS = Counter(
    "repro_window_bucket_seals_total",
    "Head buckets sealed into the window ledger.",
)
WINDOW_BUCKET_MERGES = Counter(
    "repro_window_bucket_merges_total",
    "Bucket pairs coalesced by the exponential-histogram invariant.",
)
WINDOW_BUCKET_EXPIRIES = Counter(
    "repro_window_bucket_expiries_total",
    "Buckets dropped off the tail of the window.",
)

# -- shard tier (parent side) ----------------------------------------------

SHARD_PARTITION_SECONDS = Histogram(
    "repro_shard_partition_seconds",
    "Parent-side time partitioning a batch into per-shard slices.",
)
SHARD_SEND_SECONDS = Histogram(
    "repro_shard_send_seconds",
    "Parent-side time serialising+sending one request to one shard.",
    ("shard",),
)
SHARD_COLLECT_SECONDS = Histogram(
    "repro_shard_collect_seconds",
    "Parent-side time blocked collecting one reply from one shard.",
    ("shard",),
)
SHARD_INFLIGHT = Gauge(
    "repro_shard_inflight_requests",
    "Requests sent to a shard and not yet collected.",
    ("shard",),
)
SHARD_STREAMS = Gauge(
    "repro_shard_streams",
    "Streams owned by each shard (refreshed at stats()).",
    ("shard",),
)

# -- transport -------------------------------------------------------------

TRANSPORT_FRAMES = Counter(
    "repro_transport_frames_total",
    "Raw frames moved across shard pipes, by direction.",
    ("dir",),
)
TRANSPORT_BYTES = Counter(
    "repro_transport_bytes_total",
    "Payload bytes moved across shard pipes, by direction.",
    ("dir",),
)
TRANSPORT_FRAMES_SEND = TRANSPORT_FRAMES.labels("send")
TRANSPORT_FRAMES_RECV = TRANSPORT_FRAMES.labels("recv")
TRANSPORT_BYTES_SEND = TRANSPORT_BYTES.labels("send")
TRANSPORT_BYTES_RECV = TRANSPORT_BYTES.labels("recv")

# -- cached shard partial (incremented worker-side) ------------------------

PARTIAL_CACHE = Counter(
    "repro_partial_cache_total",
    "Cached whole-shard partial outcomes on keys=None merged_state requests.",
    ("result",),
)
PARTIAL_CACHE_HIT = PARTIAL_CACHE.labels("hit")
PARTIAL_CACHE_MISS = PARTIAL_CACHE.labels("miss")

# -- serve tier ------------------------------------------------------------

SERVE_QUEUE_WAIT_SECONDS = Histogram(
    "repro_serve_queue_wait_seconds",
    "Time an ingest batch waited in the service queue before coalescing.",
)
SERVE_COALESCED_RECORDS = Histogram(
    "repro_serve_coalesced_records",
    "Records per coalesced engine call in the service drain loop.",
    buckets=SIZE_BUCKETS,
)
SERVE_QUEUE_DEPTH = Gauge(
    "repro_serve_queue_depth",
    "Batches waiting in the service ingest queue (refreshed at stats()).",
)
SERVE_SUBSCRIBERS = Gauge(
    "repro_serve_subscribers",
    "Active subscription feeds.",
)

# -- durability (repro.durable) --------------------------------------------

WAL_APPENDS = Counter(
    "repro_wal_appends_total",
    "Entries appended to the write-ahead log, by entry kind.",
    ("kind",),
)
WAL_APPEND_BATCH = WAL_APPENDS.labels("batch")
WAL_APPEND_ADVANCE = WAL_APPENDS.labels("advance")
WAL_BYTES = Counter(
    "repro_wal_bytes_total",
    "Framed bytes appended to write-ahead log segments.",
)
WAL_FSYNCS = Counter(
    "repro_wal_fsyncs_total",
    "fsync calls issued by the write-ahead log.",
)
WAL_ROTATIONS = Counter(
    "repro_wal_rotations_total",
    "WAL segment files rotated out (closed at the size threshold).",
)
WAL_SNAPSHOTS = Counter(
    "repro_wal_snapshots_total",
    "Snapshot compactions written by the write-ahead log.",
)
WAL_TORN_FRAMES = Counter(
    "repro_wal_torn_frames_total",
    "Torn frames found (and truncated) at a crashed segment tail.",
)
WAL_REPLAYED_ENTRIES = Counter(
    "repro_wal_replayed_entries_total",
    "WAL entries replayed into an engine during recovery.",
)
WAL_REPLAYED_RECORDS = Counter(
    "repro_wal_replayed_records_total",
    "Records re-ingested from the WAL during recovery.",
)
WAL_REPLAY_REJECTED = Counter(
    "repro_wal_replay_rejected_total",
    "Replayed WAL entries rejected by the engine (identically to the "
    "live ingest that logged them).",
)
DEAD_LETTERS_PERSISTED = Counter(
    "repro_dead_letters_persisted_total",
    "Late-dropped records appended to the dead-letter log.",
)
REPLICA_PROMOTIONS = Counter(
    "repro_replica_promotions_total",
    "Standby workers promoted to primary after a worker death.",
    ("shard",),
)
RESIZES = Counter(
    "repro_resize_total",
    "Online ring resizes completed.",
)
RESIZE_MOVED_KEYS = Counter(
    "repro_resize_moved_keys_total",
    "Keys migrated between shards by online ring resizes.",
)

# -- gateway tier (repro.gateway) -------------------------------------------
#
# Tenant ids are client-visible configuration, so every tenant-labeled
# family carries a cardinality cap: past MAX_TENANT_CHILDREN distinct
# tenants the registry folds newcomers into one "__overflow__" child
# instead of growing without bound.

#: Per-family bound on distinct tenant label children.
MAX_TENANT_CHILDREN = 256

GATEWAY_REQUESTS = Counter(
    "repro_gateway_requests_total",
    "HTTP requests served by the gateway, by verb and status code.",
    ("verb", "code"),
)
GATEWAY_REQUEST_SECONDS = Histogram(
    "repro_gateway_request_seconds",
    "Server-side latency per gateway verb.",
    ("verb",),
)
GATEWAY_INGEST_RECORDS = Counter(
    "repro_gateway_ingest_records_total",
    "Records accepted through the gateway ingest verb, per tenant.",
    ("tenant",),
    max_label_children=MAX_TENANT_CHILDREN,
)
GATEWAY_INGEST_BYTES = Counter(
    "repro_gateway_ingest_bytes_total",
    "Request-body bytes accepted through the gateway ingest verb, per tenant.",
    ("tenant",),
    max_label_children=MAX_TENANT_CHILDREN,
)
GATEWAY_REJECTED = Counter(
    "repro_gateway_rejected_total",
    "Gateway requests rejected per tenant, by reason "
    "(rate_limit, quota, bad_request, engine).",
    ("tenant", "reason"),
    max_label_children=4 * MAX_TENANT_CHILDREN,
)
GATEWAY_AUTH_FAILURES = Counter(
    "repro_gateway_auth_failures_total",
    "Requests refused before tenant resolution (missing or bad token).",
)
GATEWAY_TENANT_KEYS = Gauge(
    "repro_gateway_tenant_keys",
    "Live keys owned by each tenant (refreshed at stats/metrics).",
    ("tenant",),
    max_label_children=MAX_TENANT_CHILDREN,
)
GATEWAY_LATE_DROPPED = Gauge(
    "repro_gateway_late_dropped_records",
    "Later-than-watermark records dropped per tenant "
    "(refreshed at stats/metrics from the engine's late-drop ledger).",
    ("tenant",),
    max_label_children=MAX_TENANT_CHILDREN,
)
GATEWAY_DEAD_LETTER_RECORDS = Counter(
    "repro_gateway_dead_letter_records_total",
    "Late-dropped records handed to the dead-letter hook, per tenant.",
    ("tenant",),
    max_label_children=MAX_TENANT_CHILDREN,
)
GATEWAY_SSE_STREAMS = Gauge(
    "repro_gateway_sse_streams",
    "Open SSE subscription streams.",
)
GATEWAY_CONNECTIONS = Gauge(
    "repro_gateway_connections",
    "Open gateway HTTP connections.",
)

# -- tracing ---------------------------------------------------------------

SPAN_SECONDS = Histogram(
    "repro_span_seconds",
    "Duration of traced spans, by span name.",
    ("span",),
)
