"""Command-line interface for the reproduction harness.

Usage::

    python -m repro table1 [--section disk|square|ellipse|changing]
                           [--n N] [--r R] [--seed S]
    python -m repro fig10  [--out DIR] [--n N]
    python -m repro scaling [--n N]
    python -m repro lower-bound
    python -m repro work
    python -m repro demo   [--n N]
    python -m repro engine [--keys K] [--n N] [--r R] [--batch B]
                           [--snapshot PATH] [--seed S]
    python -m repro shard  [--keys K] [--n N] [--r R] [--batch B]
                           [--workers W] [--replicas N] [--wal-dir DIR]
                           [--snapshot PATH] [--seed S]
    python -m repro window [--keys K] [--n N] [--r R] [--batch B]
                           [--last-n N | --horizon T] [--max-delay D]
                           [--workers W] [--snapshot PATH] [--seed S]
    python -m repro gateway [--host H] [--port P] [--tenants FILE] [--r R]
                            [--last-n N | --horizon T] [--max-delay D]
                            [--workers W] [--replicas N] [--wal-dir DIR]
                            [--tick SEC] [--duration SEC]
                            [--selfcheck] [--snapshot PATH]
                            [--metrics-port P]
    python -m repro metrics [--keys K] [--n N] [--r R] [--batch B]
                            [--workers W] [--last-n N | --horizon T]
                            [--max-delay D] [--format prom|json]
                            [--watch SEC] [--seed S]
    python -m repro durable inspect WAL_DIR
    python -m repro durable recover WAL_DIR [--workers W] [--replicas N]
                                    [--snapshot PATH] [--compact]
    python -m repro durable dead-letters WAL_DIR [--limit K]
                                    [--replay] [--truncate]

Every subcommand prints the corresponding table/series from the paper's
evaluation; ``demo`` runs a quick end-to-end summary with queries,
``engine`` exercises the multi-stream batch engine: K keyed streams,
shuffled record batches, per-key hulls, and (optionally) a snapshot/
restore round trip; ``shard`` runs the same keyed workload through the
multi-process :class:`~repro.shard.ShardedEngine` — consistent-hash
routing across W workers, global merged-hull queries, and a whole-ring
snapshot/restore check; ``window`` streams drifting clusters through a
sliding-window engine (count- or time-based) and contrasts the live
window's hull/diameter with the ever-growing all-time hull;
``gateway`` is the network front door — the multi-tenant HTTP/SSE
server (bearer auth, per-tenant namespaces, quotas, rate limits) over
the async service facade and either engine tier, with a loopback
``--selfcheck``; ``metrics``
runs a keyed workload through either tier and dumps (or, with
``--watch``, periodically re-prints per-second *rates* from a scrape
history of) the :mod:`repro.obs` registry as a Prometheus text page or
a JSON snapshot; ``durable`` operates on a write-ahead log directory —
``inspect`` summarises segments/snapshots/tail without replaying,
``recover`` rebuilds the engine (snapshot + tail replay, bit-identical
by determinism) and reports what came back, ``dead-letters`` lists and
optionally redrives the later-than-watermark records the bounded-
lateness window dropped.  ``--wal-dir`` on ``shard``/``gateway``
makes ingest durable (and recovers first when the directory already
holds a log); ``--replicas`` adds that many standby workers per shard,
promoted automatically when a primary dies.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Adaptive sampling for geometric "
            "problems over data streams' (Hershberger & Suri, PODS 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="reproduce (part of) Table 1")
    t1.add_argument(
        "--section",
        choices=["disk", "square", "ellipse", "changing"],
        action="append",
        help="restrict to one or more sections (default: all)",
    )
    t1.add_argument("--n", type=int, default=20_000, help="stream length")
    t1.add_argument("--r", type=int, default=16, help="adaptive parameter r")
    t1.add_argument("--seed", type=int, default=0)

    fig = sub.add_parser("fig10", help="regenerate the Fig. 10 SVG panels")
    fig.add_argument("--out", default="fig10_output", help="output directory")
    fig.add_argument("--n", type=int, default=20_000)

    sc = sub.add_parser("scaling", help="error scaling sweep (Theorem 5.4)")
    sc.add_argument("--n", type=int, default=12_000)
    sc.add_argument(
        "--r-values", type=int, nargs="+", default=[8, 16, 32, 64]
    )

    sub.add_parser("lower-bound", help="Theorem 5.5 lower-bound sweep")
    sub.add_parser("work", help="amortized per-point work counters")

    demo = sub.add_parser("demo", help="summarise a stream and run queries")
    demo.add_argument("--n", type=int, default=50_000)
    demo.add_argument("--r", type=int, default=32)

    eng = sub.add_parser(
        "engine", help="multi-stream batch ingestion engine demo"
    )
    eng.add_argument("--keys", type=int, default=200, help="keyed streams")
    eng.add_argument(
        "--n", type=int, default=200_000, help="total records across all keys"
    )
    eng.add_argument("--r", type=int, default=32, help="adaptive parameter r")
    eng.add_argument(
        "--batch", type=int, default=20_000, help="records per ingest batch"
    )
    eng.add_argument(
        "--snapshot", default=None, help="write a snapshot here and verify restore"
    )
    eng.add_argument("--seed", type=int, default=0)

    sh = sub.add_parser(
        "shard", help="sharded multi-process ingestion engine demo"
    )
    sh.add_argument("--keys", type=int, default=64, help="keyed streams")
    sh.add_argument(
        "--n", type=int, default=100_000, help="total records across all keys"
    )
    sh.add_argument("--r", type=int, default=32, help="adaptive parameter r")
    sh.add_argument(
        "--batch", type=int, default=20_000, help="records per ingest batch"
    )
    sh.add_argument(
        "--workers", type=int, default=2, help="shard worker processes"
    )
    sh.add_argument(
        "--snapshot", default=None,
        help="write a whole-ring snapshot here and verify restore",
    )
    sh.add_argument(
        "--replicas", type=int, default=0,
        help="standby replica workers per shard (promoted on primary death)",
    )
    sh.add_argument(
        "--wal-dir", default=None,
        help="write-ahead log directory: batches are durable before they "
        "apply; a directory holding a prior log is recovered first",
    )
    sh.add_argument("--seed", type=int, default=0)

    win = sub.add_parser(
        "window", help="sliding-window hull engine demo (drifting clusters)"
    )
    win.add_argument("--keys", type=int, default=16, help="keyed streams")
    win.add_argument(
        "--n", type=int, default=100_000, help="total records across all keys"
    )
    win.add_argument("--r", type=int, default=32, help="adaptive parameter r")
    win.add_argument(
        "--batch", type=int, default=10_000, help="records per ingest batch"
    )
    mode = win.add_mutually_exclusive_group()
    mode.add_argument(
        "--last-n", type=int, default=None,
        help="count-based window per key (default 5000)",
    )
    mode.add_argument(
        "--horizon", type=float, default=None,
        help="time-based window in time units (records carry ts)",
    )
    win.add_argument(
        "--max-delay", type=float, default=None,
        help="bounded-lateness tolerance (time windows only): records are "
        "fed out of order within this bound, reordered by the watermark, "
        "and later-than-watermark records are counted and dropped",
    )
    win.add_argument(
        "--workers", type=int, default=0,
        help="shard worker processes (0 = in-process StreamEngine)",
    )
    win.add_argument(
        "--snapshot", default=None,
        help="write an engine snapshot here and verify restore",
    )
    win.add_argument("--seed", type=int, default=0)

    gw = sub.add_parser(
        "gateway",
        help="multi-tenant HTTP/SSE front door (auth, quotas, rate limits)",
    )
    gw.add_argument("--host", default="127.0.0.1")
    gw.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 picks an ephemeral port, printed on start)",
    )
    gw.add_argument(
        "--tenants", default=None,
        help="tenant registry config (.json or .toml; see repro.gateway); "
        "default: a demo registry with tenants alpha/beta (tokens "
        "alpha-token/beta-token) and admin token admin-token",
    )
    gw.add_argument("--r", type=int, default=32, help="adaptive parameter r")
    mode = gw.add_mutually_exclusive_group()
    mode.add_argument(
        "--last-n", type=int, default=None,
        help="count-based window per key (default: no window)",
    )
    mode.add_argument(
        "--horizon", type=float, default=None,
        help="time-based window in seconds (records carry wall-clock ts)",
    )
    gw.add_argument(
        "--max-delay", type=float, default=None,
        help="bounded-lateness tolerance in seconds (needs --horizon)",
    )
    gw.add_argument(
        "--workers", type=int, default=0,
        help="shard worker processes (0 = in-process StreamEngine)",
    )
    gw.add_argument(
        "--replicas", type=int, default=0,
        help="standby replica workers per shard (needs --workers >= 1)",
    )
    gw.add_argument(
        "--wal-dir", default=None,
        help="write-ahead log directory (recovered first when it holds "
        "a prior log; the logged window/spec win over the flags)",
    )
    gw.add_argument(
        "--tick", type=float, default=None,
        help="advance_time tick interval in seconds (time windows only)",
    )
    gw.add_argument(
        "--duration", type=float, default=0.0,
        help="serve for this many seconds then drain and exit (0 = forever)",
    )
    gw.add_argument(
        "--selfcheck", action="store_true",
        help="run a loopback multi-tenant workload against the live "
        "gateway, verify isolation and metrics, then exit",
    )
    gw.add_argument(
        "--snapshot", default=None,
        help="write a final engine snapshot here on shutdown",
    )
    gw.add_argument(
        "--metrics-port", type=int, default=None,
        help="additionally serve plain-HTTP GET /metrics on this port "
        "(0 = ephemeral, printed on start); the main port serves "
        "/metrics too",
    )

    met = sub.add_parser(
        "metrics",
        help="run a keyed workload and dump/watch the obs registry",
    )
    met.add_argument("--keys", type=int, default=32, help="keyed streams")
    met.add_argument(
        "--n", type=int, default=100_000, help="total records across all keys"
    )
    met.add_argument("--r", type=int, default=32, help="adaptive parameter r")
    met.add_argument(
        "--batch", type=int, default=10_000, help="records per ingest batch"
    )
    met.add_argument(
        "--workers", type=int, default=0,
        help="shard worker processes (0 = in-process StreamEngine)",
    )
    mode = met.add_mutually_exclusive_group()
    mode.add_argument(
        "--last-n", type=int, default=None,
        help="count-based window per key (default: no window)",
    )
    mode.add_argument(
        "--horizon", type=float, default=None,
        help="time-based window in time units (records carry ts)",
    )
    met.add_argument(
        "--max-delay", type=float, default=None,
        help="bounded-lateness tolerance (needs --horizon)",
    )
    met.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="output format: Prometheus text exposition or JSON snapshot",
    )
    met.add_argument(
        "--watch", type=float, default=None,
        help="re-print the page at least this many seconds apart while "
        "the workload runs (default: dump once at the end)",
    )
    met.add_argument("--seed", type=int, default=0)

    dur = sub.add_parser(
        "durable",
        help="write-ahead log inspection, crash recovery, dead letters",
    )
    dur_sub = dur.add_subparsers(dest="durable_cmd", required=True)

    dins = dur_sub.add_parser(
        "inspect", help="summarise a WAL directory without replaying it"
    )
    dins.add_argument("wal_dir", help="write-ahead log directory")
    dins.add_argument(
        "--fsck", action="store_true",
        help="verify every segment's frame checksums, entry decoding, "
        "and sequence contiguity end-to-end (not just the torn tail); "
        "reports the first bad offset and exits 1 on mid-log corruption",
    )

    drec = dur_sub.add_parser(
        "recover", help="rebuild the engine from latest snapshot + WAL tail"
    )
    drec.add_argument("wal_dir", help="write-ahead log directory")
    drec.add_argument(
        "--workers", type=int, default=None,
        help="override the logged tier: 0 = in-process engine, N = ring "
        "of N shards (default: whatever the log's meta entry says)",
    )
    drec.add_argument(
        "--replicas", type=int, default=0,
        help="standby replica workers per shard (sharded tier only)",
    )
    drec.add_argument(
        "--snapshot", default=None,
        help="write the recovered engine's snapshot file here",
    )
    drec.add_argument(
        "--compact", action="store_true",
        help="write a WAL snapshot after recovery so the next recovery "
        "skips the replayed tail",
    )

    ddl = dur_sub.add_parser(
        "dead-letters", help="list/redrive the durable dead-letter log"
    )
    ddl.add_argument("wal_dir", help="write-ahead log directory")
    ddl.add_argument(
        "--limit", type=int, default=20,
        help="slices to list in detail (default 20)",
    )
    ddl.add_argument(
        "--replay", action="store_true",
        help="recover the engine from this WAL and re-ingest every dead "
        "letter, timestamps clamped up to the current watermark",
    )
    ddl.add_argument(
        "--truncate", action="store_true",
        help="drop the dead-letter log (alone, or after a clean --replay)",
    )

    return parser


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import format_table1, run_table1

    rows = run_table1(
        n=args.n, r=args.r, seed=args.seed, sections=args.section
    )
    print(format_table1(rows))
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from .experiments import make_fig10

    adaptive, uniform = make_fig10(args.out, n=args.n)
    print(f"wrote {adaptive}")
    print(f"wrote {uniform}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .experiments import error_scaling, loglog_slope

    points = error_scaling(args.r_values, n=args.n)
    print(f"{'r':>5} {'scheme':>10} {'error':>12} {'samples':>8}")
    for p in points:
        print(f"{p.r:>5} {p.scheme:>10} {p.error:>12.6f} {p.sample_size:>8}")
    print()
    print(f"log-log slope adaptive: {loglog_slope(points, 'adaptive'):+.2f}  (theory -2)")
    print(f"log-log slope uniform : {loglog_slope(points, 'uniform'):+.2f}  (theory -1)")
    return 0


def _cmd_lower_bound(_args: argparse.Namespace) -> int:
    from .experiments import lower_bound_sweep

    points = lower_bound_sweep([8, 16, 32, 64, 128])
    print(f"{'r':>5} {'optimal':>12} {'adaptive':>12} {'D/r^2':>12}")
    for p in points:
        print(
            f"{p.r:>5} {p.optimal_error:>12.3e} {p.adaptive_error:>12.3e} "
            f"{p.theory:>12.3e}"
        )
    return 0


def _cmd_work(_args: argparse.Namespace) -> int:
    from .experiments import work_per_point

    points = work_per_point([8, 16, 32, 64, 128], n=20_000)
    print(f"{'r':>5} {'processed':>10} {'nodes/pt':>9} {'refine':>7} {'unref':>6}")
    for w in points:
        print(
            f"{w.r:>5} {100 * w.processed_fraction:>9.2f}% "
            f"{w.nodes_visited_per_point:>9.2f} {w.refinements:>7} "
            f"{w.unrefinements:>6}"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import math

    from .core import AdaptiveHull
    from .queries import diameter, enclosing_circle, width
    from .streams import as_tuples, ellipse_stream

    hull = AdaptiveHull(args.r)
    for p in as_tuples(ellipse_stream(args.n, a=8.0, b=2.0, rotation=0.4, seed=1)):
        hull.insert(p)
    print(f"points seen  : {hull.points_seen:,}")
    print(f"points stored: {hull.sample_size} (bound {2 * args.r + 1})")
    print(f"diameter     : {diameter(hull):.4f}")
    print(f"width        : {width(hull):.4f}")
    (cx, cy), rad = enclosing_circle(hull)
    print(f"circle       : ({cx:.3f}, {cy:.3f}) r={rad:.4f}")
    print(
        f"error bound  : {16 * math.pi * hull.perimeter / args.r ** 2:.4f} "
        f"(Corollary 5.2)"
    )
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from .core import AdaptiveHull
    from .engine import StreamEngine
    from .geometry import area as polygon_area

    if args.keys < 1:
        raise SystemExit("engine: --keys must be >= 1")
    if args.batch < 1:
        raise SystemExit("engine: --batch must be >= 1")
    rng = np.random.default_rng(args.seed)
    keys = np.array([f"stream-{i:04d}" for i in range(args.keys)])
    centers = rng.uniform(-100.0, 100.0, (args.keys, 2))

    engine = StreamEngine(lambda: AdaptiveHull(args.r))
    t0 = time.perf_counter()
    done = 0
    while done < args.n:
        b = min(args.batch, args.n - done)
        idx = rng.integers(0, args.keys, b)
        pts = centers[idx] + rng.normal(0.0, 2.0, (b, 2))
        engine.ingest_arrays(keys[idx], pts)
        done += b
    elapsed = time.perf_counter() - t0

    stats = engine.stats()
    print(f"streams      : {stats.streams}")
    print(f"records      : {stats.points_ingested:,} in {stats.batches_ingested} batches")
    print(f"stored       : {stats.sample_points:,} sample points "
          f"(bound {args.keys * (2 * args.r + 1):,})")
    print(f"maintenance  : {stats.evictions} evictions, "
          f"{stats.bucket_merges} bucket merges, "
          f"{stats.bucket_expiries} bucket expiries")
    print(f"throughput   : {done / elapsed:,.0f} records/sec")
    areas = sorted(
        ((abs(polygon_area(engine.hull(k))), k) for k in engine.keys()),
        reverse=True,
    )
    print("largest hulls:")
    for a, k in areas[:5]:
        print(f"  {k}: area {a:.2f}, {len(engine.hull(k))} vertices")

    if args.snapshot:
        path = engine.snapshot(args.snapshot)
        restored = StreamEngine.restore(path, lambda: AdaptiveHull(args.r))
        ok = all(restored.hull(k) == engine.hull(k) for k in engine.keys())
        print(f"snapshot     : {path} ({path.stat().st_size:,} bytes)")
        print(f"restore check: {len(engine)} keys, identical hulls: {ok}")
        if not ok:
            return 1
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from .shard import ShardedEngine, SummarySpec

    if args.keys < 1:
        raise SystemExit("shard: --keys must be >= 1")
    if args.batch < 1:
        raise SystemExit("shard: --batch must be >= 1")
    if args.workers < 1:
        raise SystemExit("shard: --workers must be >= 1")
    if args.replicas < 0:
        raise SystemExit("shard: --replicas must be >= 0")
    rng = np.random.default_rng(args.seed)
    keys = np.array([f"stream-{i:04d}" for i in range(args.keys)])
    centers = rng.uniform(-100.0, 100.0, (args.keys, 2))
    spec = SummarySpec("AdaptiveHull", {"r": args.r})

    durability = None
    if args.wal_dir is not None:
        from .durable import DurabilityConfig, recover_engine, wal_exists

        durability = DurabilityConfig(args.wal_dir)
    if durability is not None and wal_exists(args.wal_dir):
        # A prior run left a log: pick up exactly where it stopped
        # (the logged spec/window win over this invocation's flags).
        engine = recover_engine(
            args.wal_dir,
            workers=args.workers,
            standbys=args.replicas,
            durability=durability,
        )
    else:
        engine = ShardedEngine(
            spec,
            shards=args.workers,
            standbys=args.replicas,
            durability=durability,
        )

    with engine:
        replay = getattr(engine, "last_replay", None)
        if replay is not None:
            print(f"recovered    : {replay['entries']} WAL entries "
                  f"({replay['records']:,} records, "
                  f"{replay['rejected']} rejected)")
        t0 = time.perf_counter()
        done = 0
        while done < args.n:
            b = min(args.batch, args.n - done)
            idx = rng.integers(0, args.keys, b)
            pts = centers[idx] + rng.normal(0.0, 2.0, (b, 2))
            engine.ingest_arrays(keys[idx], pts)
            done += b
        elapsed = time.perf_counter() - t0

        stats = engine.stats()
        loads = ", ".join(
            f"shard {i}: {s['streams']} keys / {s['points_ingested']:,} pts"
            for i, s in enumerate(stats.per_shard)
        )
        print(f"workers      : {args.workers}")
        print(f"streams      : {stats.streams}")
        print(f"records      : {stats.points_ingested:,} in "
              f"{stats.batches_ingested} batches")
        print(f"stored       : {stats.sample_points:,} sample points")
        print(f"throughput   : {done / elapsed:,.0f} records/sec")
        print(f"ring load    : {loads}")
        if args.replicas:
            print(f"replicas     : {stats.standbys} standbys, "
                  f"{stats.promotions} promotions")
        if engine.wal is not None:
            print(f"wal          : seq {engine.wal.last_seq} in "
                  f"{args.wal_dir}")
        # One whole-ring reduction serves all three global answers.
        from .queries import diameter, width

        merged = engine.merged_summary()
        print(f"global hull  : {len(merged.hull())} vertices over "
              f"{merged.points_seen:,} points")
        print(f"global diam  : {diameter(merged):.4f}")
        print(f"global width : {width(merged):.4f}")

        if args.snapshot:
            path = engine.snapshot(args.snapshot)
            restored = ShardedEngine.restore(path)
            try:
                all_keys = engine.keys()
                ok = all(restored.hull(k) == engine.hull(k) for k in all_keys)
            finally:
                restored.close()
            print(f"snapshot     : {path} ({path.stat().st_size:,} bytes)")
            print(f"restore check: {len(all_keys)} keys, identical hulls: {ok}")
            if not ok:
                return 1
    return 0


def _cmd_window(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from .core import AdaptiveHull
    from .queries import diameter
    from .streams import drifting_clusters_stream
    from .window import WindowConfig

    if args.keys < 1:
        raise SystemExit("window: --keys must be >= 1")
    if args.batch < 1:
        raise SystemExit("window: --batch must be >= 1")
    engine_cm, restore = _tier_engine(
        args, "window", default_window=WindowConfig(last_n=5000)
    )
    window = engine_cm.window

    rng = np.random.default_rng(args.seed)
    pts = drifting_clusters_stream(
        args.n, n_clusters=max(2, args.keys // 4), drift=0.1, seed=args.seed
    )
    keys = np.array([f"stream-{i:04d}" for i in range(args.keys)])[
        rng.integers(0, args.keys, args.n)
    ]
    # One time unit per 1000 records; only sent for time-based windows.
    ts = np.arange(args.n, dtype=np.float64) / 1000.0
    order = np.arange(args.n)
    if window is not None and window.max_delay is not None:
        # Bounded lateness: deliver the stream out of order (each
        # record delayed < max_delay) — the watermark reorders it.
        from .streams import bounded_shuffle

        order = bounded_shuffle(ts, window.max_delay, seed=args.seed)

    all_time = AdaptiveHull(args.r)  # the contrast: extremes never age out
    all_time.insert_many(pts)  # fed outside the timed region

    def run(engine):
        t0 = time.perf_counter()
        for s in range(0, args.n, args.batch):
            sl = order[s : min(s + args.batch, args.n)]
            kw = {"ts": ts[sl]} if window.timed else {}
            engine.ingest_arrays(keys[sl], pts[sl], **kw)
        if window.max_delay is not None:
            # Heartbeat past the last event so the watermark passes
            # everything still buffered before we query (2x the bound:
            # (t + d) - d can round below t in floats).
            engine.advance_time(float(ts[-1]) + 2 * window.max_delay)
        return time.perf_counter() - t0

    mode = (
        f"last_n={window.last_n}" if not window.timed
        else f"horizon={window.horizon}"
        + (
            f" max_delay={window.max_delay}"
            if window.max_delay is not None
            else ""
        )
    )
    with engine_cm as engine:
        elapsed = run(engine)
        stats = engine.stats()
        late = engine.late_dropped
        # One whole-engine reduction serves both global answers.
        merged = engine.merged_summary()
        merged_hull = merged.hull()
        windowed_diam = diameter(merged) if merged_hull else 0.0
        snapshot_ok = None
        if args.snapshot:
            path = engine.snapshot(args.snapshot)
            with restore(path) as restored:
                snapshot_ok = all(
                    restored.hull(k) == engine.hull(k)
                    for k in engine.keys()
                )

    tier = f"sharded x{args.workers}" if args.workers else "in-process"
    print(f"engine       : {tier}, window {mode}, r={args.r}")
    print(f"streams      : {stats.streams}")
    print(f"records      : {stats.points_ingested:,} in "
          f"{stats.batches_ingested} batches")
    print(f"stored       : {stats.sample_points:,} sample points in "
          f"{stats.buckets} buckets")
    print(f"maintenance  : {stats.bucket_merges} bucket merges, "
          f"{stats.bucket_expiries} bucket expiries")
    if window.max_delay is not None:
        print(f"event time   : shuffled within {window.max_delay}, "
              f"{late} late drops, {stats.buffered} still buffered")
    print(f"throughput   : {args.n / elapsed:,.0f} records/sec")
    print(f"window hull  : {len(merged_hull)} vertices, "
          f"diameter {windowed_diam:.3f}")
    print(f"all-time hull: {len(all_time.hull())} vertices, "
          f"diameter {diameter(all_time):.3f}  <- stale extremes retained")
    if snapshot_ok is not None:
        print(f"restore check: identical hulls: {snapshot_ok}")
        if not snapshot_ok:
            return 1
    return 0


def _tier_engine(args, prog: str, default_window=None):
    """Validate the shared tier/window flags and build the requested
    engine (both tiers implement EngineProtocol, so callers stay
    tier-agnostic).  Returns ``(engine, restore)`` with ``restore`` the
    tier's snapshot-file loader.  Shared by the ``window``, ``metrics``
    and ``gateway`` subcommands so their construction cannot drift."""
    import math

    from .window import WindowConfig

    if args.workers < 0:
        raise SystemExit(f"{prog}: --workers must be >= 0")
    last_n = getattr(args, "last_n", None)
    horizon = getattr(args, "horizon", None)
    max_delay = getattr(args, "max_delay", None)
    if last_n is not None and last_n < 1:
        raise SystemExit(f"{prog}: --last-n must be >= 1")
    if horizon is not None and not (horizon > 0.0 and math.isfinite(horizon)):
        raise SystemExit(f"{prog}: --horizon must be positive and finite")
    if max_delay is not None:
        if horizon is None:
            raise SystemExit(f"{prog}: --max-delay needs --horizon")
        if not (max_delay > 0.0 and math.isfinite(max_delay)):
            raise SystemExit(f"{prog}: --max-delay must be positive and finite")
    if last_n is not None:
        window = WindowConfig(last_n=last_n)
    elif horizon is not None:
        window = WindowConfig(horizon=horizon, max_delay=max_delay)
    else:
        window = default_window
    standbys = getattr(args, "replicas", 0) or 0
    if standbys < 0:
        raise SystemExit(f"{prog}: --replicas must be >= 0")
    if standbys and not args.workers:
        raise SystemExit(f"{prog}: --replicas needs --workers >= 1")
    wal_dir = getattr(args, "wal_dir", None)
    durability = None
    recovering = False
    if wal_dir is not None:
        from .durable import DurabilityConfig, wal_exists

        durability = DurabilityConfig(wal_dir)
        recovering = wal_exists(wal_dir)
    if args.workers:
        from .shard import ShardedEngine, SummarySpec

        if recovering:
            from .durable import recover_engine

            # The logged spec/window win over the flags: replay is only
            # bit-identical under the configuration that wrote the log.
            engine = recover_engine(
                wal_dir,
                workers=args.workers,
                standbys=standbys,
                durability=durability,
            )
        else:
            engine = ShardedEngine(
                SummarySpec("AdaptiveHull", {"r": args.r}),
                shards=args.workers,
                window=window,
                standbys=standbys,
                durability=durability,
            )
        restore = ShardedEngine.restore
    else:
        from .engine import StreamEngine
        from .shard import SummarySpec

        # A spec-built factory (not a bare lambda) so an attached WAL
        # captures the configuration and recovery needs no restating.
        factory = SummarySpec("AdaptiveHull", {"r": args.r}).build
        if recovering:
            from .durable import recover_engine

            engine = recover_engine(wal_dir, workers=0, durability=durability)
        else:
            engine = StreamEngine(
                factory, window=window, durability=durability
            )
        restore = lambda p: StreamEngine.restore(p, factory)  # noqa: E731
    return engine, restore


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import time

    import numpy as np

    from .obs import ScrapeHistory, render_snapshot

    if args.keys < 1:
        raise SystemExit("metrics: --keys must be >= 1")
    if args.batch < 1:
        raise SystemExit("metrics: --batch must be >= 1")
    if args.watch is not None and args.watch < 0.0:
        raise SystemExit("metrics: --watch must be >= 0")
    engine_cm, _ = _tier_engine(args, "metrics")
    window = engine_cm.window

    rng = np.random.default_rng(args.seed)
    keys = np.array([f"stream-{i:04d}" for i in range(args.keys)])
    centers = rng.uniform(-100.0, 100.0, (args.keys, 2))
    timed = window is not None and window.timed
    history = ScrapeHistory()
    span = args.watch or None

    def page(engine) -> str:
        obs = engine.stats().obs
        if args.format == "json":
            return json.dumps(obs, indent=2, sort_keys=True)
        return render_snapshot(obs)

    def rates_page(engine) -> str:
        # Watch prints *rates*, not totals: difference the scrape taken
        # now against the previous watch tick's (see repro.obs.history).
        history.record(engine.stats().obs)
        if args.format == "json":
            return json.dumps(
                history.rates(span=span), indent=2, sort_keys=True
            )
        return history.render(span=span)

    with engine_cm as engine:
        done = 0
        if args.watch is not None:
            history.record(engine.stats().obs)
        last_print = time.perf_counter()
        while done < args.n:
            b = min(args.batch, args.n - done)
            idx = rng.integers(0, args.keys, b)
            pts = centers[idx] + rng.normal(0.0, 2.0, (b, 2))
            kw = {}
            if timed:
                kw["ts"] = (np.arange(done, done + b, dtype=np.float64)
                            / 1000.0)
            engine.ingest_arrays(keys[idx], pts, **kw)
            done += b
            if args.watch is not None and (
                time.perf_counter() - last_print >= args.watch
            ):
                print(rates_page(engine))
                print(f"# --- after {done:,}/{args.n:,} records ---")
                last_print = time.perf_counter()
        # A global query so shard/transport reply paths show traffic.
        engine.merged_hull()
        print(page(engine))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from .gateway import (
        GatewayClient,
        HullGateway,
        Tenant,
        TenantRegistry,
        tenant_dead_letter_hook,
    )
    from .serve import AsyncHullService

    if args.tick is not None and (
        args.horizon is None or args.tick <= 0.0
    ):
        raise SystemExit("gateway: --tick needs --horizon and must be > 0")
    if args.tenants is not None:
        try:
            registry = TenantRegistry.load(args.tenants)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"gateway: {exc}") from exc
        if len(registry) == 0:
            raise SystemExit(
                f"gateway: {args.tenants} defines no tenants"
            )
    else:
        registry = TenantRegistry(
            [
                Tenant(id="alpha", token="alpha-token"),
                Tenant(id="beta", token="beta-token"),
            ],
            admin_token="admin-token",
        )

    async def scrape_metrics(port: int) -> str:
        """One plain-HTTP GET /metrics off the dedicated listener."""
        reader, writer = await asyncio.open_connection(args.host, port)
        try:
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        if b" 200 " not in head.split(b"\r\n", 1)[0]:
            raise RuntimeError(f"/metrics scrape failed: {head[:120]!r}")
        return body.decode("utf-8")

    async def selfcheck(port: int, metrics_port=None) -> bool:
        import numpy as np

        tenants = registry.tenants()[:2]
        rng = np.random.default_rng(0)
        # Synthetic event times run an hour ahead of the wall clock so a
        # --tick ticker can never mark them stale.
        now = time.time() + 3600.0
        ok = True
        clients = []
        hulls = {}
        per_tenant = 600
        admin = (
            GatewayClient(args.host, port, registry.admin_token)
            if registry.admin_token is not None
            else None
        )
        if args.max_delay is not None and admin is None:
            raise SystemExit(
                "gateway: --selfcheck with --max-delay needs an "
                "admin_token in the tenants config (the reorder buffer "
                "is flushed through the admin advance_time verb)"
            )
        for t_i, tenant in enumerate(tenants):
            client = GatewayClient(args.host, port, tenant.token)
            clients.append(client)
            pts = rng.normal(10.0 * t_i, 2.0, (per_tenant, 2))
            # Strictly later ts range per tenant: the event clock is
            # global, so an earlier range would be late once the
            # previous tenant's flush advanced the watermark.
            base = now + 10.0 * t_i
            ts = base + np.arange(per_tenant) * 1e-4
            records = []
            for i, (x, y) in enumerate(pts):
                rec = [f"gw-{i % 4}", float(x), float(y)]
                if args.horizon is not None:
                    rec.append(float(ts[i]))
                records.append(rec)
            if args.max_delay is not None:
                # Bounded lateness: ship the stream shuffled within the
                # bound — the watermark must reorder it.
                from .streams import bounded_shuffle

                order = bounded_shuffle(ts, args.max_delay, seed=t_i)
                records = [records[i] for i in order]
            for s in range(0, len(records), 200):
                await client.ingest(records[s:s + 200])
            await client.flush()
            if args.max_delay is not None:
                # Push the watermark past the newest event so nothing
                # still sits in the reorder buffers (2x the bound:
                # (t + d) - d can round below t in floats).
                await admin.advance_time(
                    float(ts[-1]) + 2 * args.max_delay
                )
            keys = await client.keys()
            hull = await client.hull("gw-0")
            hulls[tenant.id] = hull
            merged = await client.merged_hull()
            diam = await client.diameter()
            stats = await client.stats()
            print(f"selfcheck    : tenant {tenant.id} keys={len(keys)} "
                  f"hull={len(hull)} merged={len(merged)} "
                  f"diameter={diam:.3f} "
                  f"ingested={stats['ingested_records']}")
            ok = (
                ok
                and keys == [f"gw-{i}" for i in range(4)]
                and len(hull) >= 3
                and len(merged) >= 3
                and diam > 0.0
                and stats["ingested_records"] == per_tenant
            )
        if len(tenants) == 2:
            # The same client-side key name must resolve to disjoint
            # per-tenant streams (the clusters are 10 units apart).
            isolated = hulls[tenants[0].id] != hulls[tenants[1].id]
            print(f"selfcheck    : namespace isolation ok={isolated}")
            ok = ok and isolated
        if args.max_delay is not None:
            # A record far beyond the lateness bound is counted and
            # dropped, never applied — and attributed to its tenant.
            await clients[0].ingest(
                [["gw-late", 0.0, 0.0, now - 10 * args.max_delay]],
                sync=True,
            )
            drops = await clients[0].late_drops()
            late_ok = (
                drops == {"gw-late": 1}
                and (await clients[0].stats())["late_dropped"] == 1
            )
            print(f"selfcheck    : late drops {drops} ok={late_ok}")
            ok = ok and late_ok
        # SSE: a subscriber must see its own ingest pushed.
        sse = await clients[0].subscribe()
        probe = ["gw-sse", 0.5, 0.5]
        if args.horizon is not None:
            probe.append(now + 60.0)
        await clients[0].ingest([probe], sync=True)
        if args.max_delay is not None:
            # Touch notifications fire on apply, not on buffering.
            await admin.advance_time(now + 60.0 + 2 * args.max_delay)
        event = await sse.next_event(timeout=10.0)
        sse_ok = (
            event["event"] == "update"
            and "gw-sse" in event["data"]["keys"]
        )
        print(f"selfcheck    : sse push ok={sse_ok}")
        ok = ok and sse_ok
        await sse.aclose()
        # Auth: an unknown token must be refused with 401.
        anon = GatewayClient(args.host, port, "not-a-token")
        status, _ = await anon.request("GET", "/v1/keys")
        print(f"selfcheck    : bogus token -> {status}")
        ok = ok and status == 401
        await anon.aclose()
        # Scrape /metrics (off the dedicated listener when there is
        # one) and print the page so an outer harness (CI) can grep
        # metric families from this command's stdout.
        if metrics_port is not None:
            text = await scrape_metrics(metrics_port)
            where = f"metrics port {metrics_port}"
        else:
            text = await clients[0].metrics_text()
            where = f"port {port}"
        labeled = f'tenant="{tenants[0].id}"' in text
        ok = (
            ok
            and "repro_gateway_requests_total" in text
            and labeled
        )
        print(f"metrics      : scraped {len(text)} bytes from {where} "
              f"(tenant label ok={labeled})")
        print(text)
        if admin is not None:
            await admin.aclose()
        for client in clients:
            await client.aclose()
        return ok

    async def main() -> int:
        engine, _ = _tier_engine(args, "gateway")
        replay = getattr(engine, "last_replay", None)
        if replay is not None:
            print(f"recovered    : {replay['entries']} WAL entries "
                  f"({replay['records']:,} records, "
                  f"{replay['rejected']} rejected)")
        if (
            engine.window is not None
            and engine.window.max_delay is not None
        ):
            # Attribute later-than-watermark drops to tenants before
            # any other late hook (e.g. the durable dead-letter log,
            # which recovery already chained) fires.
            engine._on_late = tenant_dead_letter_hook(
                chain=engine._on_late
            )
        service = AsyncHullService(
            engine,
            tick_interval=args.tick,
            clock=time.time if args.tick is not None else None,
            own_engine=True,
        )
        ok = True
        async with service:
            async with HullGateway(
                service,
                registry,
                host=args.host,
                port=args.port,
                metrics_port=args.metrics_port,
            ) as gateway:
                window = engine.window
                mode = (
                    "no window" if window is None
                    else f"last_n={window.last_n}" if not window.timed
                    else f"horizon={window.horizon}"
                    + (
                        f" max_delay={window.max_delay}"
                        if window.max_delay is not None
                        else ""
                    )
                )
                tier = (
                    f"sharded x{args.workers}" if args.workers
                    else "in-process"
                )
                print(f"gateway      : http://{args.host}:{gateway.port} "
                      f"({tier}, {mode}, r={args.r})")
                source = (
                    args.tenants if args.tenants is not None
                    else "demo registry (tokens alpha-token/beta-token, "
                    "admin admin-token)"
                )
                print(f"tenants      : {len(registry)} from {source}")
                if engine.wal is not None:
                    print(f"wal          : {args.wal_dir} "
                          f"(seq {engine.wal.last_seq})")
                if gateway.metrics_port is not None:
                    print(f"metrics      : http://{args.host}:"
                          f"{gateway.metrics_port}/metrics")
                if args.selfcheck:
                    ok = await selfcheck(
                        gateway.port, metrics_port=gateway.metrics_port
                    )
                elif args.duration > 0:
                    await asyncio.sleep(args.duration)
                else:
                    try:
                        await gateway.serve_forever()
                    except asyncio.CancelledError:
                        pass
            await service.aclose(final_snapshot=args.snapshot)
            sstats = service.service_stats()
            print(f"drained      : {sstats['ingested_records']:,} records "
                  f"({sstats['ingest_errors']} rejected)")
            if args.snapshot:
                print(f"snapshot     : {args.snapshot}")
        return 0 if ok else 1

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def _cmd_durable_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .durable import (
        DeadLetterLog,
        iter_entries,
        list_segments,
        list_snapshots,
        load_latest_snapshot,
        read_meta,
        wal_exists,
    )
    from .durable import WalError, fsck

    wal_dir = Path(args.wal_dir)
    if not wal_exists(wal_dir):
        print(f"no WAL at {wal_dir}")
        return 1
    meta = read_meta(wal_dir) or {}
    tier = meta.get("tier") or "unknown"
    if meta.get("shards"):
        tier += f" x{meta['shards']}"
    spec = meta.get("spec")
    window = meta.get("window")
    segments = list_segments(wal_dir)
    snapshots = list_snapshots(wal_dir)
    snap = load_latest_snapshot(wal_dir)
    after = snap[0] if snap is not None else 0
    counts: dict = {}
    records = 0
    last_seq = after
    tail_error = None
    try:
        for entry in iter_entries(wal_dir, after=after):
            last_seq = entry[0]
            counts[entry[1]] = counts.get(entry[1], 0) + 1
            if entry[1] == "batch":
                records += len(entry[3])
            elif entry[1] == "insert":
                records += 1
    except WalError as exc:
        # Without --fsck a broken tail is a hard error, as before; with
        # it, the fsck report below localises the damage instead.
        if not args.fsck:
            raise
        tail_error = exc
    seg_bytes = sum(p.stat().st_size for _, p in segments)
    print(f"wal dir      : {wal_dir}")
    print(f"tier         : {tier}")
    if spec:
        print(f"spec         : {spec.get('class')} {spec.get('config')}")
    print(f"window       : {window if window else 'none'}")
    print(f"segments     : {len(segments)} ({seg_bytes:,} bytes)")
    print(f"snapshots    : {len(snapshots)}"
          + (f" (latest covers seq {after})" if snap is not None else ""))
    if tail_error is not None:
        print(f"tail entries : unreadable ({tail_error})")
    else:
        print(f"tail entries : {sum(counts.values())} to replay "
              f"({records:,} records) -> seq {last_seq}")
        for kind in sorted(counts):
            print(f"  {kind:<10} : {counts[kind]}")
    rc = 0
    if args.fsck:
        report = fsck(wal_dir)
        for seg in report["segments"]:
            line = (f"  {seg['path']} : {seg['frames']} frames, "
                    f"{seg['bytes']:,} bytes")
            if seg["first_seq"] is not None:
                line += f", seq {seg['first_seq']}..{seg['last_seq']}"
            if seg["gap"] is not None:
                line += f" [GAP: {seg['gap']}]"
            if seg["error"] is not None:
                tag = "torn tail" if seg["torn_tail"] else "CORRUPT"
                line += (f" [{tag}: {seg['error']} at offset "
                         f"{seg['error_offset']}]")
            print(line)
        if report["ok"]:
            verdict = "clean" if report["first_error"] is None else "torn tail"
        else:
            verdict = "CORRUPT"
        print(f"fsck         : {verdict} ({report['entries']} entries, "
              f"{report['records']:,} records, last seq "
              f"{report['last_seq']})")
        if report["first_error"] is not None:
            print(f"first error  : {report['first_error']}")
        rc = 0 if report["ok"] else 1
    log = DeadLetterLog(wal_dir)
    try:
        print(f"dead letters : {len(log)}")
    finally:
        log.close()
    return rc


def _cmd_durable_recover(args: argparse.Namespace) -> int:
    from .durable import DurabilityConfig, recover_engine, wal_exists

    if args.workers is not None and args.workers < 0:
        raise SystemExit("durable: --workers must be >= 0")
    if args.replicas < 0:
        raise SystemExit("durable: --replicas must be >= 0")
    if args.compact and args.workers is not None:
        # A compaction snapshot written under a tier/shard override
        # would not load back under the logged meta on the next
        # default recovery.
        raise SystemExit(
            "durable: --compact cannot be combined with --workers "
            "(the snapshot must match the logged tier)"
        )
    if not wal_exists(args.wal_dir):
        print(f"no WAL at {args.wal_dir}")
        return 1
    engine = recover_engine(
        args.wal_dir,
        workers=args.workers,
        standbys=args.replicas,
        durability=DurabilityConfig(args.wal_dir) if args.compact else None,
    )
    try:
        replay = engine.last_replay
        stats = engine.stats()
        workers = getattr(engine, "num_shards", 0)
        tier = f"sharded x{workers}" if workers else "in-process"
        print(f"recovered    : {replay['entries']} WAL entries replayed "
              f"({replay['records']:,} records, "
              f"{replay['rejected']} rejected)")
        print(f"tier         : {tier}")
        print(f"streams      : {stats.streams}")
        print(f"records      : {stats.points_ingested:,}")
        print(f"stored       : {stats.sample_points:,} sample points")
        if args.snapshot:
            path = engine.snapshot(args.snapshot)
            print(f"snapshot     : {path}")
        if args.compact:
            engine.wal.write_snapshot(engine.snapshot_state())
            print(f"compacted    : WAL snapshot covers seq "
                  f"{engine.wal.last_seq}")
    finally:
        engine.close()
    return 0


def _cmd_durable_dead_letters(args: argparse.Namespace) -> int:
    import numpy as np

    from .durable import DeadLetterLog

    if args.limit < 0:
        raise SystemExit("durable: --limit must be >= 0")
    log = DeadLetterLog(args.wal_dir)
    try:
        entries = list(log.iter_entries())
        total = sum(len(e[3]) for e in entries)
        print(f"dead letters : {len(entries)} slices / {total:,} records")
        for seq, _, key, points, ts, watermark in entries[: args.limit]:
            ts_arr = np.asarray(ts, dtype=np.float64).reshape(-1)
            print(f"  #{seq} key={key!r} n={len(points)} "
                  f"ts=[{ts_arr.min():g}, {ts_arr.max():g}] "
                  f"watermark={watermark:g}")
        if len(entries) > args.limit:
            print(f"  ... {len(entries) - args.limit} more")
        if args.replay and entries:
            from .durable import DurabilityConfig, recover_engine, wal_exists

            if not wal_exists(args.wal_dir):
                print(f"no WAL at {args.wal_dir}: nothing to replay into")
                return 1
            # Redriven slices become fresh (logged) ingests; the
            # engine's own dead-letter hook stays off so the two
            # writers never race on the same log file.
            engine = recover_engine(
                args.wal_dir,
                durability=DurabilityConfig(args.wal_dir, dead_letters=False),
            )
            try:
                result = log.replay_into(engine)
            finally:
                engine.close()
            print(f"redriven     : {result['entries']} slices / "
                  f"{result['records']:,} records "
                  f"({result['skipped']} skipped)")
            if result["skipped"] and args.truncate:
                print("truncate skipped: some slices were still rejected")
                return 1
        if args.truncate:
            dropped = log.truncate()
            print(f"truncated    : {dropped} slices dropped")
    finally:
        log.close()
    return 0


def _cmd_durable(args: argparse.Namespace) -> int:
    if args.durable_cmd == "inspect":
        return _cmd_durable_inspect(args)
    if args.durable_cmd == "recover":
        return _cmd_durable_recover(args)
    return _cmd_durable_dead_letters(args)


_COMMANDS = {
    "table1": _cmd_table1,
    "fig10": _cmd_fig10,
    "scaling": _cmd_scaling,
    "lower-bound": _cmd_lower_bound,
    "work": _cmd_work,
    "demo": _cmd_demo,
    "engine": _cmd_engine,
    "shard": _cmd_shard,
    "window": _cmd_window,
    "gateway": _cmd_gateway,
    "metrics": _cmd_metrics,
    "durable": _cmd_durable,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
