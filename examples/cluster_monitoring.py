#!/usr/bin/env python3
"""Monitoring sensor clusters with the multi-stream engine.

Three sensor clusters report batched ``(cluster, x, y)`` readings.  The
:class:`~repro.engine.StreamEngine` keeps one adaptive hull per cluster
key (lazily created, batch-routed, vectorised ingestion), a standing
subscription flags batches touching watched clusters, and an
engine-bound :class:`~repro.queries.trackers.OverlapTracker` answers the
paper's Section 6 queries against the live summaries.  A snapshot/
restore round trip at the end shows the checkpoint story — same hulls,
same counters, ready to keep streaming.

The cluster key arrives with each record, the production-common case,
so each cluster's hull is one keyed summary.

Run:  python examples/cluster_monitoring.py
"""

import numpy as np

from repro import AdaptiveHull, OverlapTracker, StreamEngine, diameter
from repro.geometry import area as polygon_area


def main() -> None:
    rng = np.random.default_rng(11)
    centers = {"north": (0.0, 9.0), "west": (-6.0, 0.0), "east": (6.0, 0.0)}
    names = list(centers)

    engine = StreamEngine(lambda: AdaptiveHull(16))

    # Standing query wiring: overlap of the east/west extents, refreshed
    # only when a batch touches those keys.
    tracker = OverlapTracker(lambda: AdaptiveHull(16))
    overlap_log = []

    def on_update(touched):
        overlap_log.append(
            (engine.stats().batches_ingested, tracker.jaccard("west", "east"))
        )

    engine.attach_tracker(tracker, ["west", "east"], on_update=on_update)

    # 30 batches of mixed readings; the west cluster drifts east until
    # its extent overlaps the east cluster's.
    for batch_no in range(30):
        per_batch = 1000
        idx = rng.integers(0, len(names), per_batch)
        keys = np.array(names, dtype=object)[idx]
        base = np.array([centers[k] for k in keys.tolist()])
        drift = np.where(keys[:, None] == "west", (0.4 * batch_no, 0.0), 0.0)
        pts = base + drift + rng.normal(0.0, 0.6, (per_batch, 2))
        engine.ingest_arrays(keys, pts)

    stats = engine.stats()
    print(f"stream records : {stats.points_ingested:,} in {stats.batches_ingested} batches")
    print(f"clusters       : {len(engine)}")
    print(f"total stored   : {stats.sample_points} points")
    print()
    print(f"{'cluster':>8} {'points':>8} {'hull area':>10} {'diameter':>9} {'centroid':>18}")
    for name in engine.keys():
        summary = engine.get(name)
        hull = summary.hull()
        cx = sum(v[0] for v in hull) / len(hull)
        cy = sum(v[1] for v in hull) / len(hull)
        print(
            f"{name:>8} {summary.points_seen:>8,} "
            f"{abs(polygon_area(hull)):>10.3f} {diameter(summary):>9.3f} "
            f"({cx:>7.2f}, {cy:>6.2f})"
        )

    first_overlap = next((b for b, j in overlap_log if j > 0.0), None)
    print()
    print(f"west/east overlap (Jaccard) now: {tracker.jaccard('west', 'east'):.3f}")
    if first_overlap is not None:
        print(f"standing query first flagged overlap in batch {first_overlap}")

    # Checkpoint and restore: identical hulls, ready to keep streaming.
    path = engine.snapshot("cluster_monitoring_snapshot.json")
    restored = StreamEngine.restore(path, lambda: AdaptiveHull(16))
    ok = all(restored.hull(k) == engine.hull(k) for k in engine.keys())
    print()
    print(f"snapshot       : {path} ({path.stat().st_size:,} bytes)")
    print(f"restore check  : identical hulls across {len(engine)} clusters: {ok}")


if __name__ == "__main__":
    main()
