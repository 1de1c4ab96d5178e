"""repro.shard — mergeable summaries fanned out over worker processes.

The paper's summaries store *input points*, which makes them mergeable:
re-ingesting one summary's samples into another yields a valid summary
of the concatenated stream (see :meth:`repro.core.base.HullSummary.merge`
and the vectorised scheme-specific overrides).  This package turns that
algebra into horizontal scale, the way large detector collaborations
reduce per-subsystem streams into one global result:

* :class:`~repro.shard.hashing.HashRing` — consistent hashing of stream
  keys onto N shards (stable across processes; resize moves only the
  proportional slice of keys);
* :class:`~repro.shard.spec.SummarySpec` — a scheme as picklable data,
  so factories can cross process boundaries;
* :mod:`~repro.shard.transport` — the zero-copy wire layer: batch
  slices cross the worker pipes as raw length-prefixed NumPy buffer
  frames (:class:`~repro.shard.transport.FramePipe`, the one pipe
  protocol; the write-ahead and dead-letter logs reuse its codec);
* :func:`~repro.shard.worker.shard_worker_main` — one
  :class:`~repro.engine.StreamEngine` per worker process, spoken to
  over a framed pipe in the :mod:`repro.streams.io` snapshot format,
  pre-folding its shard-level partial during ingest idle time;
* :class:`~repro.shard.engine.ShardedEngine` — the front door: batch
  fan-out across all workers, per-key hulls bit-for-bit identical to a
  single engine, global hull/diameter/width through a tree reduction of
  per-shard merged summaries, and whole-ring snapshot/restore (onto the
  same or a different worker count).

Quickstart::

    from repro import ShardedEngine, SummarySpec

    with ShardedEngine(SummarySpec("AdaptiveHull", {"r": 32}), shards=4) as eng:
        eng.ingest_arrays(keys, points)          # fans out to 4 processes
        eng.hull("sensor-17")                    # per-key, exact routing
        eng.merged_hull()                        # global, tree-reduced
        eng.snapshot("ring.json")                # whole-ring checkpoint
"""

from ..core.base import tree_merge
from .engine import ShardedEngine, ShardError, ShardStats
from .hashing import HashRing, stable_key_token
from .spec import SummarySpec
from .transport import TransportError

__all__ = [
    "ShardedEngine",
    "ShardError",
    "ShardStats",
    "HashRing",
    "SummarySpec",
    "stable_key_token",
    "tree_merge",
    "TransportError",
]
