"""The in-process workloads: ``keyed_ingest`` and ``long_stream``.

Both drive ``StreamEngine(lambda: AdaptiveHull(r))`` from one thread in
a closed loop.  A *pass* feeds a fresh engine the whole generated
input in fixed-size ``ingest_arrays`` batches; after every batch one
per-key read (the diameter of the batch's first key) runs, and after
every ``query_every``-th batch one global ``engine.diameter()``.  The
inputs are the same on every pass, so every pass does the same work
and ends in the same state; one untimed pass warms the process up.

With tracing on, the benchmark's own wrappers record spans around the
engine's ``ingest_arrays``, the summary's ``insert_many``, the
``convex_hull`` the summaries import, and the engine's
``merged_summary`` and ``diameter``; traced and untraced passes
alternate so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from measure import (
    LayerTotals,
    Outcome,
    Tracer,
    highest_tail,
    layer_totals,
    report,
    tail_summary,
)
from quality import mean_and_max, rel_errors

COUNTERS = (
    "points_seen",
    "points_processed",
    "refinements",
    "unrefinements",
    "nodes_visited",
    "ring_discards",
)


@dataclass(frozen=True)
class InprocSpec:
    name: str
    keys: int
    records: int  # per pass
    batch: int
    r: int = 32
    query_every: int = 10  # >= 20 query positions per pass
    gate_keys: int = 4  # keys re-fed by sequential insert
    gate_records: Optional[int] = None  # batched-prefix gate instead

    def doc(self) -> dict:
        return {
            "tier": "StreamEngine (in-process), closed loop, one thread",
            "scheme": f"AdaptiveHull({self.r})",
            "stream": "disk_stream",
            "keys": self.keys,
            "records_per_pass": self.records,
            "batch": self.batch,
            "global_diameter_every": self.query_every,
            "per_key_read": "diameter of the batch's first key after every batch, best of 3 calls",
            "timings": "per batch position, best of the timed passes",
        }


# A pass has at least 200 batches: timings are per batch position, and
# a p95 needs ten positions beyond it.
KEYED = InprocSpec("keyed_ingest", keys=64, records=64 * 1600, batch=500)
LONG = InprocSpec(
    "long_stream", keys=1, records=4_000_000, batch=20_000, gate_records=200_000
)


@dataclass
class Inputs:
    keys: np.ndarray
    points: np.ndarray
    names: List[str]

    def stream(self, key, n: Optional[int] = None) -> np.ndarray:
        """The key's points among the first ``n`` records."""
        pts = self.points[:n]
        if len(self.names) == 1:
            return pts
        return pts[self.keys[:n] == key]


def make_inputs(spec: InprocSpec, seed: int) -> Inputs:
    """The pass input: a pure function of (workload, seed)."""
    from repro.streams import disk_stream

    names = [f"k{i:02d}" for i in range(spec.keys)]
    if spec.keys == 1:
        keys = np.broadcast_to(np.array(names[0]), (spec.records,))
    else:
        rng = np.random.default_rng([seed, spec.keys, spec.records])
        keys = np.array(names)[rng.integers(0, spec.keys, spec.records)]
    return Inputs(keys, disk_stream(spec.records, seed=seed), names)


def run_pass(spec: InprocSpec, inputs: Inputs, tracer: Optional[Tracer] = None, on_query=None):
    """One pass over the inputs on a fresh engine; ``on_query(engine,
    n)`` runs (untimed) after each global query, ``n`` records in."""
    from repro.core import AdaptiveHull
    from repro.engine import StreamEngine
    from repro.queries import diameter

    clock = time.perf_counter
    engine = StreamEngine(lambda: AdaptiveHull(spec.r))
    ingest, reads, queries = [], [], []
    changed = 0
    start = clock()
    n = len(inputs.points)
    for b, lo in enumerate(range(0, n, spec.batch)):
        hi = min(lo + spec.batch, n)
        if tracer is not None:
            tracer.batch = b
        t0 = clock()
        changed += engine.ingest_arrays(inputs.keys[lo:hi], inputs.points[lo:hi])
        t1 = clock()
        ingest.append(t1 - t0)
        # A read takes microseconds: the best of three back-to-back
        # calls keeps timer and interrupt jitter out of its tail.
        summary = engine.get(inputs.keys[lo])
        best = math.inf
        for _ in range(3):
            t0 = clock()
            diameter(summary)
            best = min(best, clock() - t0)
        reads.append(best)
        if (b + 1) % spec.query_every == 0:
            t0 = clock()
            engine.diameter()
            queries.append(clock() - t0)
            if on_query is not None:
                on_query(engine, hi)
    return {
        "engine": engine,
        "seconds": clock() - start,
        "ingest": ingest,
        "reads": reads,
        "queries": queries,
        "changed": changed,
        "rps": n / sum(ingest),
    }


def summary_state(summary) -> tuple:
    return (
        tuple(summary.hull()),
        tuple(summary.samples()),
        tuple(getattr(summary, c) for c in COUNTERS),
    )


def engine_state(engine) -> Dict[str, tuple]:
    return {k: summary_state(engine.get(k)) for k in sorted(engine.keys())}


def sequential_gate(spec: InprocSpec, inputs: Inputs, engine) -> List[str]:
    """batch == sequential: re-feed a fixed sample through ``insert`` on
    fresh summaries and compare hulls, samples and counters bit for bit.
    Returns the failures (empty when the gate passes)."""
    from repro.core import AdaptiveHull
    from repro.engine import StreamEngine

    failures = []
    if spec.gate_records is None:
        targets = {k: engine.get(k) for k in inputs.names[: spec.gate_keys]}
        streams = {k: inputs.stream(k) for k in targets}
    else:
        # One long key: the whole pass is too long to replay point by
        # point, so the gate compares a batched prefix instead.
        m = spec.gate_records
        prefix = StreamEngine(lambda: AdaptiveHull(spec.r))
        for lo in range(0, m, spec.batch):
            prefix.ingest_arrays(inputs.keys[lo:lo + spec.batch], inputs.points[lo:lo + spec.batch])
        targets = {k: prefix.get(k) for k in prefix.keys()}
        streams = {k: inputs.stream(k, m) for k in targets}
    for key, batched in targets.items():
        seq = AdaptiveHull(spec.r)
        for p in streams[key].tolist():
            seq.insert((p[0], p[1]))
        if summary_state(seq) != summary_state(batched):
            failures.append(f"batch != sequential on key {key}")
    return failures


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    import repro.core.adaptive_hull as adaptive_mod
    import repro.core.uniform_hull as uniform_mod
    from repro.core import AdaptiveHull
    from repro.engine import StreamEngine

    missing = object()
    targets = [
        (StreamEngine, "ingest_arrays", "engine"),
        (AdaptiveHull, "insert_many", "core"),
        (adaptive_mod, "convex_hull", "geometry"),
        (uniform_mod, "convex_hull", "geometry"),
        (StreamEngine, "merged_summary", "queries.merged_summary"),
        (StreamEngine, "diameter", "queries.diameter"),
    ]
    saved = []
    for owner, attr, name in targets:
        saved.append((owner, attr, vars(owner).get(attr, missing)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            if orig is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


SETUP_CHILD = (
    "from repro.core import AdaptiveHull\n"
    "from repro.engine import StreamEngine\n"
    "StreamEngine(lambda: AdaptiveHull({r}))\n"
    "print('ready', flush=True)\n"
)


def setup_seconds(spec: InprocSpec, env: dict, reps: int = 5) -> float:
    """Median time from spawning a fresh interpreter to an engine ready
    for its first batch (import plus construction)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD.format(r=spec.r)],
            env=env,
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return statistics.median(times)


def best_per_position(passes: List[dict], field: str) -> List[float]:
    """For each batch position, the fastest of the passes' timings.

    Every pass does identical work, so the minimum strips the
    interference of whatever else the machine ran at that moment."""
    return [min(times) for times in zip(*(p[field] for p in passes))]


def run(spec: InprocSpec, seed: int, seconds: float, trace: bool, env: dict, out_dir) -> Outcome:
    setup_s = setup_seconds(spec, env)
    inputs = make_inputs(spec, seed)
    errors: List[float] = []

    def check_quality(engine, n):
        live = engine.keys()
        errors.extend(rel_errors({k: inputs.stream(k, n) for k in live}, {k: engine.hull(k) for k in live}))

    warm = run_pass(spec, inputs, on_query=check_quality)
    reference = engine_state(warm["engine"])
    failures = sequential_gate(spec, inputs, warm["engine"])
    report(f"gate: batch == sequential "
           f"{'FAILED ' + '; '.join(failures) if failures else 'ok'}")
    err, err_max = mean_and_max(errors)
    summaries = [warm["engine"].get(k) for k in inputs.names]

    tracer = Tracer()
    plain, traced_passes = [], []
    est = warm["seconds"]
    t_start = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced_passes)
        if use_trace:
            with traced(tracer):
                res = run_pass(spec, inputs, tracer)
            traced_passes.append(res)
        else:
            res = run_pass(spec, inputs)
            plain.append(res)
        if engine_state(res.pop("engine")) != reference:
            failures.append(f"pass {len(plain) + len(traced_passes)} diverged from the warm-up pass")
        elapsed = time.perf_counter() - t_start
        enough = len(plain) >= 2 and (not trace or traced_passes)
        if enough and elapsed + est / 2 >= seconds:
            break

    best = best_per_position(plain, "ingest")
    ingest = tail_summary(best, 0.95)
    reads = tail_summary(best_per_position(plain, "reads"), 0.95)
    queries = highest_tail(best_per_position(plain, "queries"))
    rps = spec.records / sum(best)
    attempted = sum(len(p["ingest"]) + len(p["reads"]) + len(p["queries"]) for p in plain)
    report(f"{spec.name}: {len(plain)} timed passes of {spec.records:,} records in "
           f"{spec.records // spec.batch} batches"
           + (f", {len(traced_passes)} traced" if trace else "")
           + "; timings are per position, the best of the timed passes")
    per_pass = ", ".join(f"{p['rps']:,.0f}" for p in plain)
    report(f"ingest_rps: {rps:,.0f} rec/s (each pass alone: {per_pass})")
    report(ingest.describe("ingest batch"))
    report(reads.describe("per-key read (diameter)"))
    report(queries.describe("global diameter query"))
    report(f"relative hull error over {len(errors)} key checks: mean {err:.6g}, max {err_max:.6g}")

    end_to_end = {
        "setup_s": setup_s,
        "ingest_rps": rps,
        "ingest_p50_ms": ingest.median * 1e3,
        "ingest_p95_ms": ingest.tail * 1e3,
        "query_p50_ms": queries.median * 1e3,
        "read_p50_ms": reads.median * 1e3,
        "read_p95_ms": reads.tail * 1e3,
        "ok_frac": 1.0,
        "mean_err_rel": err,
    }
    per_layer = {}
    if trace:
        per_layer = layer_split(spec, tracer, traced_passes, rps, summaries, warm["changed"])
        tracer.dump(out_dir / f"spans-{spec.name}.jsonl")
    return Outcome(not failures, attempted, 0, end_to_end, per_layer, failures)


def layer_split(spec, tracer, traced_passes, plain_rps, summaries, changed) -> Dict[str, float]:
    """Per-layer metrics from the traced passes' spans plus the
    summaries' own counters (identical on every pass)."""
    passes = len(traced_passes)
    batches = sum(len(p["ingest"]) for p in traced_passes)
    n_queries = sum(len(p["queries"]) for p in traced_passes)
    ingest = layer_totals(tracer.spans, under="engine")
    query = layer_totals(tracer.spans, under="queries.diameter")
    eng, core, geo = (ingest.get(n, LayerTotals()) for n in ("engine", "core", "geometry"))
    seen = sum(s.points_seen for s in summaries)
    processed = sum(s.points_processed for s in summaries)
    traced_rps = spec.records / sum(best_per_position(traced_passes, "ingest"))
    measured = sum(x for p in traced_passes for x in p["ingest"])
    accounted = eng.self_time + core.self_time + geo.self_time
    report(f"traced ingest: engine self {eng.self_time / batches * 1e3:.3f} ms/batch, "
           f"core self {core.self_time / batches * 1e3:.3f}, "
           f"geometry self {geo.self_time / batches * 1e3:.3f}; "
           f"the three account for {100 * accounted / measured:.1f}% of timed ingest")
    report(f"tracing overhead: untraced {plain_rps:,.0f} vs traced {traced_rps:,.0f} rec/s")
    metrics = dict.fromkeys(IDLE_IN_PROCESS, 0.0)
    metrics.update({
        "core.insert_many_s": core.self_time / batches,
        "core.insert_many_calls": core.count / passes,
        "core.points_seen": seen,
        "core.points_processed": processed,
        "core.survivor_frac": processed / seen,
        "core.hull_changes": changed,
        "core.nodes_visited": sum(s.nodes_visited for s in summaries),
        "core.ring_discards": sum(s.ring_discards for s in summaries),
        "core.sample_points": sum(s.sample_size for s in summaries),
        "geometry.convex_hull_s": geo.self_time / batches,
        "geometry.convex_hull_calls": geo.count / passes,
        "engine.ingest_arrays_s": eng.inclusive / batches,
        "engine.self_s": eng.self_time / batches,
        "engine.groups_per_batch": core.count / batches,
        "queries.merged_summary_s": query["queries.merged_summary"].inclusive / n_queries,
        "queries.fold_s": query["queries.diameter"].self_time / n_queries,
        "trace.ingest_rps": traced_rps,
        "trace.overhead_frac": plain_rps / traced_rps - 1.0,
    })
    return metrics


#: Layers the in-process workloads never reach; reported as 0.
IDLE_IN_PROCESS = (
    "window.bucket_seals", "window.bucket_merges", "window.bucket_expiries",
    "shard.partition_s", "shard.send_s", "shard.collect_s",
    "shard.worker_apply_s", "shard.pipe_wait_s", "shard.bytes_sent",
    "shard.bytes_recv", "shard.streams_skew",
    "serve.queue_wait_s", "serve.coalesced_records_mean", "serve.engine_calls",
    "gateway.ingest_server_s", "gateway.hull_server_s",
    "gateway.client_overhead_ms", "gateway.ingest_bytes",
)
