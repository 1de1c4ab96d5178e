"""Property: replay of ANY WAL prefix == direct ingest of that prefix.

Determinism is the whole durability story — the engines are pure
functions of their input sequence, so cutting the log anywhere (a
crash can stop it at any entry boundary) and replaying must land in
exactly the state direct ingestion of that prefix produces.  Hypothesis
drives random op sequences and random cut points through both window
flavours; the sharded tier re-checks a sampled set of cuts (process
spawns are too slow for per-example rings).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durable import DurabilityConfig, iter_entries, replay_into
from repro.engine import StreamEngine
from repro.shard import ShardedEngine, SummarySpec
from repro.window import WindowConfig

SPEC = SummarySpec("AdaptiveHull", {"r": 8})
POOL = [f"key-{i}" for i in range(4)]

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def op_streams(draw, timed: bool):
    """A short mixed op sequence: batches, inserts, (timed) advances.

    Event-time ops carry timestamps that mostly jitter within the
    lateness bound, with occasional far-too-late records so the drop
    verdict is part of the replayed behaviour.
    """
    n_ops = draw(st.integers(min_value=1, max_value=10))
    ops = []
    t = 10.0
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(["batch", "batch", "insert", "advance"])
            if timed
            else st.sampled_from(["batch", "batch", "insert"])
        )
        if kind == "advance":
            t += draw(st.floats(min_value=0.0, max_value=2.0))
            ops.append(("advance", t))
            continue
        size = 1 if kind == "insert" else draw(st.integers(1, 6))
        keys, ts = [], []
        for _ in range(size):
            keys.append(draw(st.sampled_from(POOL)))
            t += draw(st.floats(min_value=0.0, max_value=0.5))
            late = draw(st.booleans()) and draw(st.booleans())
            jitter = draw(st.floats(min_value=0.0, max_value=0.9))
            ts.append(t - 50.0 if late else t - jitter)
        pts = draw(
            st.lists(
                st.tuples(
                    st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)
                ),
                min_size=size,
                max_size=size,
            )
        )
        ops.append((kind, keys, np.array(pts, dtype=np.float64),
                    np.array(ts, dtype=np.float64)))
    return ops


def apply_op(engine, op, timed: bool):
    if op[0] == "advance":
        engine.advance_time(op[1])
    elif op[0] == "insert":
        _, keys, pts, ts = op
        kw = {"ts": float(ts[0])} if timed else {}
        engine.insert(keys[0], pts[0][0], pts[0][1], **kw)
    else:
        _, keys, pts, ts = op
        kw = {"ts": ts} if timed else {}
        engine.ingest_arrays(np.array(keys), pts, **kw)


def check_prefixes(tmp, ops, cut_frac, timed, window, spec=SPEC):
    wal_dir = Path(tmp) / "wal"
    eng = StreamEngine(
        spec,
        window=window,
        durability=DurabilityConfig(wal_dir, dead_letters=False),
    )
    for op in ops:
        apply_op(eng, op, timed)
    eng.close()

    entries = list(iter_entries(wal_dir))
    assert len(entries) == len(ops) + 1  # meta + one per op
    cut = 1 + int(cut_frac * len(ops))  # keep meta, cut the op tail

    replayed = StreamEngine(spec, window=window)
    replay_into(replayed, entries[:cut])

    direct = StreamEngine(spec, window=window)
    for op in ops[: cut - 1]:
        apply_op(direct, op, timed)

    assert replayed.snapshot_state() == direct.snapshot_state()
    assert replayed.late_dropped == direct.late_dropped


@settings(**SETTINGS)
@given(ops=op_streams(timed=False), cut_frac=st.floats(0.0, 1.0))
def test_count_window_prefix_replay_is_direct_ingest(ops, cut_frac):
    with tempfile.TemporaryDirectory() as tmp:
        check_prefixes(
            tmp, ops, cut_frac, timed=False, window=WindowConfig(last_n=10)
        )


@settings(**SETTINGS)
@given(ops=op_streams(timed=True), cut_frac=st.floats(0.0, 1.0))
def test_event_time_prefix_replay_is_direct_ingest(ops, cut_frac):
    with tempfile.TemporaryDirectory() as tmp:
        check_prefixes(
            tmp,
            ops,
            cut_frac,
            timed=True,
            window=WindowConfig(horizon=5.0, max_delay=1.0),
        )


@settings(**SETTINGS)
@given(ops=op_streams(timed=False), cut_frac=st.floats(0.0, 1.0))
def test_unwindowed_prefix_replay_is_direct_ingest(ops, cut_frac):
    with tempfile.TemporaryDirectory() as tmp:
        check_prefixes(tmp, ops, cut_frac, timed=False, window=None)


@pytest.mark.parametrize(
    "spec",
    [
        SummarySpec("UniformHull", {"r": 16}),
        SummarySpec("FixedSizeAdaptiveHull", {"r": 8}),
        SummarySpec("ExactHull"),
    ],
    ids=lambda spec: spec.scheme,
)
@settings(**SETTINGS)
@given(ops=op_streams(timed=False), cut_frac=st.floats(0.0, 1.0))
def test_other_schemes_prefix_replay_is_direct_ingest(spec, ops, cut_frac):
    """The unwindowed property for the registered schemes besides
    AdaptiveHull (which every test above builds)."""
    with tempfile.TemporaryDirectory() as tmp:
        check_prefixes(tmp, ops, cut_frac, timed=False, window=None, spec=spec)


def test_sharded_prefix_replay_matches_direct_ingest(tmp_path):
    """The ring flavour of the property over a sampled set of cuts."""
    rng = np.random.default_rng(11)
    keys = np.array([POOL[i] for i in rng.integers(0, len(POOL), 200)])
    pts = rng.normal(0.0, 10.0, (200, 2))
    wal_dir = tmp_path / "wal"
    with ShardedEngine(
        SPEC, shards=2, durability=DurabilityConfig(wal_dir)
    ) as eng:
        for lo in range(0, 200, 25):
            eng.ingest_arrays(keys[lo:lo + 25], pts[lo:lo + 25])

    entries = list(iter_entries(wal_dir))
    for cut in (1, 3, 5, len(entries)):
        with ShardedEngine(SPEC, shards=2) as replayed, \
                ShardedEngine(SPEC, shards=2) as direct:
            replay_into(replayed, entries[:cut])
            for lo in range(0, (cut - 1) * 25, 25):
                direct.ingest_arrays(keys[lo:lo + 25], pts[lo:lo + 25])
            assert replayed.snapshot_state() == direct.snapshot_state()
