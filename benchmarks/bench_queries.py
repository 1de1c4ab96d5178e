"""Section 6 query costs: O(log r) / O(r) per query on the summary.

Times each extremal query on a finished adaptive summary (these are the
operations a monitoring application runs continuously) and the
separation / containment / overlap queries on a two-stream tracker.
The numbers demonstrate the point of the paper's summary: query cost
depends on r only, never on the stream length.
"""

import pytest
from _util import paper_n

from repro.core import AdaptiveHull
from repro.queries import (
    ContainmentTracker,
    DirectionalExtentIndex,
    OverlapTracker,
    SeparationTracker,
    diameter,
    enclosing_circle,
    extent,
    farthest_neighbor,
    width,
)
from repro.streams import as_tuples, disk_stream, ellipse_stream, translate


@pytest.fixture(scope="module")
def summary():
    h = AdaptiveHull(32)
    n = paper_n(default=20_000, full=100_000)
    for p in as_tuples(ellipse_stream(n, rotation=0.1, seed=5)):
        h.insert(p)
    return h


@pytest.fixture(scope="module")
def two_streams():
    t = SeparationTracker(lambda: AdaptiveHull(32))
    n = paper_n(default=10_000, full=50_000)
    for p in as_tuples(translate(disk_stream(n, seed=6), -3.0, 0.0)):
        t.insert("A", p)
    for p in as_tuples(translate(disk_stream(n, seed=7), 3.0, 0.0)):
        t.insert("B", p)
    return t


def test_query_diameter(benchmark, summary):
    assert benchmark(diameter, summary) > 0


def test_query_width(benchmark, summary):
    assert benchmark(width, summary) > 0


def test_query_extent(benchmark, summary):
    assert benchmark(extent, summary, (0.6, 0.8)) > 0


def test_query_direction_index_build(benchmark, summary):
    """Building the Section 6 index: sort the directions once, O(r log r)."""
    assert len(benchmark(DirectionalExtentIndex, summary)) >= summary.r


def test_query_direction_index_support(benchmark, summary):
    """One O(log r) support query on a built (fresh) index."""
    idx = DirectionalExtentIndex(summary)
    assert benchmark(idx.support, 0.7) > 0


def test_query_farthest_neighbor(benchmark, summary):
    assert benchmark(farthest_neighbor, summary, (0.0, 0.0))[0] > 0


def test_query_enclosing_circle(benchmark, summary):
    assert benchmark(enclosing_circle, summary)[1] > 0


def test_query_separation_distance(benchmark, two_streams):
    d = benchmark(two_streams.distance, "A", "B")
    assert 3.5 < d < 4.5


def test_query_separability_certificate(benchmark, two_streams):
    assert benchmark(two_streams.certificate, "A", "B") is not None


def test_query_overlap_area(benchmark):
    t = OverlapTracker(lambda: AdaptiveHull(32))
    for p in as_tuples(translate(disk_stream(5000, seed=8), -0.5, 0.0)):
        t.insert("A", p)
    for p in as_tuples(translate(disk_stream(5000, seed=9), 0.5, 0.0)):
        t.insert("B", p)
    area = benchmark(t.overlap_area, "A", "B")
    assert 1.0 < area < 1.3


def test_query_containment(benchmark):
    t = ContainmentTracker(lambda: AdaptiveHull(32))
    for p in as_tuples(disk_stream(5000, seed=10)):
        t.insert("inner", (0.3 * p[0], 0.3 * p[1]))
    for p in as_tuples(disk_stream(5000, seed=11)):
        t.insert("outer", (3.0 * p[0], 3.0 * p[1]))
    assert benchmark(t.contained, "inner", "outer")


def test_insert_fast_path(benchmark, summary):
    """The per-point cost for the typical (inside-hull) stream point."""
    benchmark(summary.insert, (0.0, 0.0))
