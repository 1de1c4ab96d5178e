"""Tests for the O(log r) directional-extent index."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactHull
from repro.core import AdaptiveHull, UniformHull
from repro.geometry.vec import dot, unit
from repro.queries import DirectionalExtentIndex
from repro.streams import as_tuples, ellipse_stream
from repro.window import WindowedHullSummary


@pytest.fixture(scope="module")
def stream_points():
    return list(as_tuples(ellipse_stream(4000, rotation=0.3, seed=17)))


@pytest.fixture(scope="module")
def adaptive_index(stream_points):
    h = AdaptiveHull(32)
    for p in stream_points:
        h.insert(p)
    return h, DirectionalExtentIndex(h)


class TestConstruction:
    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            DirectionalExtentIndex(AdaptiveHull(16))

    def test_size_matches_directions(self, adaptive_index):
        h, idx = adaptive_index
        # At most one entry per active direction (coincident extrema of
        # different directions keep separate keys).
        assert 1 <= len(idx) <= h.active_direction_count

    def test_uniform_summary(self, stream_points):
        h = UniformHull(16)
        for p in stream_points:
            h.insert(p)
        idx = DirectionalExtentIndex(h)
        assert len(idx) == 16

    def test_generic_fallback(self, stream_points):
        h = ExactHull()
        for p in stream_points:
            h.insert(p)
        idx = DirectionalExtentIndex(h)
        assert len(idx) == len(h.hull())

    def test_single_point_summary(self):
        h = AdaptiveHull(16)
        h.insert((2.0, 3.0))
        idx = DirectionalExtentIndex(h)
        assert idx.extreme_vertex(1.0) == (2.0, 3.0)
        assert idx.extent(0.0) == pytest.approx(0.0)


class TestSupportQueries:
    def test_support_never_exceeds_true(self, adaptive_index, stream_points):
        _, idx = adaptive_index
        for theta in [0.0, 0.7, 1.9, 3.1, 4.4, 5.8]:
            true_support = max(dot(p, unit(theta)) for p in stream_points)
            assert idx.support(theta) <= true_support + 1e-9

    def test_support_within_cos_gap(self, adaptive_index, stream_points):
        _, idx = adaptive_index
        gap = idx.max_gap()
        for theta in [0.0, 0.7, 1.9, 3.1]:
            true_support = max(dot(p, unit(theta)) for p in stream_points)
            # Lemma 3.1's argument: the nearest sampled direction's
            # extremum projects within cos(gap) of the true support
            # (allow additive slack for supports near zero).
            assert idx.support(theta) >= true_support * math.cos(gap) - 0.05

    def test_extent_matches_true_extent(self, adaptive_index, stream_points):
        _, idx = adaptive_index
        for theta in [0.0, 0.5, 1.2, 2.0]:
            vals = [dot(p, unit(theta)) for p in stream_points]
            true_ext = max(vals) - min(vals)
            got = idx.extent(theta)
            assert got <= true_ext + 1e-9
            assert got >= true_ext * math.cos(idx.max_gap()) - 0.05

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_extent_nonnegative_any_angle(self, theta):
        h = AdaptiveHull(16)
        for p in [(0.0, 0.0), (3.0, 0.0), (1.0, 2.0), (-1.0, -2.0)]:
            h.insert(p)
        idx = DirectionalExtentIndex(h)
        assert idx.extent(theta) >= -1e-12

    def test_extreme_vertex_is_sample(self, adaptive_index):
        h, idx = adaptive_index
        samples = set(h.samples())
        for theta in [0.1, 1.3, 2.9, 5.0]:
            assert idx.extreme_vertex(theta) in samples

    def test_max_gap_bounded_by_theta0(self, adaptive_index):
        h, idx = adaptive_index
        # Uniform directions alone guarantee gaps of at most theta0.
        assert idx.max_gap() <= 2.0 * math.pi / h.r + 1e-9


class TestStalenessRefresh:
    """Regression: the index used to snapshot the summary at construction
    and silently serve stale answers after the summary mutated; it now
    detects the summary's generation counter and rebuilds."""

    def test_insert_invalidates(self):
        h = AdaptiveHull(16)
        h.insert((1.0, 0.0))
        h.insert((0.0, 1.0))
        h.insert((-1.0, -1.0))
        idx = DirectionalExtentIndex(h)
        before = idx.support(0.0)
        h.insert((50.0, 0.0))  # new extreme point along +x
        assert idx.support(0.0) == pytest.approx(50.0)
        assert idx.support(0.0) > before

    def test_merge_invalidates(self):
        a, b = UniformHull(16), UniformHull(16)
        a.insert((1.0, 0.0))
        a.insert((-1.0, 1.0))
        b.insert((0.0, 30.0))
        idx = DirectionalExtentIndex(a)
        assert idx.support(math.pi / 2.0) < 2.0
        a.merge(b)
        assert idx.support(math.pi / 2.0) == pytest.approx(30.0)

    def test_load_state_invalidates(self, stream_points):
        big = AdaptiveHull(16)
        for p in stream_points:
            big.insert(p)
        h = AdaptiveHull(16)
        h.insert((0.1, 0.1))
        idx = DirectionalExtentIndex(h)
        stale_extent = idx.extent(0.0)
        h.load_state(big.state_dict())
        assert idx.extent(0.0) > stale_extent
        assert idx.extent(0.0) == pytest.approx(
            DirectionalExtentIndex(big).extent(0.0)
        )

    def test_generation_counts_mutations_only(self):
        h = UniformHull(8)
        assert h.generation == 0
        for p in [(2.0, 0.0), (-2.0, 2.0), (-2.0, -2.0)]:
            h.insert(p)
        g1 = h.generation
        assert g1 > 0
        h.insert((0.0, 0.0))  # contained: discarded, no state change
        assert h.generation == g1

    def test_every_scheme_has_generation(self, small_disk_points):
        from repro.streams.io import scheme_registry

        kwargs = {
            "ExactHull": {},
            "PartiallyAdaptiveHull": {"r": 16, "train_size": 50},
        }
        for name, cls in scheme_registry().items():
            if name == "WindowedHullSummary":
                continue  # windowed wrapper needs a scheme argument
            s = cls(**kwargs.get(name, {"r": 16}))
            assert s.generation == 0
            s.insert_many(small_disk_points[:200])
            assert s.generation > 0


# -- brute-force parity ---------------------------------------------------

_TWO_PI = 2.0 * math.pi

_SCHEMES = {
    "adaptive": lambda: AdaptiveHull(8),
    "uniform": lambda: UniformHull(8),
    # No sampling directions of its own: the hull-vertex normal fan.
    "exact": ExactHull,
    # Also the generic fallback, over a window that expires points.
    "windowed": lambda: WindowedHullSummary(
        lambda: AdaptiveHull(8), last_n=24, head_capacity=8
    ),
}


def _brute_table(summary):
    """Direction key -> farthest collected point along it (the first
    one on ties), from one linear pass over the collected entries."""
    groups = {}
    for theta, p in DirectionalExtentIndex._collect(summary):
        if p is not None:
            groups.setdefault(theta, []).append(p)
    return {
        k: max(ps, key=lambda p, u=unit(k): dot(p, u))
        for k, ps in groups.items()
    }


def _brute_extreme(table, theta):
    """Nearest key by a linear scan: circular floor vs ceiling of
    ``theta``, the floor winning ties."""
    t = theta % _TWO_PI
    below = [k for k in table if k <= t]
    above = [k for k in table if k >= t]
    lo = max(below) if below else max(table)
    hi = min(above) if above else min(table)
    return table[lo] if (t - lo) % _TWO_PI <= (hi - t) % _TWO_PI else table[hi]


def _brute_max_gap(table):
    ks = sorted(table)
    if len(ks) == 1:
        return _TWO_PI
    return max(b - a for a, b in zip(ks, ks[1:] + [ks[0] + _TWO_PI]))


def _assert_matches_brute(idx, summary, thetas):
    table = _brute_table(summary)
    assert len(idx) == len(table)
    assert idx.max_gap() == _brute_max_gap(table)
    for theta in list(table) + list(thetas):
        want = _brute_extreme(table, theta)
        assert idx.extreme_vertex(theta) == want
        assert idx.support(theta) == dot(want, unit(theta))
        far = _brute_extreme(table, theta + math.pi)
        assert idx.extent(theta) == dot(want, unit(theta)) + dot(
            far, unit(theta + math.pi)
        )


_coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
_angles = st.one_of(
    st.just(0.0),
    st.just(_TWO_PI),
    st.floats(min_value=-30.0, max_value=-1e-9),
    st.floats(min_value=_TWO_PI, max_value=40.0),
    st.floats(min_value=0.0, max_value=_TWO_PI),
)


class TestBruteForceParity:
    """Every query equals a linear scan over the collected directions,
    on the sampled schemes and on the generic hull-normal fallback."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_SCHEMES)),
        st.lists(st.tuples(_coords, _coords), min_size=1, max_size=60),
        st.lists(_angles, max_size=20),
        st.data(),
    )
    def test_queries_match_scan(self, scheme, pts, thetas, data):
        summary = _SCHEMES[scheme]()
        for p in pts:
            summary.insert(p)
        idx = DirectionalExtentIndex(summary)
        keys = sorted(_brute_table(summary))
        # Exact keys shifted by whole turns must land on the same entry.
        turns = data.draw(st.lists(st.integers(-2, 2), max_size=5))
        k = data.draw(st.integers(0, len(keys) - 1))
        thetas = thetas + [keys[k] + j * _TWO_PI for j in turns]
        _assert_matches_brute(idx, summary, thetas)

    @pytest.mark.parametrize("scheme", sorted(_SCHEMES))
    def test_stream_summaries_match_scan(self, scheme, stream_points):
        summary = _SCHEMES[scheme]()
        summary.insert_many(stream_points[:1500])
        idx = DirectionalExtentIndex(summary)
        thetas = [-7.0, -1e-300, 0.0, 1.0, math.pi, _TWO_PI, 9.5, 1e6]
        _assert_matches_brute(idx, summary, thetas)
        # Mutation triggers a rebuild that still matches the scan.
        summary.insert((300.0, -200.0))
        _assert_matches_brute(idx, summary, thetas)
