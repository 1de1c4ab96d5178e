"""Common interface for streaming hull summaries.

Every summary in this library — the paper's adaptive hull, the uniform
hull, and all baselines — implements :class:`HullSummary`, so the query
layer, the experiment harness, and the trackers are agnostic to which
scheme produced the summary.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, List

from ..geometry.vec import Point

__all__ = ["HullSummary", "check_point", "coerce_point", "tree_merge"]


def check_point(p: Point) -> Point:
    """Validate one stream point: a pair of finite numbers.

    NaN or infinite coordinates would silently poison every orientation
    predicate downstream, so summaries reject them at the boundary.
    Accepts anything indexable whose coordinates support float
    conversion — tuples, lists, NumPy rows, NumPy scalars — without
    round-tripping each coordinate through ``float()`` (``math.isfinite``
    validates in place, which keeps this off the batch-ingestion hot
    path).

    Raises:
        ValueError: on non-finite coordinates.
        TypeError: on inputs that are not 2-sequences of numbers.
    """
    try:
        ok = math.isfinite(p[0]) and math.isfinite(p[1])
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise TypeError(f"stream point must be an (x, y) pair, got {p!r}") from exc
    if not ok:
        raise ValueError(f"stream point must be finite, got {p!r}")
    return p


def coerce_point(p: Point) -> Point:
    """Validate ``p`` and normalise it to an ``(x, y)`` tuple of floats.

    The batch paths use this at the boundary so that every stored sample
    is a plain hashable float tuple regardless of whether the caller
    passed tuples, lists, or NumPy rows.  Already-normalised points pass
    through untouched.

    Raises:
        ValueError / TypeError: as :func:`check_point`.
    """
    if type(p) is tuple and len(p) == 2 and type(p[0]) is float and type(p[1]) is float:
        return check_point(p)
    check_point(p)
    return (float(p[0]), float(p[1]))


class HullSummary(abc.ABC):
    """A single-pass summary of a 2-D point stream.

    Subclasses maintain a bounded sample of the stream whose convex hull
    approximates the true convex hull from the inside (every sample is an
    input point, so the approximate hull never overshoots).
    """

    #: Human-readable scheme name for experiment reports.
    name: str = "summary"

    #: Monotone mutation counter.  Every state-changing operation —
    #: a summary-changing ``insert``, a ``merge``, a ``load_state`` —
    #: bumps it (via :meth:`_bump_generation`), so derived snapshot
    #: structures such as
    #: :class:`~repro.queries.direction_index.DirectionalExtentIndex`
    #: can detect staleness with one integer comparison instead of
    #: silently serving answers from a dead state.  A class-level zero
    #: keeps parameterless ``__init__``-free subclasses working; the
    #: first bump shadows it with an instance attribute.
    generation: int = 0

    def _bump_generation(self) -> None:
        """Mark the summary mutated (cheap: one integer increment)."""
        self.generation += 1

    @abc.abstractmethod
    def insert(self, p: Point) -> bool:
        """Process one stream point; return True if the summary changed."""

    @abc.abstractmethod
    def hull(self) -> List[Point]:
        """The approximate convex hull as a CCW convex polygon."""

    @abc.abstractmethod
    def samples(self) -> List[Point]:
        """The currently stored sample points (distinct)."""

    @property
    def sample_size(self) -> int:
        """Number of stored sample points."""
        return len(self.samples())

    def extend(self, points: Iterable[Point]) -> "HullSummary":
        """Insert every point of an iterable; returns self for chaining.

        Delegates to :meth:`insert_many`, so every scheme gets the same
        atomic whole-batch validation (and, where available, the
        vectorised fast path) instead of a raw per-point loop: a
        malformed row rejects the batch without a half-ingested prefix.
        """
        self.insert_many(points)
        return self

    def insert_many(self, points: Iterable[Point], chunk: int = 4096) -> int:
        """Ingest a batch of points; return how many changed the summary.

        Accepts anything :func:`coerce_point` accepts per row — an
        ``(n, 2)`` NumPy array, a list of tuples, a generator — and is
        exactly equivalent to calling :meth:`insert` point by point (same
        final hull, samples, and operation counters).

        The whole batch is validated *before* any point is ingested, so
        a malformed or non-finite row rejects the batch atomically
        instead of leaving a half-ingested prefix behind.
        :class:`~repro.core.uniform_hull.UniformHull` and
        :class:`~repro.core.adaptive_hull.AdaptiveHull` override this
        with a NumPy-vectorised fast path that pre-filters ``chunk``
        points at a time; the default is the portable per-point loop,
        which accepts ``chunk`` for interface uniformity but has no use
        for it.

        Raises:
            ValueError / TypeError: on malformed or non-finite rows; the
                summary is left untouched.
        """
        batch = [coerce_point(p) for p in points]
        changed = 0
        for p in batch:
            if self.insert(p):
                changed += 1
        return changed

    # -- merging -------------------------------------------------------------

    def merge(self, other: "HullSummary") -> "HullSummary":
        """Fold another summary of the *same scheme and config* into this one.

        Every stored sample is an input point, which makes the summaries
        naturally mergeable: re-ingesting the other side's samples yields
        a valid summary of the concatenated stream, and the one-sided
        error guarantee of each scheme carries over (the merged hull is
        built from input points of the union and approximates its hull
        within the scheme's bound — for the adaptive hull, Theorem 5.4
        degrades by at most a constant factor because the other operand's
        discarded points were already within *its* bound).

        This portable default routes through :meth:`insert_many`;
        :class:`~repro.core.uniform_hull.UniformHull` and
        :class:`~repro.core.adaptive_hull.AdaptiveHull` override it with
        a vectorised direction-bucket-wise union that keeps the extreme
        point per sampling direction.  ``points_seen`` afterwards counts
        the union stream (both operands' totals), not just the re-ingested
        samples.  Returns ``self``; ``other`` is not modified.

        Raises:
            ValueError: when ``other`` is a different scheme or was built
                with a different configuration (mismatched ``r``, queue
                mode, …) — merging those would silently change policy.
        """
        self._require_mergeable(other)
        seen = getattr(self, "points_seen", None)
        other_seen = getattr(other, "points_seen", None)
        self.insert_many(other.samples())
        if seen is not None and other_seen is not None:
            self._set_merged_points_seen(int(seen) + int(other_seen))
        self._bump_generation()
        return self

    def __ior__(self, other: "HullSummary") -> "HullSummary":
        """``a |= b`` merges ``b`` into ``a`` (see :meth:`merge`)."""
        if not isinstance(other, HullSummary):
            return NotImplemented
        return self.merge(other)

    def _require_mergeable(self, other: "HullSummary") -> None:
        """Reject cross-scheme / cross-config merges with a clear error."""
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge a {type(other).__name__} into a "
                f"{type(self).__name__}; merge operands must be the same scheme"
            )
        mine = self.get_config()
        theirs = other.get_config()
        if mine != theirs:
            raise ValueError(
                f"cannot merge mismatched configs: {theirs!r} into {mine!r}"
            )

    def _set_merged_points_seen(self, total: int) -> None:
        """Set the union-stream length after a merge; schemes whose
        counter is a derived property override this."""
        try:
            self.points_seen = total
        except AttributeError:
            pass

    # -- persistence ---------------------------------------------------------
    # Only the schemes in repro.streams.io.scheme_registry() define a
    # snapshot (state_dict/load_state), and each restores field for field.

    def get_config(self) -> dict:
        """Constructor kwargs that recreate an equivalent empty summary.

        Subclasses with constructor parameters (``r``, queue modes, …)
        must override this for snapshots to round-trip; the base default
        suits parameterless schemes.
        """
        return {}

    @classmethod
    def config_from_doc(cls, config: dict) -> dict:
        """A stored :meth:`get_config` document as this scheme reads it
        today; a scheme that retired an option drops (or refuses) it
        here, so snapshot restore compares like with like."""
        return config


def tree_merge(summaries: Iterable[HullSummary]) -> HullSummary:
    """Merge summaries pairwise in rounds (balanced tree reduction).

    The shard layer reduces K per-shard summaries to one global answer
    this way: each round halves the operand count, so the reduction
    depth is O(log K) and no single summary absorbs all others through a
    long sequential chain.  Operands are mutated (each round's left
    operand absorbs the right); pass fresh/disposable summaries.

    Raises:
        ValueError: on an empty iterable, or on mismatched operands
            (propagated from :meth:`HullSummary.merge`).
    """
    items = list(summaries)
    if not items:
        raise ValueError("tree_merge needs at least one summary")
    while len(items) > 1:
        nxt = [
            items[i].merge(items[i + 1]) for i in range(0, len(items) - 1, 2)
        ]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
