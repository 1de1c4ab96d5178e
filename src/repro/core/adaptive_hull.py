"""The adaptively sampled hull for streaming points (Section 5).

This is the paper's main contribution.  On top of the uniformly sampled
hull (extrema in ``r`` fixed directions) the scheme maintains up to
``r + 1`` additional extrema in *adaptively chosen* dyadic directions,
organised as refinement trees over the uniform edges.  The refinement
policy is driven by the sample weight

    w(e) = r * ell_tilde(e) / P - depth(e)

(Section 4): an edge-range is kept refined while ``w(e) > 1``, i.e.
while the perimeter ``P`` of the uniformly sampled hull is below the
edge's threshold ``r * ell_tilde(e) / (1 + depth)``.  Refined nodes sit
in a threshold queue (exact heap, or the Matias power-of-two buckets of
Section 5.3) and are unrefined as ``P`` grows past their thresholds.

The resulting sample has at most ``2r + 1`` points and its convex hull
stays within ``O(D / r**2)`` of the true hull at every instant
(Theorem 5.4), against ``O(D / r)`` for uniform sampling alone.

Per-point processing
--------------------
A point inside the current sample hull is discarded after one O(log r)
containment test (a conservative version of the paper's
ring-of-uncertainty-triangles test: we discard a *subset* of what the
paper discards, so the error bound is preserved verbatim).  A point
outside the sample hull updates every sampling direction it beats and
locally re-runs refinement — O(r) tree-node visits in the worst case,
against the paper's O(log r) amortized bound; the operation counters
(``points_processed``, ``nodes_visited``) let the benchmarks verify that
the *amortized* per-point work on the paper's workloads matches the
O(log r) regime.  See DESIGN.md ("substitutions") for the discussion.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..geometry.directions import DyadicDirection
from ..geometry.hull import convex_hull
from ..geometry.polygon import contains_point, contains_points
from ..geometry.predicates import points_in_triangles
from ..geometry.vec import Point, Vector, dot
from ..structures.bucket_queue import make_threshold_queue
from .base import HullSummary, coerce_point
from .batch import (
    DEFAULT_CHUNK,
    SURVIVOR_LOOKAHEAD,
    SURVIVOR_SCALAR_PREFIX,
    prefiltered_insert_many,
)
from .refinement import RefinementNode
from .uncertainty import UncertaintyTriangle, triangle_for_edge
from .uniform_hull import UniformHull
from .weights import refine_threshold

__all__ = ["AdaptiveHull"]


class AdaptiveHull(HullSummary):
    """Streaming adaptive convex-hull summary (Algorithm AdaptiveHull).

    Args:
        r: number of uniform sampling directions (>= 8; the error
            analysis of Lemma 5.1 needs ``r > 2*pi``).
        height_limit: refinement-tree height cap ``k``; defaults to
            ``round(log2 r)``, the paper's accuracy-maximising choice.
            ``k = 0`` reduces the scheme to uniform sampling.
        queue_mode: ``"pow2"`` for the O(1) Matias bucket queue
            (the paper's final design), ``"exact"`` for an exact heap —
            kept for the ablation benchmark.
        ring_discard: when True, implement the paper's step 1 exactly:
            a point inside the *ring of uncertainty triangles* (not just
            the sample hull) is discarded.  This skips the tree update
            for points that provably cannot improve any active
            direction's extremum beyond its tolerance; the error
            analysis (Lemma 5.1's offset lines) is designed for it.
            Default False: discard only inside the hull — a conservative
            subset that processes more points and errs on accuracy.

    Attributes:
        points_seen / points_processed: stream length vs. points that
            survived the containment fast path.
        refinements / unrefinements / nodes_visited: operation counters
            backing the amortized-cost benchmarks.
    """

    name = "adaptive"

    def __init__(
        self,
        r: int,
        height_limit: Optional[int] = None,
        queue_mode: str = "pow2",
        ring_discard: bool = False,
    ):
        if r < 8:
            raise ValueError("AdaptiveHull requires r >= 8 (Lemma 5.1 needs r > 2*pi)")
        self.r = r
        self.theta0 = 2.0 * math.pi / r
        if height_limit is None:
            height_limit = max(1, round(math.log2(r)))
        if height_limit < 0:
            raise ValueError("height_limit must be >= 0")
        self.k = height_limit
        self.queue_mode = queue_mode
        self.ring_discard = ring_discard
        self.ring_discards = 0
        self._uniform = UniformHull(r)
        self._roots: List[Optional[RefinementNode]] = [None] * r
        self._queue = make_threshold_queue(queue_mode)
        self._hull: List[Point] = []
        self._vec_cache: Dict[DyadicDirection, Vector] = {}
        # Survivor fast-path state (see insert).  After a full tree walk
        # the forest is steady for the current perimeter, so a point
        # that changes no uniform support can only disturb the trees
        # whose internal-node mid-direction support it beats; the
        # registry/count/ring caches make that test one multiply-add
        # sweep.  All three are invalidated at the _rebuild_hull
        # chokepoint.  _needs_full_sync forces the classic full walk
        # when the forest is not known to be steady (fresh summary,
        # a restored one).
        self._needs_full_sync = True
        self._registry_cache: Optional[Tuple[np.ndarray, ...]] = None
        self._tree_count_cache: Optional[Tuple[List[int], int]] = None
        self._ring_cache: Optional[np.ndarray] = None
        self.points_seen = 0
        self.points_processed = 0
        self.refinements = 0
        self.unrefinements = 0
        self.nodes_visited = 0

    # -- HullSummary interface ----------------------------------------------

    def insert(self, p: Point) -> bool:
        """Process one stream point.

        Step 1 of Algorithm AdaptiveHull: discard points inside the
        current approximate hull.  Surviving points update the uniform
        extrema (step 2), trigger queue-driven unrefinement as the
        perimeter grows (step 4), and rebuild the affected refinement
        trees (steps 3 and 5).
        """
        p = coerce_point(p)
        self.points_seen += 1
        if self._hull and contains_point(self._hull, p):
            return False
        # The ring shortcut needs a genuine polygon: on a degenerate
        # (collinear) hull the uncertainty triangles collapse onto the
        # support line and would certify points far beyond the segment
        # (e.g. (0,3) against the hull [(0,0),(0,1)]), violating the
        # Corollary 5.2 bound.
        if (
            self.ring_discard
            and len(self._hull) >= 3
            and self._inside_ring(p)
        ):
            self.ring_discards += 1
            return False
        self.points_processed += 1
        changed_dirs = self._uniform.offer_changed(p)
        if len(changed_dirs) or self._needs_full_sync:
            # A uniform extremum changed: the perimeter (and possibly
            # tree endpoints) moved, so run the classic full pass —
            # queue-driven unrefinement plus a walk of every tree.
            if len(changed_dirs):
                self._drain_queue()
            for j in range(self.r):
                self._sync_tree(j, p)
            self._needs_full_sync = False
            self._rebuild_hull()
            return True
        # No uniform support moved: the perimeter and every tree's
        # endpoints are unchanged, so a tree walk can only act where p
        # beats an internal node's mid-direction support — everywhere
        # else the walk is a provable no-op that visits exactly
        # count_nodes(root) nodes.  Walk only the dirty trees and
        # reconstruct the clean trees' nodes_visited arithmetically.
        counts, total = self._tree_node_counts()
        dirty = self._dirty_trees(p)
        if not len(dirty):
            # p beats no active sampling direction at all: pure counter
            # churn.  The samples are untouched, so the cached hull (and
            # the registry/ring caches) stay valid — the rebuild is
            # skipped entirely (deferred-rebuild fast path).
            self.nodes_visited += total
            return True
        self.nodes_visited += total - sum(counts[int(j)] for j in dirty)
        for j in dirty:
            self._sync_tree(int(j), p)
        self._rebuild_hull()
        return True

    def insert_many(self, points, chunk: int = DEFAULT_CHUNK) -> int:
        """Vectorised batch ingestion (see :mod:`repro.core.batch`).

        Pre-filters each chunk against the current sample hull with one
        NumPy orientation sweep before running the full per-point update
        on the survivors; a batch under 16 points (a typical per-key
        group in a many-key engine) is validated whole and then takes
        :meth:`insert` point by point, since no sweep amortises at that
        size.  Exactly equivalent to sequential :meth:`insert` — same
        hull, samples, refinement forest, and operation counters.
        """
        return prefiltered_insert_many(self, points, chunk=chunk)

    def hull(self) -> List[Point]:
        """Convex hull of the current sample points (CCW, cached)."""
        return self._hull

    def samples(self) -> List[Point]:
        """Distinct stored sample points: the uniform extrema plus one
        extremum per refined (internal) tree node.  Theorem 5.4 bounds
        this at ``2r + 1``."""
        out = dict.fromkeys(self._uniform.samples())
        # Explicit pre-order stack: this runs inside every hull rebuild,
        # where the recursive-generator form dominated the profile.
        for root in self._roots:
            if root is None:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                if node.left is not None:
                    if node.t is not None:
                        out.setdefault(node.t, None)
                    stack.append(node.right)
                    stack.append(node.left)
        return list(out)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "AdaptiveHull") -> "AdaptiveHull":
        """Fold another adaptive summary into this one.

        Two-phase union.  First the uniform layers merge
        direction-bucket-wise (one vectorised support comparison keeps
        the extreme point per fixed direction — see
        :meth:`UniformHull.merge_directions`), after which the threshold
        queue is drained against the grown perimeter and every
        refinement tree re-synced, exactly the step-4/5 sequence a
        hull-changing insert runs.  Second, the other operand's stored
        samples are re-offered through :meth:`insert_many` — the same
        vectorised prefilter + survivor path batch ingestion uses, and
        exactly equivalent to a per-point :meth:`insert` loop — so they
        can compete for the adaptively chosen dyadic directions; points
        that fall inside the merged hull are discarded by step 1, which
        is sound — a contained point beats no direction's support.

        The result is a valid adaptive summary of the concatenated
        stream: the sample budget (≤ 2r + 1) and the Theorem 5.4 error
        bound hold as after any insert sequence, with the other
        operand's already-discarded points accounted for by *its* bound.
        Counters afterwards describe the union stream (operand sums);
        the merge machinery itself is not billed.
        """
        self._require_mergeable(other)
        seen = self.points_seen + other.points_seen
        processed = self.points_processed + other.points_processed
        self.refinements += other.refinements
        self.unrefinements += other.unrefinements
        self.nodes_visited += other.nodes_visited
        self.ring_discards += other.ring_discards
        extras = other.samples()
        if self._uniform.merge_directions(other.uniform_layer):
            self._drain_queue()
            for j in range(self.r):
                self._sync_tree(j, None)
            self._needs_full_sync = False
            self._rebuild_hull()
        if extras:
            self.insert_many(extras)
        self.points_seen = seen
        self.points_processed = processed
        return self

    # -- structure accounting ------------------------------------------------

    @property
    def active_direction_count(self) -> int:
        """Currently active sampling directions: r uniform + one per
        internal refinement node."""
        return self.r + self.internal_node_count

    @property
    def internal_node_count(self) -> int:
        """Total refined (internal) nodes across all trees."""
        return sum(
            sum(1 for _ in root.iter_internal())
            for root in self._roots
            if root is not None
        )

    @property
    def perimeter(self) -> float:
        """Perimeter P of the underlying uniformly sampled hull."""
        return self._uniform.perimeter

    @property
    def uniform_layer(self) -> UniformHull:
        """The underlying uniformly sampled hull (read-only use)."""
        return self._uniform

    def leaf_triangles(self) -> Iterator[UncertaintyTriangle]:
        """Uncertainty triangles of the adaptive hull's leaf edges.

        The union of these triangles is the uncertainty ring: the true
        hull lies between the sample hull and the ring boundary.  Vertex
        nodes (collapsed edges) are skipped — their triangles are empty.
        """
        for j in range(self.r):
            root = self._roots[j]
            if root is None:
                continue
            for leaf in root.iter_leaves():
                if leaf.is_vertex:
                    continue
                yield triangle_for_edge(
                    leaf.a, leaf.b, self._dir_vec(leaf.lo), self._dir_vec(leaf.hi)
                )

    def check_invariants(self) -> None:
        """Raise AssertionError if a structural invariant is violated.

        Used by the test suite and failure-injection tests: endpoint
        consistency along each tree, depth bounds, and the sample-size
        bound of Theorem 5.4.
        """
        assert len(self.samples()) <= 2 * self.r + 1, "sample budget exceeded"
        for j in range(self.r):
            root = self._roots[j]
            if root is None:
                continue
            a = self._uniform.extreme(j)
            b = self._uniform.extreme(j + 1)
            assert root.a == a and root.b == b, "root endpoints out of sync"
            self._check_node(root)

    def _check_node(self, node: RefinementNode) -> None:
        assert node.alive
        assert node.depth <= self.k
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        assert node.left.a == node.a and node.left.b == node.t
        assert node.right.a == node.t and node.right.b == node.b
        assert node.left.depth == node.depth + 1
        self._check_node(node.left)
        self._check_node(node.right)

    # -- persistence ---------------------------------------------------------

    def get_config(self) -> Dict:
        """Constructor kwargs that recreate an equivalent empty summary."""
        return {
            "r": self.r,
            "height_limit": self.k,
            "queue_mode": self.queue_mode,
            "ring_discard": self.ring_discard,
        }

    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot: uniform layer, refinement forest
        (internal-node extrema only — endpoints and dyadic ranges are
        derivable), threshold queue and the operation counters.

        Queue entries are ``[key, node number]`` pairs in pop order,
        stale ones included: which nodes a drain reaches, and in what
        order, is history the forest does not record.  Entries of
        removed nodes are dropped (a drain skips them)."""
        number = {id(node): i for i, node in enumerate(self._forest_nodes())}
        return {
            "uniform": self._uniform.state_dict(),
            "roots": [self._tree_state(root) for root in self._roots],
            "queue": [
                [key, number[id(node)]]
                for key, node in self._queue.entries()
                if node.alive
            ],
            "counters": {
                "points_seen": self.points_seen,
                "points_processed": self.points_processed,
                "refinements": self.refinements,
                "unrefinements": self.unrefinements,
                "nodes_visited": self.nodes_visited,
                "ring_discards": self.ring_discards,
            },
        }

    def load_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot (in place).

        The refinement forest and the threshold queue are rebuilt
        node for node, so the restored summary has the identical sample
        set and hull, and continues streaming exactly as the live one
        would.  Docs written before the queue was saved get one entry
        per internal node at its current threshold instead.
        """
        roots_state = state["roots"]
        if len(roots_state) != self.r:
            raise ValueError(
                f"snapshot has {len(roots_state)} trees, summary has r={self.r}"
            )
        self._uniform.load_state(state["uniform"])
        self._queue = make_threshold_queue(self.queue_mode)
        self._roots = [None] * self.r
        for j, tree in enumerate(roots_state):
            a = self._uniform.extreme(j)
            b = self._uniform.extreme(j + 1)
            if a is None or b is None or a == b:
                if tree is not None:
                    raise ValueError(
                        f"snapshot tree {j} has no uniform edge under it"
                    )
                continue
            # A pure-leaf tree is saved as None but lives as a leaf root
            # (the ring and the budget scan both see it).
            root = RefinementNode(
                DyadicDirection.uniform(j, self.r),
                DyadicDirection.uniform(j + 1, self.r),
                a,
                b,
                0,
            )
            self._restore_tree(root, tree)
            self._roots[j] = root
        nodes = self._forest_nodes()
        if "queue" in state:
            for key, i in state["queue"]:
                self._queue.put(key, nodes[i])
        else:
            for node in nodes:
                if not node.is_leaf:
                    thr = refine_threshold(self._ell_tilde(node), self.r, node.depth)
                    self._queue.push(thr, node)
        counters = state["counters"]
        self.points_seen = int(counters["points_seen"])
        self.points_processed = int(counters["points_processed"])
        self.refinements = int(counters["refinements"])
        self.unrefinements = int(counters["unrefinements"])
        self.nodes_visited = int(counters["nodes_visited"])
        self.ring_discards = int(counters["ring_discards"])
        # The next surviving point takes the classic full walk, a no-op
        # on the steady forest that needs no certificate from before the
        # snapshot.
        self._needs_full_sync = True
        self._rebuild_hull()

    def _tree_state(self, node: Optional[RefinementNode]):
        """Nested dict for an internal node, None for a leaf/absent tree."""
        if node is None or node.is_leaf:
            return None
        assert node.t is not None
        return {
            "t": [node.t[0], node.t[1]],
            "left": self._tree_state(node.left),
            "right": self._tree_state(node.right),
        }

    def _restore_tree(self, node: RefinementNode, tree: Optional[Dict]) -> None:
        if tree is None:
            return
        node.refine((float(tree["t"][0]), float(tree["t"][1])))
        assert node.left is not None and node.right is not None
        self._restore_tree(node.left, tree["left"])
        self._restore_tree(node.right, tree["right"])

    def _forest_nodes(self) -> List[RefinementNode]:
        """Every forest node, leaves included: trees in order, each in
        pre-order (the numbering saved queue entries refer to)."""
        out: List[RefinementNode] = []
        for root in self._roots:
            if root is None:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                out.append(node)
                if node.left is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        return out

    # -- internals -----------------------------------------------------------

    def _trusted_ring_triangles(self) -> np.ndarray:
        """Cached ``(m, 3, 2)`` array of the *trusted* leaf uncertainty
        triangles, as ``(a, apex, b)`` rows (the argument order of the
        scalar ``point_in_triangle`` test they replace).

        Trusted means the triangle may certify a ring discard: apex
        defined, height within the Corollary 5.2 bound, non-degenerate.
        The forest and perimeter are frozen between mutations, so the
        array is a pure function of summary state — it is rebuilt lazily
        and invalidated at the :meth:`_rebuild_hull` chokepoint.
        """
        tris = self._ring_cache
        if tris is None:
            bound = 16.0 * math.pi * self.perimeter / (self.r * self.r)
            rows = []
            for t in self.leaf_triangles():
                if t.apex is None:
                    continue
                if t.ell_tilde > bound:
                    continue  # too tall to certify the discard
                # A collapsed (zero-area) triangle certifies nothing:
                # the orientation predicate would treat its whole
                # support line as boundary and "contain" points far
                # beyond the segment (e.g. (0,3) against the sliver
                # (0,-1),(0,-1),(0,0)).
                area2 = (t.apex[0] - t.a[0]) * (t.b[1] - t.a[1]) - (
                    t.apex[1] - t.a[1]
                ) * (t.b[0] - t.a[0])
                if area2 == 0.0:
                    continue
                rows.append((t.a, t.apex, t.b))
            tris = (
                np.asarray(rows, dtype=np.float64)
                if rows
                else np.empty((0, 3, 2), dtype=np.float64)
            )
            self._ring_cache = tris
        return tris

    def _inside_ring(self, p: Point) -> bool:
        """Is ``p`` inside some *trusted* leaf uncertainty triangle?

        Called only for points already outside the sample hull, so
        membership in the ring reduces to membership in a triangle —
        one vectorised sweep over the cached trusted-triangle array
        (bit-identical to the per-triangle ``point_in_triangle`` loop
        it replaced).

        Only triangles whose height already sits within the Corollary
        5.2 bound may certify a discard: a young forest (few processed
        points, lazy queue-driven refinement) can still hold leaves
        with ``ell_tilde`` far above ``16*pi*P/r^2``, and discarding a
        point inside such a triangle would break the error guarantee
        the discard exists to preserve (hypothesis found
        ``[(0,0), (0,-1), (-1,0), (0,3)]`` at r=8).  Untrusted leaves
        simply let the point take the full processing path, which
        refines them.
        """
        tris = self._trusted_ring_triangles()
        if not len(tris):
            return False
        px = np.array([p[0]], dtype=np.float64)
        py = np.array([p[1]], dtype=np.float64)
        return bool(points_in_triangles(px, py, tris).any())

    def _direction_registry(self) -> Tuple[np.ndarray, ...]:
        """Flat registry of the active *internal* sampling directions.

        Returns ``(mvx, mvy, support, tree)`` arrays with one entry per
        internal node: its mid-direction unit vector components, the
        support ``dot(t, mid_vector)`` of its stored extremum, and the
        index of the tree that owns it.  While the uniform layer is
        unchanged, a surviving point can only disturb the trees whose
        registry support it beats (see insert); one elementwise
        multiply-add against these arrays finds them.  Rebuilt lazily,
        invalidated at :meth:`_rebuild_hull`.
        """
        reg = self._registry_cache
        if reg is None:
            mvx: List[float] = []
            mvy: List[float] = []
            sup: List[float] = []
            tree: List[int] = []
            for j, root in enumerate(self._roots):
                if root is None:
                    continue
                for node in root.iter_internal():
                    mv = node.mid_vector
                    t = node.t
                    mvx.append(mv[0])
                    mvy.append(mv[1])
                    sup.append(t[0] * mv[0] + t[1] * mv[1])
                    tree.append(j)
            reg = (
                np.asarray(mvx, dtype=np.float64),
                np.asarray(mvy, dtype=np.float64),
                np.asarray(sup, dtype=np.float64),
                np.asarray(tree, dtype=np.intp),
            )
            self._registry_cache = reg
        return reg

    def _dirty_trees(self, p: Point) -> np.ndarray:
        """Ascending indices of trees holding an internal node whose
        mid-direction support ``p`` strictly beats (the only trees a
        walk could change while the uniform layer is unchanged)."""
        mvx, mvy, sup, tree = self._direction_registry()
        if not len(sup):
            return tree
        hits = (p[0] * mvx + p[1] * mvy) > sup
        if not hits.any():
            return tree[:0]
        return np.unique(tree[hits])

    def _tree_node_counts(self) -> Tuple[List[int], int]:
        """Per-tree live node counts and their total (cached).

        A no-op walk of a steady tree visits exactly ``count_nodes``
        nodes, which is how the survivor fast path reconstructs
        ``nodes_visited`` without walking clean trees.
        """
        cached = self._tree_count_cache
        if cached is None:
            counts = [
                root.count_nodes() if root is not None else 0
                for root in self._roots
            ]
            cached = (counts, sum(counts))
            self._tree_count_cache = cached
        return cached

    def _bulk_noop_safe(self) -> bool:
        """May ``consume_survivors`` account no-op survivors in bulk?

        True whenever the forest is steady for the current perimeter —
        always the case here after any insert; the fixed-size subclass
        overrides this to rule out a pending budget rebalance.
        """
        return True

    def consume_survivors(self, sxs: np.ndarray, sys: np.ndarray):
        """Bulk-ingest a leading run of prefilter survivors (see
        :func:`repro.core.batch.prefiltered_insert_many`).

        One vectorised sweep classifies the rows exactly as sequential
        :meth:`insert` would: exact containment (discard), trusted-ring
        membership (discard + ring counter), or a support sweep over
        *every* active sampling direction — uniform and internal — that
        separates pure counter churn (state provably untouched) from
        genuinely mutating points.  The non-mutating prefix is accounted
        in bulk; the first mutating row goes through the real
        :meth:`insert`.  Returns ``(consumed, changed, mutated)``.
        """
        hull = self._hull
        if self._needs_full_sync or not self._bulk_noop_safe() or len(hull) < 3:
            return 1, int(self.insert((float(sxs[0]), float(sys[0])))), True
        k = min(len(sxs), SURVIVOR_LOOKAHEAD)
        # Scalar prefix: while mutations are dense (young hull) the
        # sweep's fixed cost cannot amortise, so the first few rows take
        # the sequential path, bailing at the first state change.  Every
        # ``_rebuild_hull`` installs a fresh hull list, so object
        # identity detects mutation exactly (the deferred-rebuild
        # counter-churn path keeps the same list).
        changed = 0
        split = k if k < 2 * SURVIVOR_SCALAR_PREFIX else SURVIVOR_SCALAR_PREFIX
        for i in range(split):
            changed += int(self.insert((float(sxs[i]), float(sys[i]))))
            if self._hull is not hull:
                return i + 1, changed, True
        if split == k:
            return k, changed, False
        sxs = sxs[split:k]
        sys = sys[split:k]
        k -= split
        inside = contains_points(hull, sxs, sys)
        outside = ~inside
        if self.ring_discard:
            tris = self._trusted_ring_triangles()
            if len(tris):
                ring = outside & points_in_triangles(sxs, sys, tris).any(axis=1)
            else:
                ring = np.zeros(k, dtype=bool)
        else:
            ring = np.zeros(k, dtype=bool)
        u = self._uniform
        beats = (
            (sxs[:, None] * u._dx[None, :] + sys[:, None] * u._dy[None, :])
            > u._support[None, :]
        ).any(axis=1)
        mvx, mvy, sup, _tree = self._direction_registry()
        if len(sup):
            beats |= (
                (sxs[:, None] * mvx[None, :] + sys[:, None] * mvy[None, :])
                > sup[None, :]
            ).any(axis=1)
        mutating = outside & ~ring & beats
        first = int(np.argmax(mutating)) if mutating.any() else k
        # Bulk-account the non-mutating prefix exactly as sequential
        # insert: insiders bump points_seen only; ring hits add a ring
        # discard; the rest are processed no-ops — uniform offer plus a
        # full-forest no-op walk, all reconstructed arithmetically.
        n_inside = int(np.count_nonzero(inside[:first]))
        n_ring = int(np.count_nonzero(ring[:first]))
        n_noop = first - n_inside - n_ring
        self.points_seen += first
        self.ring_discards += n_ring
        changed += n_noop  # a processed no-op still returns True
        if n_noop:
            self.points_processed += n_noop
            u.points_processed += n_noop
            _counts, total = self._tree_node_counts()
            self.nodes_visited += n_noop * total
        if first < k:
            changed += int(self.insert((float(sxs[first]), float(sys[first]))))
            return split + first + 1, changed, True
        return split + k, changed, False

    def _dir_vec(self, d: DyadicDirection) -> Vector:
        v = self._vec_cache.get(d)
        if v is None:
            v = d.vector
            self._vec_cache[d] = v
        return v

    def _ell_tilde(self, node: RefinementNode) -> float:
        # ell_tilde is a pure function of the edge endpoints and the
        # node's (immutable) dyadic range — memoised on the node, keyed
        # by the endpoints, because the walk re-derives thresholds from
        # it at every visit.
        key = (node.a, node.b)
        if node._ell_key != key:
            node._ell = triangle_for_edge(
                node.a, node.b, self._dir_vec(node.lo), self._dir_vec(node.hi)
            ).ell_tilde
            node._ell_key = key
            node._thr = -1.0  # derived thresholds are now stale
        return node._ell

    def _effective_threshold(self, node: RefinementNode) -> tuple:
        """(effective, exact) perimeter thresholds for a node's weight.

        Memoised with ``_ell_tilde``: both are pure functions of the
        endpoints (``refine_threshold`` is never negative, so ``-1``
        marks staleness), and the pow2 queue's rounding costs a
        ``log2`` per call that the walk would otherwise repeat at every
        node visit."""
        ell = self._ell_tilde(node)
        thr = node._thr
        if thr < 0.0:
            node._thr = thr = refine_threshold(ell, self.r, node.depth)
            node._eff = self._queue.effective_threshold(thr)
        return node._eff, thr

    def _sync_tree(self, j: int, p: Optional[Point]) -> None:
        """Steps 3 and 5 for the tree over uniform edge j."""
        a = self._uniform.extreme(j)
        b = self._uniform.extreme(j + 1)
        root = self._roots[j]
        if a is None or b is None:
            return
        if a == b:
            # Step 3: the uniform edge became trivial; delete its tree.
            if root is not None:
                root.kill()
                self._roots[j] = None
            return
        if root is None or not root.alive:
            root = RefinementNode(
                DyadicDirection.uniform(j, self.r),
                DyadicDirection.uniform(j + 1, self.r),
                a,
                b,
                0,
            )
            self._roots[j] = root
        else:
            root.a = a
            root.b = b
        self._fix(root, p)

    def _fix(self, node: RefinementNode, p: Optional[Point]) -> None:
        """Restore the weight invariant in a subtree after endpoint
        updates: replace beaten extrema with ``p``, unrefine nodes whose
        threshold the perimeter has passed, refine leaves whose weight
        climbed above 1 (step 5 of the algorithm)."""
        self.nodes_visited += 1
        perim = self._uniform.perimeter
        if node.a == node.b:
            # Collapsed range: a vertex node stores no children.
            if not node.is_leaf:
                node.unrefine()
                self.unrefinements += 1
            return
        if node.is_leaf:
            self._try_refine(node)
            return
        # Internal node: the bisecting direction is active; let p compete.
        # (dot() inlined: the walk visits every node on the hot path.)
        mv = node.mid_vector
        t = node.t
        assert t is not None
        if p is not None and (
            p[0] * mv[0] + p[1] * mv[1] > t[0] * mv[0] + t[1] * mv[1]
        ):
            node.t = p
        if self._should_unrefine(node, perim):
            node.unrefine()
            self.unrefinements += 1
            return
        assert node.left is not None and node.right is not None
        node.left.a = node.a
        node.left.b = node.t
        node.right.a = node.t
        node.right.b = node.b
        self._fix(node.left, p)
        self._fix(node.right, p)

    def _should_unrefine(self, node: RefinementNode, perim: float) -> bool:
        """Unrefinement policy: collapse once P passes the node threshold.

        Overridden by the fixed-size variant, which manages refinement by
        a global budget instead of per-node thresholds.
        """
        eff, _thr = self._effective_threshold(node)
        return perim >= eff

    def _try_refine(self, node: RefinementNode) -> None:
        """Refine a leaf (recursively) while its weight exceeds 1 and the
        height limit allows (step 5c)."""
        if node.is_vertex or node.depth >= self.k:
            return
        perim = self._uniform.perimeter
        if perim <= 0.0:
            return
        eff, thr = self._effective_threshold(node)
        if perim >= eff:
            return
        # New sampling direction: extremum among the stored candidates.
        mv = node.mid_vector
        t = node.a if dot(node.a, mv) >= dot(node.b, mv) else node.b
        node.refine(t)
        self.refinements += 1
        self._queue.push(thr, node)
        assert node.left is not None and node.right is not None
        self.nodes_visited += 2
        self._try_refine(node.left)
        self._try_refine(node.right)

    def _drain_queue(self) -> None:
        """Step 4: unrefine nodes whose perimeter threshold has passed.

        Entries are lazy: dead or already-collapsed nodes are skipped,
        and nodes whose edge grew (threshold moved outward) are re-queued
        at their new threshold.
        """
        perim = self._uniform.perimeter
        requeue = []
        for node in self._queue.drain_due(perim):
            if not node.alive or node.is_leaf:
                continue
            eff, thr = self._effective_threshold(node)
            if perim >= eff:
                node.unrefine()
                self.unrefinements += 1
            else:
                requeue.append((thr, node))
        for thr, node in requeue:
            self._queue.push(thr, node)

    def _rebuild_hull(self) -> None:
        # Every sample-changing path (insert, merge, load_state) ends
        # here, making it the one chokepoint for the staleness counter —
        # and therefore for the survivor fast-path caches, which are
        # valid precisely while the forest/perimeter are frozen.
        self._bump_generation()
        self._registry_cache = None
        self._tree_count_cache = None
        self._ring_cache = None
        self._hull = convex_hull(self.samples())
