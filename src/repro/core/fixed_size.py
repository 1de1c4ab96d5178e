"""Fixed-size adaptive hull — the variant used in the paper's experiments.

Section 7: "the modified adaptive algorithm refines the maximum-weight
edges until the number of sample directions is 2r, even if that means
refining some edges with weight w(e) <= 1".  This makes the comparison
against a uniform hull with 2r directions exactly size-for-size.

The structure is the same refinement forest as
:class:`~repro.core.adaptive_hull.AdaptiveHull`; only the policy
changes: instead of the weight threshold driving refinement and the
perimeter queue driving unrefinement, a *budget* of exactly ``r``
internal nodes (r uniform + r adaptive = 2r directions) is maintained
greedily:

* under budget: refine the maximum-weight edge leaf;
* over budget (a collapse created slack elsewhere): unrefine the
  minimum-weight collapsible node;
* at budget: swap while the best refinable leaf outweighs the worst
  collapsible internal node — this is what re-aims the sampling
  directions when the stream's distribution shifts (the "changing
  ellipse" experiment).

Each swap strictly increases the total weight of the refined set, so the
rebalancing loop terminates; an iteration cap guards the degenerate
floating-point corner cases.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..geometry.vec import Point, dot
from ..structures.bucket_queue import make_threshold_queue
from .adaptive_hull import AdaptiveHull
from .refinement import RefinementNode
from .weights import sample_weight

__all__ = ["FixedSizeAdaptiveHull"]

_SWAP_MARGIN = 1e-9


class FixedSizeAdaptiveHull(AdaptiveHull):
    """Adaptive hull with exactly ``2r`` sampling directions (Section 7).

    Args:
        r: uniform direction count; the total budget is ``2r``.
        height_limit: refinement-tree height cap (default ``log2 r``).
        max_swaps: safety cap on rebalance iterations per insertion.
    """

    name = "adaptive-fixed"

    def __init__(
        self,
        r: int,
        height_limit: Optional[int] = None,
        max_swaps: Optional[int] = None,
    ):
        super().__init__(r, height_limit=height_limit, queue_mode="exact")
        self.budget = r  # internal (refined) nodes == extra directions
        self.max_swaps = max_swaps if max_swaps is not None else 8 * r
        self.swaps = 0
        # Bulk-survivor safety (see _bulk_noop_safe): True only while
        # the last completed rebalance terminated naturally *after* the
        # latest forest mutation, i.e. while a rebalance is provably a
        # no-op and no-op survivors may skip it in bulk.
        self._budget_steady = True
        self._bulk_safe = True

    # -- persistence ----------------------------------------------------------

    def get_config(self):
        """Constructor kwargs that recreate an equivalent empty summary."""
        return {
            "r": self.r,
            "height_limit": self.k,
            "max_swaps": self.max_swaps,
        }

    def state_dict(self):
        state = super().state_dict()
        state["swaps"] = self.swaps
        return state

    def load_state(self, state) -> None:
        """Adaptive restore, minus the threshold queue: a live budget
        summary never queues a node, so neither may a restored one (a
        doc from before the queue was saved would refill it)."""
        super().load_state(state)
        self._queue = make_threshold_queue(self.queue_mode)
        self.swaps = int(state.get("swaps", 0))

    # -- merging --------------------------------------------------------------

    def merge(self, other: "FixedSizeAdaptiveHull") -> "FixedSizeAdaptiveHull":
        """Adaptive merge, then restore the 2r-direction budget.

        The inherited union (direction-bucket-wise uniform merge plus
        re-offering the other operand's samples) runs under this class's
        disabled threshold policy, so afterwards one greedy rebalance
        brings the refined set back to exactly ``budget`` internal
        nodes — the same maintenance an ordinary insert performs.
        """
        super().merge(other)
        self._rebalance()
        self._rebuild_hull()
        self._bulk_safe = self._budget_steady
        self.swaps += other.swaps
        return self

    # -- policy overrides -----------------------------------------------------

    def _should_unrefine(self, node: RefinementNode, perim: float) -> bool:
        """Budget mode: thresholds never unrefine; only rebalance does."""
        return False

    def _drain_queue(self) -> None:
        """Budget mode: no threshold queue, so nothing falls due."""
        return

    def _try_refine(self, node: RefinementNode) -> None:
        """Budget mode: no threshold-driven refinement inside the walk."""
        return

    def _bulk_noop_safe(self) -> bool:
        """Bulk no-op accounting is sound only while a rebalance is
        provably a no-op: the forest is unchanged since a rebalance that
        terminated naturally (a re-run would rescan the same forest and
        immediately return).  A pending rebalance — mid-merge before the
        trailing one, or a run cut off by ``max_swaps`` — could still
        act on a state-preserving insert, so those fall back to the
        per-point path."""
        return self._bulk_safe

    def _rebuild_hull(self) -> None:
        # Any mutation makes the last completed rebalance stale until
        # the owning operation's trailing rebalance re-certifies it.
        self._bulk_safe = False
        super()._rebuild_hull()

    def insert(self, p: Point) -> bool:
        """Process a point, then rebalance the direction budget."""
        changed = super().insert(p)
        if changed:
            self._rebalance()
            self._rebuild_hull()
            self._bulk_safe = self._budget_steady
        return changed

    # -- rebalancing -------------------------------------------------------------

    def _node_weight(self, node: RefinementNode) -> float:
        return sample_weight(
            self._ell_tilde(node), self._uniform.perimeter, self.r, node.depth
        )

    def _scan(
        self,
    ) -> Tuple[int, Optional[RefinementNode], float, Optional[RefinementNode], float]:
        """One pass over the forest.

        Returns (internal_count, best_refinable_leaf, its_weight,
        worst_collapsible_internal, its_weight).
        """
        count = 0
        best_leaf: Optional[RefinementNode] = None
        best_w = -math.inf
        worst_int: Optional[RefinementNode] = None
        worst_w = math.inf
        stack: List[RefinementNode] = [
            root for root in self._roots if root is not None
        ]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if not node.is_vertex and node.depth < self.k:
                    w = self._node_weight(node)
                    if w > best_w:
                        best_w = w
                        best_leaf = node
                continue
            count += 1
            assert node.left is not None and node.right is not None
            if node.left.is_leaf and node.right.is_leaf:
                w = self._node_weight(node)
                if w < worst_w:
                    worst_w = w
                    worst_int = node
            stack.append(node.left)
            stack.append(node.right)
        return count, best_leaf, best_w, worst_int, worst_w

    def _refine_leaf(self, leaf: RefinementNode) -> None:
        mv = leaf.mid_vector
        t = leaf.a if dot(leaf.a, mv) >= dot(leaf.b, mv) else leaf.b
        leaf.refine(t)
        self.refinements += 1

    def _rebalance(self) -> None:
        """Greedy budget maintenance (see module docstring).

        Sets ``_budget_steady``: True when the loop terminated naturally
        (no further action is possible, so an immediate re-run would be
        a no-op — the certificate the bulk-survivor fast path needs),
        False when the ``max_swaps`` cap cut it off mid-rebalance.
        """
        self._budget_steady = True
        if self._uniform.perimeter <= 0.0:
            return
        for _ in range(self.max_swaps):
            count, best_leaf, best_w, worst_int, worst_w = self._scan()
            if count < self.budget:
                if best_leaf is None:
                    return
                self._refine_leaf(best_leaf)
                continue
            if count > self.budget:
                if worst_int is None:
                    return
                worst_int.unrefine()
                self.unrefinements += 1
                continue
            # At budget: swap only on a strict improvement.
            if (
                best_leaf is None
                or worst_int is None
                or best_w <= worst_w + _SWAP_MARGIN
            ):
                return
            worst_int.unrefine()
            self.unrefinements += 1
            # Rescan: the collapsed subtree may have contained best_leaf.
            _count, best_leaf, best_w, _wi, _ww = self._scan()
            if best_leaf is not None:
                self._refine_leaf(best_leaf)
            self.swaps += 1
        self._budget_steady = False
