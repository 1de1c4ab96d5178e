"""Stateful (rule-based) testing of the threshold queues against a model.

Covers the paper's Section 5.3 structure.  Hypothesis drives random
interleavings of pushes and monotone driver advances and checks every
pop against a reference model that knows only the documented contract:

* an item with threshold ``t`` surfaces exactly when the driver reaches
  ``effective_threshold(t)`` — the identity for the exact heap, the
  power-of-two rounding (early by a factor < 2, never late) for the
  Matias buckets;
* non-positive thresholds are due as soon as the driver is positive;
* items pop in effective-threshold order, FIFO within equal effective
  thresholds, and nothing is ever lost or duplicated.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.structures import HeapThresholdQueue, Pow2BucketQueue

THRESHOLDS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -1.0, 0.25, 1.0, 2.0, 4.0, 1024.0]),
)
ADVANCES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class _ThresholdQueueMachine(RuleBasedStateMachine):
    """Model: a list of (effective_threshold, seq, item) pending entries."""

    make_queue = None  # set by subclasses

    def __init__(self):
        super().__init__()
        self.q = type(self).make_queue()
        self.model = []
        self.driver = 0.0
        self.seq = 0

    def model_due(self, eff, driver):
        """When the contract says an entry must surface."""
        raise NotImplementedError

    @rule(threshold=THRESHOLDS)
    def push(self, threshold):
        self.q.push(threshold, ("item", self.seq))
        eff = self.q.effective_threshold(threshold)
        # The contract both queues share: surfacing early by less than a
        # factor of two, never late.
        assert eff <= threshold or threshold <= 0.0
        if threshold > 0.0:
            assert eff > threshold / 2.0
        self.model.append((eff, self.seq, ("item", self.seq)))
        self.seq += 1

    def _pop_and_check(self, advance):
        self.driver += advance
        popped = list(self.q.pop_due(self.driver))
        due = [e for e in self.model if self.model_due(e[0], self.driver)]
        # Entries surface in effective-threshold order, FIFO within ties.
        expected = [item for _, _, item in sorted(due, key=lambda e: (e[0], e[1]))]
        self.model = [e for e in self.model if not self.model_due(e[0], self.driver)]
        assert popped == expected

    @rule(advance=ADVANCES)
    def advance_and_pop(self, advance):
        self._pop_and_check(advance)

    @rule()
    def pop_without_advancing(self):
        # A plain re-pop at the current driver: surfaces exactly the due
        # entries pushed since the last pop, nothing twice.
        self._pop_and_check(0.0)

    @invariant()
    def sizes_agree(self):
        assert len(self.q) == len(self.model)


class Pow2Machine(_ThresholdQueueMachine):
    make_queue = staticmethod(Pow2BucketQueue)

    def model_due(self, eff, driver):
        # The bucket queue never pops at a non-positive driver.
        return driver > 0.0 and eff <= driver

    @rule(threshold=st.floats(min_value=1e-6, max_value=1e9, allow_nan=False))
    def rounding_is_power_of_two(self, threshold):
        eff = self.q.effective_threshold(threshold)
        assert eff == 2.0 ** math.floor(math.log2(threshold))


class HeapMachine(_ThresholdQueueMachine):
    make_queue = staticmethod(HeapThresholdQueue)

    def model_due(self, eff, driver):
        return eff <= driver

    @rule(threshold=st.floats(min_value=1e-6, max_value=1e9, allow_nan=False))
    def heap_is_exact(self, threshold):
        assert self.q.effective_threshold(threshold) == threshold


TestPow2BucketQueueStateful = Pow2Machine.TestCase
TestPow2BucketQueueStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
TestHeapThresholdQueueStateful = HeapMachine.TestCase
TestHeapThresholdQueueStateful.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
