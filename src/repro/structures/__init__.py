"""Container substrates: the Section 5.3 threshold queues."""

from .bucket_queue import (
    HeapThresholdQueue,
    Pow2BucketQueue,
    make_threshold_queue,
)

__all__ = [
    "HeapThresholdQueue",
    "Pow2BucketQueue",
    "make_threshold_queue",
]
