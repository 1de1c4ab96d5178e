"""Window policy as data.

:class:`WindowConfig` is the engine-facing description of a sliding
window: count-based (``last_n``) or time-based (``horizon``), plus the
bucketing knobs.  It is a plain frozen dataclass so it can be passed to
:class:`~repro.engine.StreamEngine`, pickled to shard workers, and
embedded in snapshot documents (:meth:`to_doc`/:meth:`from_doc`),
mirroring how :class:`~repro.shard.spec.SummarySpec` describes a
summary scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["WindowConfig", "without_warm_start"]


def without_warm_start(doc: Dict) -> Dict:
    """``doc`` minus the removed ``warm_start`` option.

    Docs written before the option was removed carry
    ``warm_start: false`` (the default) and load unchanged.  A doc
    written with warm-started heads is refused: its buckets hold what
    the seed hulls let through, which cold heads cannot replay
    bit-identically.

    Raises:
        ValueError: when ``doc`` sets ``warm_start`` true.
    """
    if doc.get("warm_start"):
        raise ValueError(
            "the warm_start window option was removed (it broke the strict "
            "window error bound); a doc written with warm_start=true cannot "
            "be restored"
        )
    return {k: v for k, v in doc.items() if k != "warm_start"}


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window policy for a :class:`WindowedHullSummary`.

    Exactly one of ``last_n`` (count-based: the hull of roughly the
    last N points) and ``horizon`` (time-based: the hull of roughly the
    last T time units, driven by explicit insert timestamps) must be
    set.

    Args:
        last_n: window length in points (>= 1).
        horizon: window length in time units (> 0, finite).
        head_capacity: points accumulated in the open head bucket
            before it is sealed; defaults to ``max(1, last_n // 8)``
            (capped at 4096) for count windows and 256 for time
            windows.  Smaller values track the window more tightly at
            the cost of more bucket churn.
        level_width: sealed buckets tolerated per size class before the
            two oldest coalesce (>= 1; the exponential-histogram fanout
            parameter — bucket count grows with
            ``level_width * log(n)``).
        max_delay: bounded-lateness tolerance for out-of-order event
            time (time windows only).  ``None`` (the default) keeps the
            strict monotonic-ts contract; a positive finite value lets
            records arrive up to ``max_delay`` time units behind the
            newest event time seen — the engines buffer them in a
            :class:`~repro.engine.time.ReorderBuffer` and release
            sorted runs once the watermark (``max ts - max_delay``)
            passes, while records later than the watermark are counted
            and dropped (after the hosting engine's ``on_late`` hook,
            if any, sees them).  See :mod:`repro.engine.time`.
    """

    last_n: Optional[int] = None
    horizon: Optional[float] = None
    head_capacity: Optional[int] = None
    level_width: int = 2
    max_delay: Optional[float] = None

    def __post_init__(self):
        if (self.last_n is None) == (self.horizon is None):
            raise ValueError(
                "exactly one of last_n (count window) and horizon "
                "(time window) must be set"
            )
        if self.last_n is not None and self.last_n < 1:
            raise ValueError("last_n must be >= 1")
        if self.horizon is not None and not (
            math.isfinite(self.horizon) and self.horizon > 0.0
        ):
            raise ValueError("horizon must be positive and finite")
        if self.head_capacity is not None and self.head_capacity < 1:
            raise ValueError("head_capacity must be >= 1")
        if self.level_width < 1:
            raise ValueError("level_width must be >= 1")
        if self.max_delay is not None:
            if self.horizon is None:
                raise ValueError(
                    "max_delay (bounded lateness) requires a time-based "
                    "window (horizon)"
                )
            if not (math.isfinite(self.max_delay) and self.max_delay > 0.0):
                raise ValueError("max_delay must be positive and finite")

    @property
    def timed(self) -> bool:
        """True for time-based windows (inserts require timestamps)."""
        return self.horizon is not None

    @property
    def time_policy(self):
        """The :class:`~repro.engine.time.TimePolicy` this window
        implies (strict unless ``max_delay`` is set)."""
        # Lazy import: the engine package imports this module.
        from ..engine.time import TimePolicy

        return TimePolicy(max_delay=self.max_delay)

    @property
    def effective_head_capacity(self) -> int:
        """The head-bucket seal threshold after defaulting."""
        if self.head_capacity is not None:
            return self.head_capacity
        if self.last_n is not None:
            return max(1, min(self.last_n // 8, 4096))
        return 256

    @classmethod
    def coerce(cls, window) -> Optional["WindowConfig"]:
        """Accept a config, a kwargs dict, or None (no window)."""
        if window is None or isinstance(window, cls):
            return window
        if isinstance(window, dict):
            return cls(**window)
        raise TypeError(
            f"expected a WindowConfig, a kwargs dict, or None; "
            f"got {type(window).__name__}"
        )

    def to_doc(self) -> Dict:
        """JSON-compatible form for snapshot headers."""
        return {
            "last_n": self.last_n,
            "horizon": self.horizon,
            "head_capacity": self.head_capacity,
            "level_width": self.level_width,
            "max_delay": self.max_delay,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "WindowConfig":
        """Inverse of :meth:`to_doc` (pre-event-time docs were strict;
        see :func:`without_warm_start` for docs naming the removed
        ``warm_start`` option)."""
        doc = without_warm_start(doc)
        max_delay = doc.get("max_delay")
        return cls(
            last_n=doc.get("last_n"),
            horizon=doc.get("horizon"),
            head_capacity=doc.get("head_capacity"),
            level_width=int(doc.get("level_width", 2)),
            max_delay=float(max_delay) if max_delay is not None else None,
        )
