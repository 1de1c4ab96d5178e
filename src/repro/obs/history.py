"""In-process scrape history: a ring buffer of registry snapshots.

``python -m repro engine --watch`` (and anything else that polls
``stats().obs``) sees monotonically growing totals, which are useless on
a dashboardless terminal — what an operator wants is *rates*.
:class:`ScrapeHistory` keeps the last N ``(timestamp, snapshot)`` pairs
and differences the two endpoints of the retained span: counters and
histogram count/sum become per-second rates, gauges pass through at
their latest value (a gauge is already an instantaneous reading).

The snapshots are the JSON-safe documents produced by
:meth:`Registry.collect` / ``merge_snapshots`` — the same shape the
shard tier merges across processes — so history works equally over a
local registry or a parent-merged ring snapshot.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Optional, Tuple

from .registry import registry

__all__ = ["ScrapeHistory", "snapshot_rates", "render_rates"]


def _child_delta(new, old) -> Optional[Tuple[float, float]]:
    """(count_delta, sum_delta) between two child snapshots.

    Counter/gauge children snapshot to a bare float (delta, delta);
    histogram children to ``{"sum", "count", "buckets"}``.  Returns
    None when the pair is malformed or the counter reset mid-span
    (negative delta — e.g. the registry was reset between scrapes).
    """
    if isinstance(new, dict):
        if not isinstance(old, dict):
            return None
        dc = new.get("count", 0) - old.get("count", 0)
        ds = new.get("sum", 0.0) - old.get("sum", 0.0)
        if dc < 0:
            return None
        return float(dc), float(ds)
    if isinstance(old, dict):
        return None
    delta = float(new) - float(old)
    if delta < 0:
        return None
    return delta, delta


def snapshot_rates(new: dict, old: dict, elapsed: float) -> dict:
    """Per-second rates between two registry snapshots.

    Returns ``{name: {"type", "help", "values": {labels: rate}}}``
    where counter values are deltas/sec, histogram values are
    ``{"rate": count/sec, "mean": sum_delta/count_delta}``, and gauges
    carry their *latest* value unchanged.  Metrics/series absent from
    the old snapshot are treated as starting from zero.
    """
    if elapsed <= 0.0:
        raise ValueError("elapsed must be positive")
    out: dict = {}
    for name, family in new.items():
        kind = family.get("type")
        old_values = old.get(name, {}).get("values", {})
        values: dict = {}
        for labels, val in family.get("values", {}).items():
            if kind == "gauge":
                values[labels] = val
                continue
            base = old_values.get(labels, {} if isinstance(val, dict) else 0.0)
            delta = _child_delta(val, base)
            if delta is None:
                continue
            dc, ds = delta
            if kind == "histogram":
                values[labels] = {
                    "rate": dc / elapsed,
                    "mean": (ds / dc) if dc else 0.0,
                }
            else:
                values[labels] = dc / elapsed
        out[name] = {"type": kind, "help": family.get("help", ""), "values": values}
    return out


def render_rates(rates: dict, *, skip_zero: bool = True) -> str:
    """Human-readable one-line-per-series view of :func:`snapshot_rates`."""
    lines = []
    for name in sorted(rates):
        family = rates[name]
        kind = family["type"]
        for labels in sorted(family["values"]):
            val = family["values"][labels]
            series = f"{name}{{{labels}}}" if labels else name
            if kind == "gauge":
                lines.append(f"{series} {val:g}")
            elif kind == "histogram":
                if skip_zero and not val["rate"]:
                    continue
                lines.append(
                    f"{series} {val['rate']:g}/s mean={val['mean']:g}"
                )
            else:
                if skip_zero and not val:
                    continue
                lines.append(f"{series} {val:g}/s")
    return "\n".join(lines)


class ScrapeHistory:
    """Ring buffer of ``(t, snapshot)`` scrapes with rate queries.

    Args:
        capacity: scrapes retained (>= 2 needed before rates exist).
    """

    def __init__(self, capacity: int = 120):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self._ring: Deque[Tuple[float, dict]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, snapshot: Optional[dict] = None, *, t: Optional[float] = None) -> dict:
        """Append one scrape (default: the process registry, now)."""
        if snapshot is None:
            snapshot = registry().collect()
        self._ring.append((time.monotonic() if t is None else t, snapshot))
        return snapshot

    def span_seconds(self, *, span: Optional[float] = None) -> float:
        """Elapsed time covered by :meth:`rates` for this ``span``."""
        new_t, _, old_t, _ = self._endpoints(span)
        return new_t - old_t

    def _endpoints(self, span: Optional[float]):
        if len(self._ring) < 2:
            raise ValueError("need at least two scrapes to compute rates")
        new_t, new_snap = self._ring[-1]
        old_t, old_snap = self._ring[0]
        if span is not None:
            # Oldest scrape still inside the window, else the closest.
            for t, snap in reversed(self._ring):
                if new_t - t >= span:
                    old_t, old_snap = t, snap
                    break
                if t < new_t:
                    old_t, old_snap = t, snap
        if new_t <= old_t:
            raise ValueError("scrapes are not time-ordered")
        return new_t, new_snap, old_t, old_snap

    def rates(self, *, span: Optional[float] = None) -> dict:
        """Per-second rates between the newest scrape and the oldest one
        within ``span`` seconds of it (oldest retained when None)."""
        new_t, new_snap, old_t, old_snap = self._endpoints(span)
        return snapshot_rates(new_snap, old_snap, new_t - old_t)

    def render(self, *, span: Optional[float] = None, skip_zero: bool = True) -> str:
        """:func:`render_rates` over :meth:`rates`, with an interval header."""
        elapsed = self.span_seconds(span=span)
        body = render_rates(self.rates(span=span), skip_zero=skip_zero)
        return f"# rates over {elapsed:.1f}s\n{body}" if body else (
            f"# rates over {elapsed:.1f}s\n# (all zero)"
        )
