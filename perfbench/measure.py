"""Measurement primitives shared by every workload of the benchmark.

* :func:`tail_summary` — a timing sample reduced to its median and a
  named tail percentile, refusing tails with fewer than
  :data:`MIN_BEYOND` samples beyond them;
* :class:`Tracer` — in-memory spans (name, start, end, parent, batch)
  recorded by wrappers the benchmark installs around the program's
  public functions, plus the self-time arithmetic (a span's duration
  minus the part of it its children cover);
* :func:`parse_prom` / :func:`prom_delta` — the Prometheus text page
  the gateway exports on ``/metrics``, parsed into samples and
  differenced between two scrapes.

Nothing here imports the program under test.
"""

from __future__ import annotations

import functools
import json
import math
import re
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: A tail percentile is printed only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


class InvalidRun(RuntimeError):
    """The run cannot be reported: its figures would not mean what
    their names say (too thin a tail, a saturated open loop)."""


class ThinTailError(InvalidRun):
    """A tail percentile was requested from too few samples."""


@dataclass(frozen=True)
class TailSummary:
    median: float
    tail: float
    q: float
    n: int
    beyond: int

    def describe(self, name: str, scale: float = 1e3, unit: str = "ms") -> str:
        tail = (
            f"p{round(self.q * 100)}={self.tail * scale:.3f}{unit} "
            if self.q != 0.5 else ""
        )
        return (
            f"{name}: p50={self.median * scale:.3f}{unit} {tail}"
            f"n={self.n} ({self.beyond} beyond p{round(self.q * 100)})"
        )


def tail_summary(samples: Iterable[float], q: float) -> TailSummary:
    """Median and nearest-rank ``q`` percentile of ``samples``.

    Raises:
        ThinTailError: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the ``q`` percentile's rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ThinTailError(
            f"p{round(q * 100)} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return TailSummary(statistics.median(ordered), ordered[rank - 1], q, n, beyond)


def highest_tail(samples: Iterable[float], qs=(0.99, 0.95, 0.9, 0.75)) -> TailSummary:
    """The highest of ``qs`` that has :data:`MIN_BEYOND` samples beyond
    it (for timings whose only named figure is the median)."""
    samples = list(samples)
    for q in qs:
        try:
            return tail_summary(samples, q)
        except ThinTailError:
            continue
    return tail_summary(samples, 0.5)


# -- spans -----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    batch: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; single-threaded by design (the
    in-process workloads drive the engine from one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.batch: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), math.nan, parent, self.batch)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "batch": s.batch,
                }) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class LayerTotals:
    count: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


def layer_totals(spans: List[Span], under: Optional[str] = None) -> Dict[str, LayerTotals]:
    """Per span name: call count, inclusive and self seconds.

    With ``under``, only spans that are (or descend from) a span of
    that name count — e.g. the summary work done inside engine ingest,
    not inside a query's merge.
    """
    selfs = self_times(spans)
    inside: List[bool] = []
    for s in spans:
        if under is None:
            inside.append(True)
        elif s.name == under:
            inside.append(True)
        else:
            inside.append(s.parent is not None and inside[s.parent])
    out: Dict[str, LayerTotals] = {}
    for s, own, ok in zip(spans, selfs, inside):
        if not ok:
            continue
        t = out.setdefault(s.name, LayerTotals())
        t.count += 1
        t.inclusive += s.duration
        t.self_time += own
    return out


# -- Prometheus text -------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\S+)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

PromKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def parse_prom(text: str) -> Dict[PromKey, float]:
    """Samples of a text-exposition page, keyed by (name, sorted labels)."""
    out: Dict[PromKey, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name, labels, value = m.groups()
        pairs = tuple(sorted(_LABEL_RE.findall(labels or "")))
        out[(name, pairs)] = float(value)
    return out


def prom_delta(before: Dict[PromKey, float], after: Dict[PromKey, float]) -> Dict[PromKey, float]:
    """``after - before`` per sample (absent before counts as 0)."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def prom_sum(samples: Dict[PromKey, float], name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        v for (n, pairs), v in samples.items()
        if n == name and want <= set(pairs)
    )


def prom_values(samples: Dict[PromKey, float], name: str, label: str) -> Dict[str, float]:
    """``{label value: sample}`` for the samples of ``name``."""
    out = {}
    for (n, pairs), v in samples.items():
        if n == name:
            out[dict(pairs).get(label, "")] = v
    return out


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    failures: List[str]


def report(line: str) -> None:
    """One human-readable line of the run's log (standard output, so
    it always precedes the final JSON line)."""
    print(line, flush=True)
