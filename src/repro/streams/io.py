"""Stream and summary persistence.

Production plumbing around the generators and summaries: save synthetic
workloads, load recorded point streams (CSV or ``.npy``), replay them
with rate bookkeeping, and — new with the multi-stream engine —
serialise hull summaries to a JSON snapshot format so long-running
services can checkpoint and restore thousands of keyed summaries.

Snapshot format (version 1)::

    {"format": "repro.summary", "version": 1,
     "class": "AdaptiveHull", "config": {...constructor kwargs...},
     "state": {...scheme-specific state_dict...}}

The core schemes (:class:`~repro.core.uniform_hull.UniformHull`,
:class:`~repro.core.adaptive_hull.AdaptiveHull`,
:class:`~repro.core.fixed_size.FixedSizeAdaptiveHull`) serialise their
full internal state field-for-field — extrema, supports, refinement
forest, operation counters — so a restored summary has the identical
hull and keeps streaming under the identical policy.  Baselines fall
back to replaying their samples (exact for schemes whose state is a
function of their samples, such as the exact hull).  Values may include
IEEE infinities (pre-first-point supports); Python's ``json`` module
round-trips them natively.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple, Union

import numpy as np

__all__ = [
    "save_stream",
    "load_stream",
    "replay",
    "scheme_registry",
    "summary_state",
    "summary_from_state",
    "save_summary",
    "load_summary",
]

PathLike = Union[str, Path]

SUMMARY_FORMAT = "repro.summary"
SUMMARY_FORMAT_VERSION = 1


def save_stream(points: np.ndarray, path: PathLike) -> Path:
    """Save an ``(n, 2)`` array as ``.npy`` or ``.csv`` (by extension).

    Raises:
        ValueError: for a wrong-shaped array or unknown extension.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {arr.shape}")
    path = Path(path)
    if path.suffix == ".npy":
        np.save(path, arr)
    elif path.suffix == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["x", "y"])
            writer.writerows(arr.tolist())
    else:
        raise ValueError(f"unknown stream format {path.suffix!r} (.npy or .csv)")
    return path


def load_stream(path: PathLike) -> np.ndarray:
    """Load a point stream saved by :func:`save_stream`.

    CSV files may or may not carry the ``x,y`` header row.

    Raises:
        ValueError: on malformed content or unknown extension.
        FileNotFoundError: when the file does not exist.
    """
    path = Path(path)
    if path.suffix == ".npy":
        arr = np.load(path)
    elif path.suffix == ".csv":
        rows = []
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.reader(f):
                if not row:
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    # Header row; anything else malformed raises below.
                    if rows:
                        raise
                    continue
        arr = np.asarray(rows, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
    else:
        raise ValueError(f"unknown stream format {path.suffix!r} (.npy or .csv)")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{path} does not contain an (n, 2) point stream")
    return arr


def scheme_registry() -> Dict[str, type]:
    """Summary classes addressable by name (lazy import: io must stay
    importable without dragging the whole algorithm stack in).

    Shared by snapshot restore and the shard layer's picklable summary
    specs — anywhere a scheme must travel as data instead of a factory
    closure."""
    from ..baselines import (
        DudleyKernelHull,
        ExactHull,
        PartiallyAdaptiveHull,
        RadialHistogramHull,
        RandomSampleHull,
    )
    from ..core import AdaptiveHull, FixedSizeAdaptiveHull, UniformHull
    from ..window import WindowedHullSummary

    return {
        cls.__name__: cls
        for cls in (
            UniformHull,
            AdaptiveHull,
            FixedSizeAdaptiveHull,
            ExactHull,
            DudleyKernelHull,
            PartiallyAdaptiveHull,
            RadialHistogramHull,
            RandomSampleHull,
            WindowedHullSummary,
        )
    }


def summary_state(summary) -> Dict:
    """Serialise a hull summary to a JSON-compatible snapshot dict."""
    return {
        "format": SUMMARY_FORMAT,
        "version": SUMMARY_FORMAT_VERSION,
        "class": type(summary).__name__,
        "config": summary.get_config(),
        "state": summary.state_dict(),
    }


def summary_from_state(snapshot: Dict, factory=None):
    """Reconstruct a summary from a :func:`summary_state` snapshot.

    ``factory`` (a zero-argument callable) takes precedence when given:
    the engine restores through the same factory that created its
    summaries, and the snapshot's class name is used as a consistency
    check.  Without a factory, the class is looked up by name in the
    scheme registry and constructed from the stored config.

    Raises:
        ValueError: on unknown formats, unknown classes, or a factory
            whose product does not match the snapshot's class.
    """
    if snapshot.get("format") != SUMMARY_FORMAT:
        raise ValueError(f"not a summary snapshot: {snapshot.get('format')!r}")
    if snapshot.get("version") != SUMMARY_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {snapshot.get('version')!r}")
    name = snapshot["class"]
    if factory is not None:
        summary = factory()
        if type(summary).__name__ != name:
            raise ValueError(
                f"snapshot holds a {name}, factory produced "
                f"{type(summary).__name__}"
            )
        config = summary.get_config()
        stored = type(summary).config_from_doc(snapshot["config"])
        if config != stored:
            raise ValueError(
                f"snapshot {name} config {stored!r} does not "
                f"match factory config {config!r}; the restored summary "
                "would stream under a different policy"
            )
    else:
        registry = scheme_registry()
        if name not in registry:
            raise ValueError(f"unknown summary class {name!r}")
        cls = registry[name]
        summary = cls(**cls.config_from_doc(snapshot["config"]))
    summary.load_state(snapshot["state"])
    return summary


def save_summary(summary, path: PathLike) -> Path:
    """Write a summary snapshot as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(summary_state(summary)), encoding="utf-8")
    return path


def load_summary(path: PathLike, factory=None):
    """Load a summary snapshot written by :func:`save_summary`."""
    snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    return summary_from_state(snapshot, factory=factory)


def replay(
    points: np.ndarray, chunk: int = 1
) -> Iterator[Tuple[int, Tuple[float, float]]]:
    """Replay a stored stream as ``(index, (x, y))`` pairs.

    ``chunk`` > 1 yields only every chunk-th point — cheap downsampling
    for quick-look runs on large recordings.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    for i in range(0, len(points), chunk):
        row = points[i]
        yield i, (float(row[0]), float(row[1]))
