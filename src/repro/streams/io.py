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
forest, threshold queue, operation counters — so a restored summary
has the identical hull and keeps streaming exactly as the live one
would.  So do the exact hull (its hull vertices are its whole state)
and the windowed summary (every bucket in this format plus the window
ledger).  Only the schemes in :func:`scheme_registry` have a snapshot;
the other baselines (an RNG, a histogram, a kernel grid, a trained
direction set) cannot restore exactly, so :func:`summary_state`
refuses them.  Values may include IEEE infinities (pre-first-point
supports); Python's ``json`` module round-trips them natively.

:class:`SummarySpec` is the same registry seen from the engines: a
scheme as data (class name + config), which every engine holds and
records in its snapshots and WAL meta.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cache, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Tuple, Union

import numpy as np

from ..core.base import HullSummary

__all__ = [
    "save_stream",
    "load_stream",
    "replay",
    "scheme_registry",
    "require_registered",
    "SummarySpec",
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


@cache
def scheme_registry() -> Mapping[str, type]:
    """The schemes whose snapshot restores field for field, by name
    (lazy import: io must stay importable without dragging the whole
    algorithm stack in; built once, read-only).

    Shared by snapshot restore and the shard layer's picklable summary
    specs — anywhere a scheme must travel as data instead of a factory
    closure — so it is also the set of schemes the engine tiers host."""
    from ..baselines import ExactHull
    from ..core import AdaptiveHull, FixedSizeAdaptiveHull, UniformHull
    from ..window import WindowedHullSummary

    return MappingProxyType({
        cls.__name__: cls
        for cls in (
            UniformHull,
            AdaptiveHull,
            FixedSizeAdaptiveHull,
            ExactHull,
            WindowedHullSummary,
        )
    })


def require_registered(scheme) -> None:
    """Refuse a summary (or summary class) whose scheme has no exact
    snapshot.

    Raises:
        TypeError: naming the scheme, when it is not in
            :func:`scheme_registry`.
    """
    cls = scheme if isinstance(scheme, type) else type(scheme)
    if scheme_registry().get(cls.__name__) is not cls:
        raise TypeError(
            f"{cls.__name__} has no exact snapshot (restorable schemes: "
            f"{', '.join(sorted(scheme_registry()))})"
        )


@dataclass(frozen=True)
class SummarySpec:
    """A summary scheme as data: registered class name + constructor kwargs.

    The one description of a scheme on every tier.  Closures do not
    cross process boundaries or fit in a log, so the engines hold a
    spec (``engine.spec``): it travels over a worker pipe as a plain
    dataclass, is recorded in every engine snapshot and WAL meta, and
    rebuilds the scheme through :func:`scheme_registry`.  Examples::

        SummarySpec("AdaptiveHull", {"r": 32})
        SummarySpec.of(AdaptiveHull, r=32)
        SummarySpec.coerce(lambda: AdaptiveHull(32))

    The spec doubles as a zero-argument factory (:meth:`build`).
    """

    scheme: str
    config: Dict = field(default_factory=dict)

    def __post_init__(self):
        registry = scheme_registry()
        if self.scheme not in registry:
            known = ", ".join(sorted(registry))
            raise ValueError(
                f"unknown summary scheme {self.scheme!r} (known: {known})"
            )
        # Memoise the resolved class: build() sits on the per-key hot
        # path of every engine, and the registry lookup per
        # instantiation is pure overhead once the spec is validated.
        object.__setattr__(self, "_cls", registry[self.scheme])

    @classmethod
    def of(cls, scheme, **config) -> "SummarySpec":
        """Build a spec from a class (or its name) plus constructor kwargs."""
        name = scheme if isinstance(scheme, str) else scheme.__name__
        return cls(name, dict(config))

    @classmethod
    def for_summary(cls, summary: HullSummary) -> "SummarySpec":
        """The spec that recreates an equivalent empty summary."""
        return cls(type(summary).__name__, summary.get_config())

    @classmethod
    def coerce(cls, scheme) -> "SummarySpec":
        """The canonical spec of any scheme description: a spec, a spec
        doc, a registered summary class, a live summary instance, or a
        zero-argument factory.

        One probe build turns partial constructor kwargs (``{"r": 16}``)
        into the full ``get_config()``, so equal schemes compare equal
        whichever form named them.  Spec-shaped inputs are memoised:
        re-coercing a spec per key costs a lookup, not a build, and a
        spec that is already canonical comes back as itself.

        Raises:
            TypeError: naming an unregistered scheme; for a windowed
                summary (windows are an engine option, not a scheme);
                for anything that is not a scheme description.
            ValueError: for a spec naming no registered scheme.
        """
        if isinstance(scheme, dict):
            scheme = cls.from_doc(scheme)
        if isinstance(scheme, cls):
            canonical = _canonical_spec(
                scheme.scheme, json.dumps(scheme.config, sort_keys=True)
            )
            return scheme if scheme == canonical else canonical
        if isinstance(scheme, type) and issubclass(scheme, HullSummary):
            require_registered(scheme)
        probe = scheme
        if callable(scheme) and not isinstance(scheme, HullSummary):
            probe = scheme()
        if not isinstance(probe, HullSummary):
            raise TypeError(
                "expected a SummarySpec, a spec doc, or a registered "
                "summary class, instance or factory; got "
                f"{type(probe).__name__}"
            )
        require_registered(probe)
        if type(probe) is scheme_registry()["WindowedHullSummary"]:
            raise TypeError(
                "cannot window a windowed summary: pass window= to the "
                "engine with the base scheme"
            )
        return cls.for_summary(probe)

    def build(self) -> HullSummary:
        """Instantiate a fresh summary (the factory the spec describes)."""
        return self._cls(**self.config)

    def to_doc(self) -> Dict:
        """JSON-compatible form for snapshot headers and WAL meta."""
        return {"class": self.scheme, "config": dict(self.config)}

    @classmethod
    def from_doc(cls, doc: Dict) -> "SummarySpec":
        """Inverse of :meth:`to_doc`."""
        return cls(doc["class"], dict(doc["config"]))


@lru_cache(maxsize=None)
def _canonical_spec(scheme: str, config_json: str) -> SummarySpec:
    """Memo behind :meth:`SummarySpec.coerce` for spec-shaped inputs
    (distinct scheme configs per process are few)."""
    spec = SummarySpec(scheme, json.loads(config_json))
    return SummarySpec.coerce(spec.build())


def summary_state(summary) -> Dict:
    """Serialise a hull summary to a JSON-compatible snapshot dict.

    Raises:
        TypeError: for a scheme outside :func:`scheme_registry`.
    """
    require_registered(summary)
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
