"""Vectorised batch ingestion for containment-filtering summaries.

Real callers rarely arrive with one point at a time: sensor buses,
replayed recordings, and the :class:`~repro.engine.StreamEngine` all
deliver ``(n, 2)`` NumPy blocks.  On the paper's workloads the vast
majority of stream points fall *inside* the current sample hull and are
discarded by the per-point containment fast path — so the batch hot
path can be turned into array operations: test a whole segment against
the sample hull with one vectorised orientation sweep, skip the certain
insiders in bulk, and fall back to per-point :meth:`insert` only for
the rare survivors.

Exact equivalence with sequential ``insert`` is non-negotiable (the
``tests/engine/test_batch_equivalence.py`` suite enforces it), and two
subtleties guard it:

* The vectorised containment test is *conservative*: it certifies a
  point as inside only when every edge cross product clears a margin
  (:data:`MASK_MARGIN`) three orders of magnitude wider than the EPS
  tolerance of :func:`~repro.geometry.polygon.contains_point`.  A
  certified point is therefore guaranteed to also be discarded by the
  sequential containment test; anything near the boundary simply takes
  the per-point path, which is bit-for-bit the sequential code.
* Sample hulls do not grow monotonically — an extremum update can
  *shrink* the hull (dropping a formerly covered region), which would
  invalidate an already-computed mask.  After every summary-changing
  insert the driver checks (vectorised) that the new hull still covers
  the hull the mask was filtered against; while the hull only grows
  (the overwhelmingly common case) the mask stays valid, and a genuine
  shrink downgrades the rest of the current segment to the plain
  per-point loop.

Segments adapt: they start small — while the young hull still changes
on most points, masks would be invalidated immediately — and double up
to ``chunk`` as the hull stabilises, which is what turns the steady
state into nearly pure NumPy.

Short batches skip all of this.  A batch of fewer than
``2 * SURVIVOR_SCALAR_PREFIX`` (16) points — the typical per-key group
of a many-key engine — goes through ``summary.insert`` point by point:
the prefilter's fixed cost per call (edge forms, span reductions, the
mask) exceeds the per-point loop it would replace at that size.  It is
the same rule the ``consume_survivors`` hooks apply to their survivors,
it depends on the batch length alone (never on hull age or workload),
and since sequential ``insert`` is the reference the route is
equivalent by construction.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..geometry.vec import Point

__all__ = [
    "SURVIVOR_LOOKAHEAD",
    "SURVIVOR_SCALAR_PREFIX",
    "as_key_array",
    "as_point_array",
    "as_ts_array",
    "certain_inside_mask",
    "prefiltered_insert_many",
]

#: Relative margin for the conservative vectorised containment test.
#: Must dominate ``repro.geometry.predicates.EPS`` (1e-12) by a wide
#: gap so that a certified-inside point can never flip to "outside"
#: under the exact predicate's tolerance policy.
MASK_MARGIN = 1e-9

#: Default maximum number of points filtered per vectorised segment.
DEFAULT_CHUNK = 4096

#: Initial segment length while the hull is still volatile.
_MIN_SEGMENT = 64

#: Mask re-filters allowed per segment before degrading that segment to
#: the per-point path (protects against adversarial hull churn).
_MAX_REFILTERS = 8

#: Max survivors a summary's ``consume_survivors`` hook classifies per
#: call.  Caps the vectorised lookahead so that a churn-heavy stream
#: (every survivor mutating) costs O(survivors * lookahead) row ops in
#: the worst case instead of O(survivors^2).
SURVIVOR_LOOKAHEAD = 256

#: Rows a ``consume_survivors`` hook steps through the scalar sequential
#: path before paying the fixed cost of a vectorised sweep.  While the
#: young hull mutates every few survivors, the sweep can never amortise;
#: the scalar prefix exits at the first mutation for the cost of the
#: per-point path the driver would have used anyway.
SURVIVOR_SCALAR_PREFIX = 8


def as_point_array(points) -> np.ndarray:
    """Coerce a batch into a validated ``(n, 2)`` float64 array.

    Accepts an ``(n, 2)`` array, any sequence of 2-sequences, or a
    generator of points.  Validation is vectorised: one ``isfinite``
    sweep replaces the two ``float()`` round trips per point that
    dominate naive batch ingestion.

    Raises:
        TypeError: when the input cannot be shaped into ``(n, 2)``.
        ValueError: when any row has a NaN or infinite coordinate (the
            error names the first offending row).
    """
    if not isinstance(points, (np.ndarray, list, tuple)):
        points = list(points)  # generators and other lazy iterables
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"batch must be coercible to an (n, 2) float array: {exc}"
        ) from exc
    if arr.ndim == 1 and arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise TypeError(f"batch must have shape (n, 2), got {arr.shape}")
    finite = np.isfinite(arr)
    # count_nonzero, not .all(): a reduction's fixed cost dominates the
    # short per-key batches a many-key engine validates.
    if np.count_nonzero(finite) != finite.size:
        bad = int(np.nonzero(~finite.all(axis=1))[0][0])
        raise ValueError(f"batch row {bad} is not finite: {tuple(arr[bad])!r}")
    return np.ascontiguousarray(arr)


def as_key_array(keys, n: int) -> np.ndarray:
    """Coerce a parallel key sequence into a 1-D array of length ``n``.

    NumPy arrays pass through unchanged; plain sequences are wrapped in
    an object array element by element — ``np.asarray`` on a mixed list
    (e.g. ints + strs) would coerce everything to one dtype and
    silently split a logical stream into two keys.  Shared by
    :meth:`repro.engine.StreamEngine.ingest_arrays` and the shard
    layer's fan-out so keyed routing semantics cannot diverge.

    Raises:
        ValueError: when the keys are not a flat length-``n`` sequence.
    """
    if isinstance(keys, np.ndarray):
        key_arr = keys
    else:
        seq = list(keys)
        key_arr = np.empty(len(seq), dtype=object)
        key_arr[:] = seq
    if key_arr.ndim != 1 or len(key_arr) != n:
        raise ValueError(f"keys has shape {key_arr.shape}, expected ({n},)")
    return key_arr


def as_ts_array(ts, n: int) -> Optional[np.ndarray]:
    """Normalise a batch timestamp argument to a length-``n`` float64
    array (or None for "no timestamps").

    A scalar broadcasts to the whole batch.  Shared by the windowed
    summary and both engine tiers so ts normalisation cannot diverge;
    semantic policy (finiteness, monotonicity, clocks) stays with each
    caller.

    Raises:
        ValueError: when ``ts`` is neither a scalar nor a flat
            length-``n`` sequence.
    """
    if ts is None:
        return None
    ts_arr = np.asarray(ts, dtype=np.float64)
    if ts_arr.ndim == 0:
        ts_arr = np.full(n, float(ts_arr))
    if ts_arr.shape != (n,):
        raise ValueError(
            f"ts has shape {ts_arr.shape}, expected a scalar or ({n},)"
        )
    return ts_arr


#: One-entry memo for :func:`_edge_forms`, keyed by hull-list identity.
#: Summaries never mutate a hull list in place (every rebuild installs a
#: fresh list), so identity implies identical contents; holding the
#: reference pins the list so its id cannot be recycled.  The driver
#: filters the same hull object many times per batch (segment after
#: segment until the next mutation), which otherwise rebuilds these
#: arrays from scratch on every call.
_FORMS_MEMO: list = [None, None]


def _edge_forms(hull: Sequence[Point]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear forms of a CCW hull's edges (memoised on hull identity).

    For edge ``a -> b`` the orientation cross product of point ``p`` is
    the linear form ``-ey*px + ex*py + (ey*ax - ex*ay)`` with
    ``(ex, ey) = b - a``; a point is left of the edge when the form is
    positive.  Returns ``(N, c, span)``: the ``(h, 2)`` coefficient
    matrix, the ``(h,)`` constants, and the per-edge scale coefficient
    ``|ex| + |ey|`` used to bound the relative tolerance of the exact
    predicate.
    """
    if _FORMS_MEMO[0] is hull:
        return _FORMS_MEMO[1]
    h = np.asarray(hull, dtype=np.float64)
    b = np.empty_like(h)
    b[:-1] = h[1:]
    b[-1] = h[0]
    ex = b[:, 0] - h[:, 0]
    ey = b[:, 1] - h[:, 1]
    coeffs = np.stack((-ey, ex), axis=1)
    const = ey * h[:, 0] - ex * h[:, 1]
    forms = (coeffs, const, np.abs(ex) + np.abs(ey))
    _FORMS_MEMO[0] = hull
    _FORMS_MEMO[1] = forms
    return forms


def certain_inside_mask(
    hull: Sequence[Point], xs: np.ndarray, ys: np.ndarray
) -> Optional[np.ndarray]:
    """Boolean mask of points *certainly* inside a CCW convex hull.

    ``mask[i]`` is True only when point ``i`` clears every edge of
    ``hull`` by more than the relative :data:`MASK_MARGIN` — a strict
    subset of what :func:`~repro.geometry.polygon.contains_point`
    accepts (the exact predicate's tolerance scale ``|t1| + |t2|`` is
    bounded above by ``(|ex| + |ey|) * span`` with ``span`` the
    coordinate spread of the batch and hull) — so a True entry licenses
    skipping the sequential containment test entirely.  Returns None
    for degenerate hulls (< 3 vertices), where no point can be
    certified.
    """
    if len(hull) < 3:
        return None
    coeffs, const, edge_scale = _edge_forms(hull)
    hv = np.asarray(hull, dtype=np.float64)
    span = max(
        max(xs.max(initial=-np.inf), hv[:, 0].max())
        - min(xs.min(initial=np.inf), hv[:, 0].min()),
        max(ys.max(initial=-np.inf), hv[:, 1].max())
        - min(ys.min(initial=np.inf), hv[:, 1].min()),
    )
    cross = coeffs @ np.stack((xs, ys)) + const[:, None]
    return (cross > (MASK_MARGIN * span) * edge_scale[:, None]).all(axis=0)


def _region_covers(outer: Sequence[Point], inner: Sequence[Point]) -> bool:
    """Does hull ``outer`` (as a closed region) cover every vertex of
    ``inner``?  By convexity this certifies region containment, which
    is what keeps a previously computed inside-mask valid after the
    summary changed.  Strict (no tolerance): a borderline cover merely
    triggers a harmless re-filter."""
    if not inner:
        return True
    if len(outer) < 3:
        return False
    coeffs, const, _ = _edge_forms(outer)
    pts = np.asarray(inner, dtype=np.float64)
    cross = coeffs @ pts.T + const[:, None]
    return bool((cross >= 0.0).all())


def prefiltered_insert_many(
    summary, points, chunk: int = DEFAULT_CHUNK
) -> int:
    """Batch-ingest ``points`` into ``summary`` with vectorised pre-filtering.

    ``summary`` must discard contained points exactly as its first
    per-point step (as :class:`~repro.core.uniform_hull.UniformHull` and
    :class:`~repro.core.adaptive_hull.AdaptiveHull` do), counting only
    ``points_seen`` for them.  Returns the number of summary-changing
    points — identical to what a sequential ``insert`` loop would
    return, with identical final state and counters.

    A batch of fewer than ``2 * SURVIVOR_SCALAR_PREFIX`` points is
    validated as a whole and then ingested with ``summary.insert`` one
    point at a time; the vectorised prefilter only runs on longer
    batches, where its fixed cost per call can amortise.

    Summaries may additionally expose a ``consume_survivors(sxs, sys)``
    hook: given the coordinate arrays of the remaining mask survivors
    (in stream order), it must ingest a leading run of them with state
    and counters identical to sequential ``insert`` and return
    ``(consumed, changed, mutated)`` with ``consumed >= 1``.  ``mutated``
    may be conservatively True (the driver then revalidates the mask
    against the possibly-changed hull — segmentation of the survivor
    stream is equivalence-invariant, so an extra revalidation can never
    change the result).  The hook is where the adaptive and uniform
    summaries classify survivors in bulk instead of one insert() each.

    Raises:
        ValueError / TypeError: on malformed batches, before any point
            is ingested (atomic validation).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    arr = as_point_array(points)
    n = len(arr)
    changed = 0
    if n < 2 * SURVIVOR_SCALAR_PREFIX:
        # Too short for any vectorised sweep to amortise: the sequential
        # reference path, after the batch-wide validation above.
        for x, y in arr.tolist():
            if summary.insert((x, y)):
                changed += 1
        return changed
    xs = arr[:, 0]
    ys = arr[:, 1]
    consume = getattr(summary, "consume_survivors", None)
    pos = 0
    seg = min(_MIN_SEGMENT, chunk)
    while pos < n:
        end = min(pos + seg, n)
        refilters = 0
        while pos < end:
            hull = summary.hull()
            if len(hull) < 3:
                # Degenerate hull: nothing can be certified; step
                # per-point until the hull takes shape.
                if summary.insert((float(xs[pos]), float(ys[pos]))):
                    changed += 1
                pos += 1
                continue
            if refilters > _MAX_REFILTERS:
                # Pathologically churning hull: finish this segment on
                # the plain per-point path (bit-for-bit sequential).
                for j in range(pos, end):
                    if summary.insert((float(xs[j]), float(ys[j]))):
                        changed += 1
                pos = end
                break
            ref_hull = list(hull)
            # Filter against the live hull object (not the copy): its
            # identity keys the edge-forms memo across segments.
            mask = certain_inside_mask(hull, xs[pos:end], ys[pos:end])
            survivors = np.flatnonzero(~mask)
            done = pos  # next index whose points_seen is unaccounted
            dirty = False
            if consume is not None:
                sxs = xs[pos + survivors]
                sys_ = ys[pos + survivors]
                i = 0
                m = len(survivors)
                while i < m:
                    consumed, ch, mutated = consume(sxs[i:], sys_[i:])
                    changed += ch
                    # The hook accounted points_seen for the consumed
                    # survivors themselves; the certified insiders
                    # interleaved with them are billed here.
                    last = pos + int(survivors[i + consumed - 1])
                    summary.points_seen += (last + 1 - done) - consumed
                    done = last + 1
                    i += consumed
                    if mutated:
                        new_hull = summary.hull()
                        if new_hull != ref_hull and not _region_covers(
                            new_hull, ref_hull
                        ):
                            dirty = True
                            break
            else:
                for off in survivors:
                    j = pos + int(off)
                    # Everything between the last survivor and this one
                    # is certified inside: sequential insert would
                    # discard each after bumping points_seen.
                    summary.points_seen += j - done
                    if summary.insert((float(xs[j]), float(ys[j]))):
                        changed += 1
                        new_hull = summary.hull()
                        if new_hull != ref_hull and not _region_covers(
                            new_hull, ref_hull
                        ):
                            # The hull shrank: the mask past this point
                            # is no longer certified — re-filter the
                            # rest of the segment against the new hull.
                            done = j + 1
                            dirty = True
                            break
                    done = j + 1
            if dirty:
                refilters += 1
                pos = done
                continue
            summary.points_seen += end - done
            pos = end
        # Segments grow while masks survive whole segments and shrink
        # while the young hull still churns, bounding wasted filter work.
        if refilters == 0:
            seg = min(seg * 2, chunk)
        else:
            seg = max(min(_MIN_SEGMENT, chunk), seg // 2)
    return changed
