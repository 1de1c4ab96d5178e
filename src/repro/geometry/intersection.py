"""Convex polygon intersection via half-plane clipping.

Used for the paper's *spatial overlap* query (Section 6): given the
approximate hulls of two streams, quantify the overlap of their spatial
extents.  Clipping one convex polygon against the m edges of another is
O(n * m); for summary hulls (n, m = O(r)) this is well within the O(r)
per-query budget the paper allots to linear-time polygon computations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .polygon import area, edges
from .predicates import EPS, orient
from .vec import Point

__all__ = ["clip_halfplane", "intersect_convex", "overlap_area"]


def clip_halfplane(poly: Sequence[Point], a: Point, b: Point) -> List[Point]:
    """Clip a convex polygon to the left half-plane of directed line a->b.

    Returns the clipped polygon (possibly empty).  Vertices exactly on
    the line are kept.  Standard Sutherland–Hodgman step.
    """
    n = len(poly)
    if n == 0:
        return []
    out: List[Point] = []
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        cur_in = orient(a, b, cur) >= -EPS
        nxt_in = orient(a, b, nxt) >= -EPS
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            p = _line_segment_cross(a, b, cur, nxt)
            if p is not None:
                out.append(p)
    return _dedup(out)


def _line_segment_cross(
    a: Point, b: Point, c: Point, d: Point
) -> Optional[Point]:
    """Intersection of line ``ab`` with segment ``cd`` (None if parallel).

    Callers only ask when ``c`` and ``d`` lie on opposite sides of the
    line, so the true crossing lies on the segment: ``t`` is clamped to
    [0, 1], or a nearly collinear ``cd`` would extend far past ``d``.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    # Solve c + t*s on the line through a with direction r:
    # cross(r, c + t*s - a) = 0  =>  t = cross(r, a - c) / cross(r, s).
    t = (r[0] * (a[1] - c[1]) - r[1] * (a[0] - c[0])) / denom
    t = min(max(t, 0.0), 1.0)
    return (c[0] + t * s[0], c[1] + t * s[1])


def _dedup(poly: List[Point], tol: float = 1e-12) -> List[Point]:
    """Remove consecutive (near-)duplicate vertices."""
    if not poly:
        return poly
    out = [poly[0]]
    for p in poly[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol:
            out.append(p)
    while len(out) > 1 and (
        abs(out[0][0] - out[-1][0]) <= tol and abs(out[0][1] - out[-1][1]) <= tol
    ):
        out.pop()
    return out


def intersect_convex(
    p: Sequence[Point], q: Sequence[Point]
) -> List[Point]:
    """Intersection of two convex polygons as a convex polygon (CCW).

    Returns ``[]`` when the interiors and boundaries do not meet.
    Degenerate inputs (points/segments) are handled: a point intersects
    if it lies inside the other polygon.
    """
    from .polygon import contains_point

    if len(p) == 0 or len(q) == 0:
        return []
    if len(p) == 1:
        return [p[0]] if contains_point(q, p[0]) else []
    if len(q) == 1:
        return [q[0]] if contains_point(p, q[0]) else []
    if len(p) == 2 or len(q) == 2:
        # Segment cases: clip the segment-as-thin-polygon against the other.
        seg, other = (p, q) if len(p) == 2 else (q, p)
        if len(other) < 3:
            # Two segments: report shared endpoints only (measure-zero).
            shared = [v for v in seg if v in other]
            return shared
        clipped = list(seg)
        for a, b in edges(other):
            clipped = clip_halfplane(clipped, a, b)
            if not clipped:
                return []
        return clipped
    out = list(p)
    for a, b in edges(q):
        out = clip_halfplane(out, a, b)
        if not out:
            return []
    return out


def overlap_area(p: Sequence[Point], q: Sequence[Point]) -> float:
    """Area of the intersection of two convex polygons."""
    inter = intersect_convex(p, q)
    if len(inter) < 3:
        return 0.0
    return abs(area(inter))
