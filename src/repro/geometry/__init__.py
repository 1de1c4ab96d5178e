"""Geometry kernel: vectors, predicates, hulls, and convex-polygon ops.

Everything the summaries and queries need is implemented here from
scratch (no ``scipy.spatial``); see DESIGN.md section 2.1.
"""

from .vec import (
    Point,
    Vector,
    add,
    almost_equal,
    angle_of,
    centroid,
    cross,
    dist,
    dist_sq,
    dot,
    iter_points,
    lerp,
    midpoint,
    neg,
    norm,
    norm_sq,
    normalize,
    perp,
    rotate,
    scale,
    sub,
    unit,
)
from .predicates import (
    EPS,
    between,
    collinear,
    is_ccw,
    is_cw,
    orient,
    orientation_sign,
    point_in_triangle,
)
from .directions import DyadicDirection, full_turn_units
from .segment import (
    closest_point_on_segment,
    line_intersection,
    point_line_distance,
    point_segment_distance,
    project_param,
    segments_intersect,
    signed_line_distance,
    supporting_line,
)
from .hull import OnlineHull, convex_hull
from .polygon import (
    area,
    contains_point,
    edges,
    extent,
    extreme_vertex,
    is_convex_ccw,
    perimeter,
    support,
    tangent_indices,
)
from .calipers import antipodal_pairs, diameter, farthest_vertex_from, width
from .intersection import clip_halfplane, intersect_convex, overlap_area
from .distance import (
    linearly_separable,
    point_polygon_distance,
    polygon_distance,
    separating_line,
)
from .circle import Circle, smallest_enclosing_circle

__all__ = [
    # vec
    "Point", "Vector", "add", "sub", "scale", "neg", "dot", "cross",
    "norm", "norm_sq", "dist", "dist_sq", "normalize", "perp", "rotate",
    "angle_of", "unit", "lerp", "midpoint", "centroid", "almost_equal",
    "iter_points",
    # predicates
    "EPS", "orient", "orientation_sign", "is_ccw", "is_cw", "collinear",
    "point_in_triangle", "between",
    # directions
    "DyadicDirection", "full_turn_units",
    # segment
    "project_param", "closest_point_on_segment", "point_segment_distance",
    "point_line_distance", "line_intersection", "segments_intersect",
    "supporting_line", "signed_line_distance",
    # hull
    "convex_hull", "OnlineHull",
    # polygon
    "perimeter", "area", "contains_point", "extreme_vertex", "support",
    "extent", "edges", "tangent_indices", "is_convex_ccw",
    # calipers
    "antipodal_pairs", "diameter", "width", "farthest_vertex_from",
    # intersection
    "clip_halfplane", "intersect_convex", "overlap_area",
    # distance
    "point_polygon_distance", "polygon_distance", "separating_line",
    "linearly_separable",
    # circle
    "Circle", "smallest_enclosing_circle",
]
