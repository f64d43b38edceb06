"""Geometric predicates used throughout the packing proofs.

These are the primitive tests the paper's appendix reasons with:
orientation of point triples, interior angles of convex quadrilaterals
(Lemma 11), and the diameter of finite point sets (arc-polygon diameter
reduces to vertex-set diameter).
"""

from __future__ import annotations

import math
from typing import Sequence

from .point import EPS, Point, max_pairwise_distance

__all__ = [
    "orientation",
    "angle_at",
    "is_convex_polygon",
    "convex_hull",
    "diameter",
    "point_in_polygon",
]


def orientation(a: Point, b: Point, c: Point) -> float:
    """Signed area of triangle ``abc`` times two.

    Positive for a counterclockwise turn, negative for clockwise,
    (near) zero for collinear points.
    """
    return (b - a).cross(c - a)


def angle_at(vertex: Point, a: Point, b: Point) -> float:
    """Interior angle ``a-vertex-b`` in radians, in ``[0, pi]``.

    This is the quantity Lemma 11 manipulates (``angle ovp + angle upv``).
    """
    u = a - vertex
    v = b - vertex
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined when a side has zero length")
    cosine = max(-1.0, min(1.0, u.dot(v) / (nu * nv)))
    return math.acos(cosine)


def is_convex_polygon(vertices: Sequence[Point], tol: float = EPS) -> bool:
    """Whether the vertex cycle bounds a convex polygon.

    Accepts either orientation; collinear (zero-turn) vertices are
    permitted.  Degenerate inputs (< 3 vertices) are not convex polygons.
    """
    n = len(vertices)
    if n < 3:
        return False
    sign = 0.0
    for i in range(n):
        turn = orientation(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if abs(turn) <= tol:
            continue
        if sign == 0.0:
            sign = turn
        elif sign * turn < 0.0:
            return False
    return True


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Convex hull in counterclockwise order (Andrew's monotone chain).

    Collinear points on the hull boundary are discarded.  Collinearity
    is relative to the edge lengths (a turn of at most ``EPS`` radians,
    roughly), so a short hull edge is never mistaken for a straight
    one.  For fewer than three distinct points the distinct points are
    returned sorted.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half_hull(seq: list[Point]) -> list[Point]:
        hull: list[Point] = []
        for p in seq:
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if orientation(a, b, p) > EPS * a.distance_to(b) * a.distance_to(p):
                    break
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(pts[::-1])
    return lower[:-1] + upper[:-1]


def diameter(points: Sequence[Point]) -> float:
    """Diameter (largest pairwise distance) of a finite point set.

    The appendix repeatedly bounds ``diam({p1, s1, p2, s2})``; for the
    small sets involved the quadratic scan is exact and fast.  For large
    sets this routine first reduces to the convex hull.
    """
    pts = list(points)
    if len(pts) > 64:
        pts = convex_hull(pts) or pts
    return max_pairwise_distance(pts)


def point_in_polygon(p: Point, vertices: Sequence[Point], tol: float = EPS) -> bool:
    """Whether ``p`` lies inside or on the boundary of a simple polygon."""
    n = len(vertices)
    if n < 3:
        return False
    # Boundary check: p on any edge counts as inside.
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        if abs(orientation(a, b, p)) <= tol:
            lo_x, hi_x = min(a.x, b.x) - tol, max(a.x, b.x) + tol
            lo_y, hi_y = min(a.y, b.y) - tol, max(a.y, b.y) + tol
            if lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y:
                return True
    inside = False
    j = n - 1
    for i in range(n):
        a, b = vertices[i], vertices[j]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x
            if p.x < x_cross:
                inside = not inside
        j = i
    return inside
