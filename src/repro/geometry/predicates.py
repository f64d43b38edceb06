"""Geometric predicates used throughout the packing proofs.

These are the primitive tests the paper's appendix reasons with:
orientation of point triples, interior angles of convex quadrilaterals
(Lemma 11), and the diameter of finite point sets (arc-polygon diameter
reduces to vertex-set diameter).
"""

from __future__ import annotations

import math
from fractions import Fraction
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


#: Shewchuk's ``ccwerrboundA``: when ``|det|`` exceeds this times
#: ``|left| + |right|``, the float orientation determinant has the exact
#: sign (J. R. Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
#: Fast Robust Geometric Predicates", 1997).
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _orientation_sign(a: Point, b: Point, c: Point) -> int:
    """Exact sign of :func:`orientation`: ``1`` counterclockwise, ``-1``
    clockwise, ``0`` exactly collinear.

    The float determinant decides whenever its error bound allows; only
    near-collinear triples fall back to exact rational arithmetic.
    """
    left = (b.x - a.x) * (c.y - a.y)
    right = (b.y - a.y) * (c.x - a.x)
    det = left - right
    if abs(det) <= _ORIENT_ERRBOUND * (abs(left) + abs(right)):
        ax, ay = Fraction(a.x), Fraction(a.y)
        det = (Fraction(b.x) - ax) * (Fraction(c.y) - ay) - (
            Fraction(b.y) - ay
        ) * (Fraction(c.x) - ax)
    return (det > 0) - (det < 0)


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

    Collinear points on the hull boundary are discarded.  Turns are
    decided by the exact :func:`_orientation_sign`, so no tolerance can
    mistake a short or nearly flat hull edge for a straight one and
    drop a vertex.  For fewer than three distinct points the distinct
    points are returned sorted.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half_hull(seq: list[Point]) -> list[Point]:
        hull: list[Point] = []
        for p in seq:
            while len(hull) >= 2:
                if _orientation_sign(hull[-2], hull[-1], p) > 0:
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
