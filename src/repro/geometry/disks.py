"""Unit disks, circles, and their intersections.

The paper's notation: ``D_u`` is the unit disk centered at ``u`` and
``∂D_u`` its boundary circle.  The *neighborhood* of a point set ``S``
is ``∪_{u in S} D_u`` — the region whose independent-point capacity
Theorems 3 and 6 bound.  This module provides disk membership tests,
circle–circle intersection (used pervasively in the appendix, e.g.
``∂D_o ∩ ∂D_u = {a, a'}``), and neighborhood membership/area helpers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .point import EPS, Point

__all__ = [
    "in_disk",
    "in_neighborhood",
    "circle_circle_intersection",
    "disk_union_area",
    "disk_union_area_grid",
    "points_in_neighborhood",
]


def in_disk(p: Point, center: Point, radius: float = 1.0, tol: float = EPS) -> bool:
    """Whether ``p`` lies in the closed disk of ``radius`` around ``center``."""
    return center.distance_to(p) <= radius + tol


def in_neighborhood(
    p: Point, centers: Iterable[Point], radius: float = 1.0, tol: float = EPS
) -> bool:
    """Whether ``p`` lies in the neighborhood ``∪ D_u`` of ``centers``."""
    return any(in_disk(p, c, radius, tol) for c in centers)


def points_in_neighborhood(
    points: Iterable[Point],
    centers: Sequence[Point],
    radius: float = 1.0,
    tol: float = EPS,
) -> list[Point]:
    """The sublist of ``points`` lying in the neighborhood of ``centers``.

    This is exactly ``I(U) = ∪_{u in U} (I ∩ D_u)`` from Section II when
    ``points`` is an independent set ``I``.
    """
    return [p for p in points if in_neighborhood(p, centers, radius, tol)]


def circle_circle_intersection(
    c1: Point, r1: float, c2: Point, r2: float, tol: float = EPS
) -> list[Point]:
    """Intersection points of two circles.

    Returns zero, one (tangency) or two points.  When two points are
    returned, the first lies on the left side of the directed line
    ``c1 -> c2`` (positive cross product), matching the appendix's
    convention of naming ``a`` the intersection *above* the segment
    ``ou`` and ``a'`` the one below.

    Coincident circles raise ``ValueError`` (infinitely many points).
    """
    d = c1.distance_to(c2)
    if d <= tol:
        if abs(r1 - r2) <= tol:
            raise ValueError("coincident circles intersect everywhere")
        return []
    if d > r1 + r2 + tol or d < abs(r1 - r2) - tol:
        return []
    # Distance from c1 to the foot of the chord along c1->c2.
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    if h_sq < 0.0:
        h_sq = 0.0
    h = math.sqrt(h_sq)
    direction = (c2 - c1) / d
    foot = c1 + direction * a
    if h <= tol:
        return [foot]
    offset = direction.perpendicular() * h
    return [foot + offset, foot - offset]


def disk_union_area(
    centers: Sequence[Point], radius: float = 1.0, resolution: int = 600
) -> float:
    """Monte-Carlo-free area of ``∪ D_u`` by uniform grid integration.

    Deterministic midpoint-rule rasterization over the bounding box.
    Accuracy is ``O(perimeter / resolution)``; with the default
    resolution the relative error on paper-scale instances is below
    one percent, good enough for the Section V area-argument
    experiments (which compare areas across instance families, not
    absolute constants).
    """
    return disk_union_area_grid(centers, radius, resolution)


def disk_union_area_grid(
    centers: Sequence[Point], radius: float, resolution: int
) -> float:
    if not centers:
        return 0.0
    min_x = min(c.x for c in centers) - radius
    max_x = max(c.x for c in centers) + radius
    min_y = min(c.y for c in centers) - radius
    max_y = max(c.y for c in centers) + radius
    width, height = max_x - min_x, max_y - min_y
    if width <= 0.0 or height <= 0.0:
        return 0.0
    step = max(width, height) / resolution
    nx = max(1, int(math.ceil(width / step)))
    ny = max(1, int(math.ceil(height / step)))
    r_sq = radius * radius
    cell = step * step
    covered = 0
    # Bucket centers into coarse rows to skip distance tests cheaply.
    for iy in range(ny):
        y = min_y + (iy + 0.5) * step
        row = [c for c in centers if abs(c.y - y) <= radius]
        if not row:
            continue
        for ix in range(nx):
            x = min_x + (ix + 0.5) * step
            for c in row:
                dx = c.x - x
                dy = c.y - y
                if dx * dx + dy * dy <= r_sq:
                    covered += 1
                    break
    return covered * cell
