"""Arcs and arc-polygons.

The appendix of the paper reasons about *arc-polygons*: bounded regions
surrounded by minor unit-arcs and line segments (e.g. the arc triangles
``a p1 s1`` in the proof of Lemma 1, each of which contains exactly one
independent point).  The structural fact the proofs rely on is:

    the diameter of an arc-polygon is at most one if and only if the
    diameter of its vertex set is at most one.

This module provides arc primitives (minor classification, point
sampling, membership) and the vertex-diameter test for arc-polygons,
which the lemma-checking tests exercise numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .point import EPS, Point
from .predicates import diameter

__all__ = [
    "Arc",
    "ArcPolygon",
    "arc_between",
    "chord_length",
]


def _normalize_angle(theta: float) -> float:
    """Map an angle into ``[0, 2*pi)``."""
    two_pi = 2.0 * math.pi
    theta = math.fmod(theta, two_pi)
    if theta < 0.0:
        theta += two_pi
    return theta


@dataclass(frozen=True, slots=True)
class Arc:
    """A circular arc swept counterclockwise from ``start`` to ``end``.

    ``start`` and ``end`` are polar angles on the circle of ``radius``
    around ``center``.  The sweep is always counterclockwise; a clockwise
    arc is represented by swapping the endpoints.
    """

    center: Point
    radius: float
    start: float
    end: float

    def measure(self) -> float:
        """Arc measure in radians, in ``[0, 2*pi)``."""
        return _normalize_angle(self.end - self.start)

    def is_minor(self, tol: float = EPS) -> bool:
        """Whether the arc measures at most 180 degrees."""
        return self.measure() <= math.pi + tol

    def point_at(self, fraction: float) -> Point:
        """The point a given fraction of the way along the arc."""
        theta = self.start + fraction * self.measure()
        return Point(
            self.center.x + self.radius * math.cos(theta),
            self.center.y + self.radius * math.sin(theta),
        )

    def sample(self, count: int) -> list[Point]:
        """``count`` points evenly spaced along the arc (inclusive ends)."""
        if count < 2:
            return [self.point_at(0.0)] if count == 1 else []
        return [self.point_at(i / (count - 1)) for i in range(count)]

    def evenly_interior(self, count: int) -> list[Point]:
        """``count`` points splitting the arc into ``count + 1`` equal parts.

        This realizes the paper's phrase "the two points evenly on the
        major arc between p1 and p2" (Section V, Figure 1 construction).
        """
        return [self.point_at(i / (count + 1)) for i in range(1, count + 1)]


def arc_between(center: Point, radius: float, a: Point, b: Point, minor: bool = True) -> Arc:
    """The arc of the circle through ``a`` and ``b``.

    ``a`` and ``b`` must lie (approximately) on the circle.  With
    ``minor=True`` the shorter arc is returned, otherwise the longer.
    """
    for p in (a, b):
        if abs(center.distance_to(p) - radius) > 1e-6:
            raise ValueError(f"point {p} is not on the circle (r={radius})")
    theta_a = center.angle_to(a)
    theta_b = center.angle_to(b)
    ccw = Arc(center, radius, theta_a, theta_b)
    cw = Arc(center, radius, theta_b, theta_a)
    short, long_ = (ccw, cw) if ccw.measure() <= cw.measure() else (cw, ccw)
    return short if minor else long_


def chord_length(radius: float, arc_measure: float) -> float:
    """Chord subtending an arc of the given measure: ``2 r sin(m/2)``.

    The proofs use this constantly: two points on a unit circle are at
    distance > 1 exactly when their angular gap exceeds 60 degrees.
    """
    return 2.0 * radius * math.sin(arc_measure / 2.0)


@dataclass(frozen=True)
class ArcPolygon:
    """A region bounded by minor unit-arcs and straight segments.

    Represented by its vertex cycle plus, for each edge, either ``None``
    (straight segment) or the :class:`Arc` realizing it.  Only the
    diameter machinery needed by the lemma checkers is implemented.
    """

    vertices: tuple[Point, ...]
    edges: tuple[Arc | None, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges):
            raise ValueError("one edge per vertex (edge i runs from vertex i)")
        for arc in self.edges:
            if arc is not None and not arc.is_minor(tol=1e-6):
                raise ValueError("arc-polygon boundary arcs must be minor arcs")

    def vertex_diameter(self) -> float:
        """Diameter of the vertex set."""
        return diameter(self.vertices)

    def boundary_sample(self, per_edge: int = 32) -> list[Point]:
        """Points along the whole boundary (vertices plus arc samples)."""
        pts: list[Point] = list(self.vertices)
        for arc in self.edges:
            if arc is not None:
                pts.extend(arc.evenly_interior(per_edge))
        return pts

    def boundary_diameter(self, per_edge: int = 32) -> float:
        """Approximate diameter of the full boundary.

        By the appendix's observation this equals the vertex diameter
        whenever the vertex diameter is at most one; the sampled value
        lets tests confirm that equivalence numerically.
        """
        return diameter(self.boundary_sample(per_edge))

    def has_unit_diameter(self, tol: float = EPS) -> bool:
        """Whether the region's diameter is at most one.

        Uses the vertex-set criterion from the appendix.
        """
        return self.vertex_diameter() <= 1.0 + tol
