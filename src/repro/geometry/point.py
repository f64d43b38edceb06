"""Planar points and elementary vector operations.

The whole reproduction works in the Euclidean plane: nodes of a wireless
ad hoc network are points, the communication topology is the unit-disk
graph over them, and the paper's packing arguments (Theorems 3 and 6)
are statements about how many pairwise-far points fit inside unions of
unit disks.  :class:`Point` is the single currency every other module
trades in.

Points are immutable, hashable and ordered lexicographically, so they can
be graph nodes, dict keys and members of sorted structures without any
wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "EPS",
    "Point",
    "distance",
    "pairwise_distances",
    "min_pairwise_distance",
    "max_pairwise_distance",
]

#: Default absolute tolerance for geometric comparisons.  The paper's
#: constructions place points *exactly* at unit distance (e.g. the collinear
#: chain of Figure 2), so strict predicates are evaluated with this slack.
EPS: float = 1e-9


@dataclass(frozen=True, init=False)
class Point:
    """An immutable point in the plane.

    Supports vector arithmetic (``+``, ``-``, scalar ``*`` / ``/``,
    unary ``-``) because the paper's tightness constructions are most
    naturally expressed with reflections and translations
    (e.g. ``v2 = -v1`` in Figure 1).

    Slotted (no per-instance ``__dict__``) and hashed at construction:
    points are the hot per-node object — a 10k-node deployment hashes
    every point hundreds of times across UDG bucketing, graph interning
    and CDS set algebra, so ``__init__`` (and ``__setstate__``) store
    the field-tuple hash ``hash((x, y))`` in a slot and ``__hash__``
    only reads it.  The lexicographic ordering is likewise hand-written
    (same semantics ``dataclass(order=True)`` would generate, minus its
    two tuple allocations per comparison) — value-sorting all nodes is
    on the solver hot path.
    """

    __slots__ = ("x", "y", "_hashval")

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, x)
        _set_y(self, y)
        _set_hashval(self, hash((x, y)))

    def __hash__(self) -> int:
        return self._hashval

    # -- lexicographic order (by (x, y), Points only) ----------------------

    def __lt__(self, other: "Point") -> bool:
        if other.__class__ is Point:
            sx, ox = self.x, other.x
            if sx != ox:
                return sx < ox
            return self.y < other.y
        return NotImplemented

    def __le__(self, other: "Point") -> bool:
        if other.__class__ is Point:
            sx, ox = self.x, other.x
            if sx != ox:
                return sx < ox
            return self.y <= other.y
        return NotImplemented

    def __gt__(self, other: "Point") -> bool:
        if other.__class__ is Point:
            sx, ox = self.x, other.x
            if sx != ox:
                return sx > ox
            return self.y > other.y
        return NotImplemented

    def __ge__(self, other: "Point") -> bool:
        if other.__class__ is Point:
            sx, ox = self.x, other.x
            if sx != ox:
                return sx > ox
            return self.y >= other.y
        return NotImplemented

    # Manual __slots__ breaks default pickling of frozen instances
    # (setstate would hit the frozen __setattr__); state is the fields
    # only, so pickled bytes carry no hash and unpickling recomputes it.

    def __getstate__(self):
        return (self.x, self.y)

    def __setstate__(self, state):
        Point.__init__(self, *state)

    # -- vector arithmetic -------------------------------------------------

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # -- metric helpers ----------------------------------------------------

    def dot(self, other: "Point") -> float:
        """Dot product, treating both points as vectors from the origin."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of the vector from the origin."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises:
            ZeroDivisionError: if this is the zero vector.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)

    def perpendicular(self) -> "Point":
        """The vector rotated 90 degrees counterclockwise."""
        return Point(-self.y, self.x)

    def angle(self) -> float:
        """Polar angle of the vector from the origin, in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def angle_to(self, other: "Point") -> float:
        """Polar angle of the vector from ``self`` to ``other``."""
        return math.atan2(other.y - self.y, other.x - self.x)

    # -- misc ---------------------------------------------------------------

    @staticmethod
    def polar(radius: float, angle: float) -> "Point":
        """The point at the given polar coordinates around the origin."""
        return Point(radius * math.cos(angle), radius * math.sin(angle))


# The slot descriptors' setters get past the frozen ``__setattr__`` as
# ``object.__setattr__`` does, minus its by-name lookup: a quarter less
# per construction, and every deployment builds its points one by one.
_set_x = Point.x.__set__
_set_y = Point.y.__set__
_set_hashval = Point._hashval.__set__


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def pairwise_distances(points: Sequence[Point]) -> Iterator[float]:
    """Yield the distance of every unordered pair of distinct indices."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            yield points[i].distance_to(points[j])


def min_pairwise_distance(points: Sequence[Point]) -> float:
    """Smallest pairwise distance; ``inf`` for fewer than two points."""
    return min(pairwise_distances(points), default=math.inf)


def max_pairwise_distance(points: Sequence[Point]) -> float:
    """Largest pairwise distance (the *diameter*); 0 for < 2 points."""
    return max(pairwise_distances(points), default=0.0)
