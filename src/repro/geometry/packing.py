"""Independent-point packings.

A finite planar set is *independent* (Section I of the paper) when all
pairwise distances are strictly greater than one.  The paper's central
quantities are packing numbers: how many independent points fit in a
unit disk (5), in the symmetric difference of two overlapping disks
(Lemma 1: 7), in the neighborhood of an n-star (Theorem 3: ``phi_n``),
and in a radius-2 disk (Wegner's theorem: 21).

This module provides the independence predicate, greedy and exact
maximum packings over finite candidate sets, candidate generators used
by the empirical theorem checkers, and the ``phi_n`` formula itself.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .point import EPS, Point
from .disks import in_disk, in_neighborhood

__all__ = [
    "WEGNER_RADIUS2_CAPACITY",
    "is_independent",
    "phi",
    "greedy_independent_subset",
    "max_independent_subset",
    "max_independent_subset_size",
    "grid_candidates",
    "disk_candidates",
    "neighborhood_candidates",
]

#: Wegner's theorem [11]: a disk of radius two contains at most 21 points
#: with pairwise distances >= 1.  Theorem 3 uses it for the ``n >= 6`` cap.
WEGNER_RADIUS2_CAPACITY: int = 21


def is_independent(points: Sequence[Point], tol: float = EPS) -> bool:
    """Whether all pairwise distances exceed one.

    ``tol`` guards against floating-point noise: a pair at distance
    ``1 + tol/2`` is *not* counted as independent.  The paper's
    constructions are built with margins of about ``1e-5``, far above
    the default tolerance.
    """
    threshold_sq = (1.0 + tol) * (1.0 + tol)
    for i in range(len(points)):
        pi = points[i]
        for j in range(i + 1, len(points)):
            pj = points[j]
            dx, dy = pi.x - pj.x, pi.y - pj.y
            if dx * dx + dy * dy <= threshold_sq:
                return False
    return True


def phi(n: int) -> int:
    """The packing bound ``phi_n`` of Theorem 3.

    ``phi_n = 3n + 2`` for ``n <= 2`` and ``min(3n + 3, 21)`` for
    ``n >= 3``: the largest number of independent points that can lie in
    the neighborhood of an n-star.
    """
    if n < 1:
        raise ValueError(f"phi_n is defined for n >= 1, got {n}")
    if n <= 2:
        return 3 * n + 2
    return min(3 * n + 3, 21)


def greedy_independent_subset(
    candidates: Sequence[Point],
    tol: float = EPS,
    key: Callable[[Point], float] | None = None,
) -> list[Point]:
    """A maximal independent subset of ``candidates``, greedily.

    Candidates are scanned in ``key`` order (default: lexicographic) and
    kept whenever they stay at distance > 1 from everything already
    kept.  This is the workhorse of the empirical bound checkers: it
    produces large-but-not-necessarily-maximum packings cheaply.
    """
    ordered = sorted(candidates, key=key) if key is not None else sorted(candidates)
    chosen: list[Point] = []
    threshold_sq = (1.0 + tol) * (1.0 + tol)
    for p in ordered:
        ok = True
        for q in chosen:
            dx, dy = p.x - q.x, p.y - q.y
            if dx * dx + dy * dy <= threshold_sq:
                ok = False
                break
        if ok:
            chosen.append(p)
    return chosen


def max_independent_subset(
    candidates: Sequence[Point], tol: float = EPS, limit: int | None = None
) -> list[Point]:
    """A maximum independent subset of a finite candidate set.

    Branch and bound over the *conflict graph* (vertices = candidates,
    edges = pairs at distance <= 1).  Exponential in the worst case;
    intended for the candidate sets the theorem checkers build
    (tens of points).  ``limit`` optionally caps the search: once a
    packing of that size is found it is returned immediately.
    """
    pts = list(candidates)
    n = len(pts)
    threshold_sq = (1.0 + tol) * (1.0 + tol)
    conflict: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[i].x - pts[j].x
            dy = pts[i].y - pts[j].y
            if dx * dx + dy * dy <= threshold_sq:
                conflict[i].add(j)
                conflict[j].add(i)

    best: list[int] = []
    # Order vertices by degree (fewest conflicts first) for better bounds.
    order = sorted(range(n), key=lambda i: len(conflict[i]))
    rank = {v: r for r, v in enumerate(order)}

    def expand(chosen: list[int], allowed: list[int]) -> None:
        nonlocal best
        if limit is not None and len(best) >= limit:
            return
        if len(chosen) + len(allowed) <= len(best):
            return
        if not allowed:
            if len(chosen) > len(best):
                best = chosen[:]
            return
        v = allowed[0]
        rest = allowed[1:]
        # Branch 1: take v.
        expand(chosen + [v], [u for u in rest if u not in conflict[v]])
        # Branch 2: skip v.
        expand(chosen, rest)

    expand([], sorted(range(n), key=lambda i: rank[i]))
    return [pts[i] for i in best]


def max_independent_subset_size(
    candidates: Sequence[Point], tol: float = EPS
) -> int:
    """Size of a maximum independent subset of ``candidates``."""
    return len(max_independent_subset(candidates, tol))


def grid_candidates(
    min_x: float, max_x: float, min_y: float, max_y: float, step: float
) -> list[Point]:
    """A regular grid of candidate points over a bounding box."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    nx = int(math.floor((max_x - min_x) / step)) + 1
    ny = int(math.floor((max_y - min_y) / step)) + 1
    return [
        Point(min_x + i * step, min_y + j * step)
        for i in range(nx)
        for j in range(ny)
    ]


def disk_candidates(center: Point, radius: float, step: float) -> list[Point]:
    """Grid candidates restricted to a closed disk."""
    box = grid_candidates(
        center.x - radius, center.x + radius, center.y - radius, center.y + radius, step
    )
    return [p for p in box if in_disk(p, center, radius)]


def neighborhood_candidates(
    centers: Sequence[Point], step: float, radius: float = 1.0
) -> list[Point]:
    """Grid candidates restricted to the neighborhood ``∪ D_u``.

    The empirical Theorem 3 / Theorem 6 checks pack independent points
    from this candidate set and compare the count against ``phi_n`` and
    ``11n/3 + 1``.
    """
    if not centers:
        return []
    min_x = min(c.x for c in centers) - radius
    max_x = max(c.x for c in centers) + radius
    min_y = min(c.y for c in centers) - radius
    max_y = max(c.y for c in centers) + radius
    box = grid_candidates(min_x, max_x, min_y, max_y, step)
    return [p for p in box if in_neighborhood(p, centers, radius)]
