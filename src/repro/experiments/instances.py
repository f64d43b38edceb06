"""Shared instance families for the experiments.

One place defining the deployments every experiment samples from, so
tables across experiments are comparable: uniform squares at a range of
densities, connected random *planar sets* (for the packing theorems,
which are about point sets rather than graphs), random stars, and the
integer relabeling the distributed protocols want.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..geometry.point import Point
from ..graphs.graph import Graph
from ..graphs.generators import random_connected_udg

__all__ = [
    "default_side",
    "connected_udg_instances",
    "connected_planar_sets",
    "random_star",
    "int_labeled",
]


def default_side(n: int, mean_degree: float = 5.5) -> float:
    """Square side giving roughly ``mean_degree`` UDG neighbors per node.

    For n uniform points in a side-s square the expected degree is about
    ``pi * n / s**2``; this solves it for ``s``.  A fixed mean degree is
    not a fixed chance of connectivity: the chance that some node is
    isolated grows with ``n``, so rejection sampling slows as ``n``
    grows.  Measured with :func:`random_connected_udg` at the default
    ``max_attempts=200`` over seeds 0-99: 2.1 draws per call at n = 10,
    4.4 at 20, 7.2 at 40, 15.6 at 60 and 32.9 at 100, none giving up;
    98.5 at n = 150, where 16 of the 100 seeds give up, and 79 of 100
    give up at n = 300.
    """
    return max(1.5, (3.141592653589793 * n / mean_degree) ** 0.5)


def connected_udg_instances(
    n: int, side: float, seeds: range
) -> Iterator[tuple[list[Point], Graph[Point]]]:
    """One connected uniform-square UDG per seed."""
    for seed in seeds:
        yield random_connected_udg(n, side, seed=seed)


def connected_planar_sets(
    n: int, side: float, seeds: range, max_attempts: int = 400
) -> Iterator[list[Point]]:
    """Connected planar point sets (for Theorem 6 style packing)."""
    for seed in seeds:
        pts, _ = random_connected_udg(n, side, seed=seed, max_attempts=max_attempts)
        yield pts


def random_star(n: int, seed: int) -> list[Point]:
    """A random n-star: a center plus ``n - 1`` points within its disk."""
    rng = random.Random(seed)
    center = Point(0.0, 0.0)
    pts = [center]
    while len(pts) < n:
        candidate = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if candidate.norm() <= 1.0:
            pts.append(candidate)
    return pts


def int_labeled(graph: Graph[Point]) -> Graph[int]:
    """Relabel a point graph with integer ids (sorted by coordinates).

    The distributed protocols want orderable, compact ids; this is
    :func:`repro.distributed.solvers.int_relabeled` without the map
    back.
    """
    from ..distributed.solvers import int_relabeled

    return int_relabeled(graph)[0]
