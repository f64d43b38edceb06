"""Random deployment generators.

Every empirical experiment in the reproduction runs over *instance
families*: points scattered in a square (the standard random UDG model),
clustered deployments (sensor clumps), corridors (long thin areas that
stress the connector phase), and unit-spaced chains (the paper's
Figure 2 worst-case family).  All generators take an explicit
``random.Random`` seed so instances are reproducible, and all return
plain point lists — build the topology with
:func:`repro.graphs.unit_disk_graph`.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ..geometry.point import EPS, Point
from ..obs import OBS
from .graph import Graph
from .indexed import IndexedGraph, _neighbor_rows, _spans_all
from .traversal import is_connected  # noqa: F401 - perfbench's traced runs wrap it here
from .udg import (
    GRID_SMALL_N,
    _check_coords,
    _dense_rows,
    _grid_edges,
    _pair_adjacency,
    _udg_graph,
    unit_disk_graph,
)

__all__ = [
    "uniform_points",
    "clustered_points",
    "corridor_points",
    "chain_points",
    "random_connected_udg",
    "largest_component_udg",
]


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _uniform_coords(n: int, side: float, rng: random.Random) -> np.ndarray:
    """The ``(n, 2)`` coordinates of ``n`` points uniform in the ``side x
    side`` square: the one definition of :func:`uniform_points`' stream.

    Point by point, ``x`` then ``y``, each value is ``rng.uniform(0.0,
    side)`` — ``Random.uniform``'s ``a + (b - a) * random()``, applied
    to the whole array at once (IEEE arithmetic, so the same floats).
    """
    random_ = rng.random
    coords = np.array([random_() for _ in range(2 * n)], dtype=np.float64)
    coords *= side - 0.0
    coords += 0.0
    return coords.reshape(-1, 2)


def _points(coords: np.ndarray) -> list[Point]:
    """Points from ``(n, 2)`` coordinates (no per-point temporaries, so
    no extra garbage-collector work)."""
    values = iter(coords.ravel().tolist())
    return [Point(x, y) for x, y in zip(values, values)]


def uniform_points(n: int, side: float, seed: int | random.Random = 0) -> list[Point]:
    """``n`` points uniform in the ``side x side`` square."""
    return _points(_uniform_coords(n, side, _rng(seed)))


def clustered_points(
    n: int,
    side: float,
    clusters: int,
    spread: float = 0.5,
    seed: int | random.Random = 0,
) -> list[Point]:
    """Points around ``clusters`` uniformly placed cluster heads.

    Each point picks a head uniformly and lands at a Gaussian offset
    with standard deviation ``spread``.  Models clumped sensor drops.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    rng = _rng(seed)
    heads = [Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(clusters)]
    pts: list[Point] = []
    for _ in range(n):
        head = rng.choice(heads)
        pts.append(Point(head.x + rng.gauss(0.0, spread), head.y + rng.gauss(0.0, spread)))
    return pts


def corridor_points(
    n: int, length: float, width: float, seed: int | random.Random = 0
) -> list[Point]:
    """Points uniform in a long thin ``length x width`` rectangle.

    With ``width < 1`` the UDG approaches the paper's linear worst case
    (Figure 2), making this the adversarial family for connector counts.
    """
    rng = _rng(seed)
    return [Point(rng.uniform(0.0, length), rng.uniform(0.0, width)) for _ in range(n)]


def chain_points(n: int, spacing: float = 1.0) -> list[Point]:
    """``n`` collinear points with the given consecutive spacing.

    ``spacing = 1`` is exactly the Figure 2 family.
    """
    return [Point(i * spacing, 0.0) for i in range(n)]


#: Below this node count a draw's connectivity test finds its edges with
#: one dense all-pairs distance test
#: (:func:`~repro.graphs.udg._pair_adjacency`); from here up with the
#: grid pair search (:func:`~repro.graphs.udg._grid_edges`).  Measured
#: per draw, whole test included (2-vCPU VM, 2.5 and 3.1 nodes per unit
#: square): dense 0.21-0.23 ms against grid 0.40-0.56 ms at n = 60 and
#: 0.31-0.43 against 0.53-0.69 ms at n = 150; a tie within ±40 % either
#: way at n = 200-300; grid ahead from n = 400 (1.06-1.37 against
#: 1.62-2.83 ms) and 3x ahead at n = 600.  The dense test's O(n²)
#: temporaries stay near 1 MB below the cutoff.
DENSE_TEST_N = 256


def _connected_rows(
    xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The UDG over ``(xs[i], ys[i])`` as ``(indptr, nbr, pairs_tested)``
    CSR rows if it is connected, else ``None`` — without a ``Graph``.

    Rows are in all-pairs emission order (ascending ids) below
    :data:`DENSE_TEST_N` and in the grid builder's from there up.  A
    draw with an isolated node (below the cutoff, also an isolated
    edge) is rejected before any row is built.
    """
    n = xs.size
    if n == 0:
        return None  # the empty graph is not connected
    if n < DENSE_TEST_N:
        adj = _pair_adjacency(xs, ys, 1.0, EPS)
        degree = adj.sum(axis=1)
        if n > 1 and not degree.all():
            return None
        # Two leaves joined to each other: the commonest small component
        # at fixture densities (half the disconnected n = 60 draws that
        # have no isolated node), found without a BFS.
        leaves = np.flatnonzero(degree == 1)
        if n > 2 and (degree[adj[leaves].argmax(axis=1)] == 1).any():
            return None
        indptr, nbr = _dense_rows(adj, degree)
        pairs_tested = n * (n - 1) // 2
    else:
        left, right, pairs_tested = _grid_edges(xs, ys, 1.0, EPS)
        if n > 1 and not (
            np.bincount(left, minlength=n) + np.bincount(right, minlength=n)
        ).all():
            return None
        indptr, nbr = _neighbor_rows(left, right, n)
    if not _spans_all(indptr, nbr):
        return None
    return indptr, nbr, pairs_tested


def random_connected_udg(
    n: int,
    side: float,
    seed: int | random.Random = 0,
    max_attempts: int = 200,
) -> tuple[list[Point], Graph[Point]]:
    """A connected random UDG, by rejection sampling.

    Draws deployments of ``n`` points uniform in the ``side x side``
    square until the UDG is connected.  ``side`` should be modest
    relative to ``sqrt(n)`` or connectivity becomes rare: at the
    benchmark fixture densities a connected deployment takes 48 draws on
    average at ``n = 60, side = 6.2``, 3.7 at ``n = 150, side = 8.0``
    and 2.0 at ``n = 1000, side = 18.0`` (256 seeds each), and a
    ``ValueError`` after ``max_attempts`` failures signals a hopeless
    density rather than looping forever.

    Each draw is validated like every UDG builder's input (non-finite or
    duplicate coordinates raise ``ValueError`` on that draw) and tested
    for connectivity on coordinate arrays.  ``Point`` objects and the
    ``Graph`` are made for the accepted draw only: on a 2-vCPU VM a draw
    costs 0.12 ms on average at ``n = 60`` (0.6-0.7 ms as a full
    ``unit_disk_graph`` build and connectivity test), 0.60 ms at 150
    (1.2-1.4) and 3.2 ms at 1000 (7-10).  The result is what drawing
    ``uniform_points(n, side, rng)`` until
    ``is_connected(unit_disk_graph(pts))`` would return: the same
    points, the same adjacency insertion order and the same ``rng``
    state afterwards.

    When :data:`repro.obs.OBS` is enabled the accepted build reports
    the ``udg.grid.build`` span and ``udg.grid.*`` counters
    ``unit_disk_graph`` would, and the sampler counts
    ``generate.draws`` (deployments drawn) and ``generate.rejected``
    (drawn and not returned: disconnected, or invalid and raised on).
    """
    rng = _rng(seed)
    draws = accepted = 0
    try:
        for _ in range(max_attempts):
            draws += 1
            coords = _uniform_coords(n, side, rng)
            xs, ys = coords[:, 0], coords[:, 1]
            _check_coords(xs, ys)
            rows = _connected_rows(xs, ys)
            if rows is None:
                continue
            pts = _points(coords)
            # The test's rows are the builder's own below GRID_SMALL_N
            # (all-pairs order) and from DENSE_TEST_N up (grid order);
            # in between the builder emits in grid order, so its rows
            # are computed once, for this draw.
            if GRID_SMALL_N <= n < DENSE_TEST_N:
                rows = None
            graph = _udg_graph(pts, xs, ys, rows=rows)
            accepted = 1
            return pts, graph
        raise ValueError(
            f"no connected deployment of {n} nodes in side={side} "
            f"after {max_attempts} tries"
        )
    finally:
        if OBS.enabled:
            OBS.incr("generate.draws", draws)
            OBS.incr("generate.rejected", draws - accepted)


def largest_component_udg(
    points: Sequence[Point],
) -> tuple[list[Point], Graph[Point]]:
    """Restrict a deployment to its largest connected UDG component.

    The alternative to rejection sampling for sparse deployments: keep
    the giant component, as the empirical UDG literature convention.
    """
    graph = unit_disk_graph(points)
    view = IndexedGraph.from_graph(graph)
    comps = view.connected_components()
    if not comps:
        return [], Graph()
    biggest = set(map(view.node_at, max(comps, key=len)))
    kept = [p for p in points if p in biggest]
    return kept, graph.subgraph(kept)
