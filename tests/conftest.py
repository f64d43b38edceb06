"""Shared fixtures: canonical small graphs and UDG instances."""

from __future__ import annotations

import pytest

from repro.graphs import Graph, random_connected_udg


@pytest.fixture
def path5() -> Graph[int]:
    """A path 0-1-2-3-4."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star_graph() -> Graph[int]:
    """A star: center 0, leaves 1..5."""
    return Graph(edges=[(0, i) for i in range(1, 6)])


@pytest.fixture
def cycle6() -> Graph[int]:
    """A 6-cycle."""
    return Graph(edges=[(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def complete4() -> Graph[int]:
    """K4."""
    return Graph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def two_triangles_bridge() -> Graph[int]:
    """Two triangles joined by a bridge: {0,1,2} - 2-3 - {3,4,5}."""
    return Graph(
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    )


@pytest.fixture
def small_udg():
    """A connected 20-node random UDG with its points."""
    return random_connected_udg(20, 4.0, seed=42)


@pytest.fixture
def medium_udg():
    """A connected 40-node random UDG with its points."""
    return random_connected_udg(40, 5.5, seed=7)


@pytest.fixture
def chain_udg():
    """The Figure 2 adversarial family: a unit chain of 8 nodes."""
    from repro.graphs import chain_points, unit_disk_graph

    pts = chain_points(8, spacing=1.0)
    return pts, unit_disk_graph(pts)


def make_udg_suite(count: int = 10, n: int = 18, side: float = 3.8):
    """A list of (points, graph) connected UDG instances."""
    return [random_connected_udg(n, side, seed=s) for s in range(count)]


@pytest.fixture(scope="session")
def udg_suite():
    """Ten connected 18-node UDGs, shared across tests for speed."""
    return make_udg_suite()
