"""The vectorized UDG builder must be bit-identical to the grid builder.

``unit_disk_graph_vectorized`` replays the grid builder's exact edge
emission order from numpy-discovered candidate pairs, so the resulting
graphs match *including insertion order* — node order, edge order, and
every per-node adjacency list.  That is the property these tests pin,
as a hypothesis property over arbitrary point clouds plus seeded
uniform deployments.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.graphs.indexed import IndexedGraph
from repro.graphs.udg import (
    GRID_SMALL_N,
    GRID_VECTOR_N,
    unit_disk_graph,
    unit_disk_graph_naive,
    unit_disk_graph_vectorized,
)
from repro.graphs.generators import (
    clustered_points,
    corridor_points,
    uniform_points,
)

coords = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=0, max_size=70, unique=True
)


def assert_same_graph_ordered(a, b):
    """Equality including every insertion order the builders produce."""
    assert list(a.nodes()) == list(b.nodes())
    assert a.edges() == b.edges()
    for v in a.nodes():
        assert a.neighbors(v) == b.neighbors(v)


class TestGridEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(point_lists)
    def test_matches_grid_builder_hypothesis(self, pts):
        grid = unit_disk_graph(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert_same_graph_ordered(grid, vector)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", (1.0, 1.7))
    def test_matches_grid_builder_uniform(self, seed, radius):
        import random

        pts = uniform_points(320, 11.0, random.Random(seed))
        grid = unit_disk_graph(pts, radius=radius)
        vector = unit_disk_graph_vectorized(pts, radius=radius)
        assert_same_graph_ordered(grid, vector)

    def test_exact_boundary_distances(self):
        # Integer grid points sit at exactly radius 1.0 from their
        # axis neighbors: the boundary tolerance must agree everywhere.
        pts = [Point(float(x), float(y)) for x in range(9) for y in range(7)]
        assert len(pts) > GRID_SMALL_N
        grid = unit_disk_graph(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert_same_graph_ordered(grid, vector)
        assert grid.edge_count() == 9 * 6 + 8 * 7  # rook moves only

    def test_matches_naive_builder(self):
        import random

        pts = uniform_points(120, 6.0, random.Random(3))
        naive = unit_disk_graph_naive(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert {frozenset(e) for e in naive.edges()} == {
            frozenset(e) for e in vector.edges()
        }

    def test_counters_match_the_grid_builder(self):
        # pairs_tested is the grid scan's candidate economy, computed
        # from bucket sizes, so the two builders report equal counts.
        from repro.obs import OBS

        pts = uniform_points(200, 8.0, 9)
        counts = {}
        for name, builder in (
            ("grid", unit_disk_graph),
            ("vector", unit_disk_graph_vectorized),
        ):
            with OBS.capture() as reg:
                builder(pts)
                counts[name] = dict(reg.counters())
        assert counts["grid"]["udg.grid.pairs_tested"] > 0
        for counter in ("pairs_tested", "edges_emitted"):
            assert (
                counts["vector"][f"udg.vector.{counter}"]
                == counts["grid"][f"udg.grid.{counter}"]
            )

    def test_default_builder_dispatches_at_vector_n(self, monkeypatch):
        # Above GRID_VECTOR_N, unit_disk_graph IS the vectorized path.
        import repro.graphs.udg as udg

        monkeypatch.setattr(udg, "GRID_VECTOR_N", 64)
        import random

        pts = uniform_points(100, 6.0, random.Random(1))
        assert_same_graph_ordered(
            unit_disk_graph(pts), unit_disk_graph_vectorized(pts)
        )
        assert GRID_VECTOR_N == 20000  # the committed threshold


class TestValidationAndGating:
    def test_duplicate_points_rejected(self):
        pts = [Point(1.0, 2.0), Point(1.0, 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            unit_disk_graph_vectorized(pts)

    def test_empty_and_single(self):
        assert len(unit_disk_graph_vectorized([])) == 0
        g = unit_disk_graph_vectorized([Point(2.0, 3.0)])
        assert list(g.nodes()) == [Point(2.0, 3.0)]
        assert g.edge_count() == 0

    def test_nonpositive_radius(self):
        pts = [Point(0.0, 0.0), Point(0.5, 0.0)]
        g = unit_disk_graph_vectorized(pts, radius=0.0)
        assert g.edge_count() == 0
        assert list(g.nodes()) == pts


#: Deployments at a fixed density of about two points per unit area,
#: so every size has the same per-node degree profile.
DEPLOYMENTS = {
    "uniform": lambda n: uniform_points(n, (n / 2.0) ** 0.5, 5),
    "clustered": lambda n: clustered_points(
        n, (n / 2.0) ** 0.5, max(1, n // 20), spread=1.5, seed=5
    ),
    "corridor": lambda n: corridor_points(n, n / 6.0, 3.0, seed=5),
}


def same_view(a, b):
    """Two kernel views intern the same nodes to the same CSR arrays."""
    assert a.nodes == b.nodes
    assert list(a._ids.items()) == list(b._ids.items())
    assert a.indptr == b.indptr
    assert a.indices == b.indices


class TestSeededView:
    """The builder's CSR rows seed the graph's memoized kernel view."""

    @pytest.mark.parametrize("n", (GRID_SMALL_N, 500, 3000, GRID_VECTOR_N))
    @pytest.mark.parametrize("shape", sorted(DEPLOYMENTS))
    def test_seeded_view_equals_a_fresh_one(self, shape, n):
        pts = DEPLOYMENTS[shape](n)
        graph = unit_disk_graph_vectorized(pts)
        seeded = graph._index
        assert seeded is not None
        assert IndexedGraph.from_graph(graph) is seeded
        # Neighbor ids are the n shared ints of the view, not one fresh
        # int object per adjacency entry.
        assert len({id(i) for i in seeded.indices}) <= n
        graph._index = None
        fresh = IndexedGraph.from_graph(graph)
        assert fresh is not seeded
        same_view(seeded, fresh)
        if n < GRID_VECTOR_N:  # below it, unit_disk_graph is the grid
            assert_same_graph_ordered(unit_disk_graph(pts), graph)


def test_solve_path_never_imports_scipy():
    # The builder is numpy-only: building a 2*10^4-node UDG (the
    # vectorized dispatch) and solving it with both paper algorithms
    # must leave scipy unimported.
    code = textwrap.dedent(
        """
        import sys
        from repro.cds import greedy_connector_cds, waf_cds
        from repro.graphs.generators import uniform_points
        from repro.graphs.traversal import is_connected
        from repro.graphs.udg import unit_disk_graph

        # A connected deployment at the udg100000 fixture density.
        graph = unit_disk_graph(uniform_points(20000, 62.6, 1))
        assert is_connected(graph)
        assert greedy_connector_cds(graph).is_valid(graph)
        assert waf_cds(graph).is_valid(graph)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert out.stdout.strip() == "[]"
