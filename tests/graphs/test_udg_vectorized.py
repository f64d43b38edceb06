"""``unit_disk_graph`` must be bit-identical to the interpreted grid scan.

The builder tests pairs on coordinate arrays, but it emits every edge
in the order an interpreted bucket loop would: all pairs below 32
nodes, the grid scan from there up.  :func:`grid_oracle` is that loop,
with its own copy of the scan directions and of the all-pairs cutoff,
so a change to either in the builder shows up here as a different node
order, edge order or per-node adjacency list.  The suites below pin
the equivalence as a hypothesis property over arbitrary point clouds
and lattice subsets (exact-boundary distances) plus seeded deployments
in every size band.
"""

import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.geometry.point import EPS
from repro.graphs import udg
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.graphs.udg import (
    GRID_SMALL_N,
    _coords,
    _grid_edges,
    unit_disk_graph,
    unit_disk_graph_naive,
)
from repro.graphs.generators import (
    clustered_points,
    corridor_points,
    uniform_points,
)

#: The oracle's all-pairs cutoff and half-neighborhood scan directions:
#: copies, not imports, of the builder's constants.
ORACLE_SMALL_N = 32
ORACLE_DIRECTIONS = ((1, -1), (1, 0), (1, 1), (0, 1))

#: One radius of every kind: none, the paper's, a non-integer one, and
#: one much larger than the deployments' spacing (few, huge buckets).
RADII = (0.0, 1.0, 1.7, 40.0)


def grid_oracle(pts, radius=1.0, tol=EPS):
    """The UDG by the interpreted bucket loop, and its ``pairs_tested``.

    Buckets of side ``radius``, visited in first-appearance order; each
    bucket's own pairs, then its product with each existing neighbor in
    :data:`ORACLE_DIRECTIONS`.  Below :data:`ORACLE_SMALL_N` nodes, all
    pairs in index order instead.  No input validation.
    """
    graph = Graph(nodes=pts)
    if radius <= 0.0:
        return graph, 0
    r_sq = (radius + tol) * (radius + tol)
    n = len(pts)
    add_edge = graph.add_edge
    if n < ORACLE_SMALL_N:
        for i in range(n - 1):
            pi = pts[i]
            for j in range(i + 1, n):
                pj = pts[j]
                dx, dy = pi.x - pj.x, pi.y - pj.y
                if dx * dx + dy * dy <= r_sq:
                    add_edge(pi, pj)
        return graph, n * (n - 1) // 2
    pairs_tested = 0
    floor = math.floor
    buckets = {}
    setdefault = buckets.setdefault
    for p in pts:
        setdefault(
            (int(floor(p.x / radius)), int(floor(p.y / radius))), []
        ).append(p)
    bucket_get = buckets.get
    for (bx, by), cell in buckets.items():
        # Within-cell pairs.
        m = len(cell)
        pairs_tested += m * (m - 1) // 2
        for i in range(m - 1):
            pi = cell[i]
            pix, piy = pi.x, pi.y
            for j in range(i + 1, m):
                pj = cell[j]
                dx, dy = pix - pj.x, piy - pj.y
                if dx * dx + dy * dy <= r_sq:
                    add_edge(pi, pj)
        # Cross-cell pairs: scan half the neighbors to visit each
        # unordered cell pair once.
        for ox, oy in ORACLE_DIRECTIONS:
            other = bucket_get((bx + ox, by + oy))
            if not other:
                continue
            pairs_tested += m * len(other)
            for p in cell:
                px, py = p.x, p.y
                for q in other:
                    dx, dy = px - q.x, py - q.y
                    if dx * dx + dy * dy <= r_sq:
                        add_edge(p, q)
    return graph, pairs_tested


def assert_same_graph_ordered(a, b):
    """Equality including every insertion order the builders produce."""
    assert list(a.nodes()) == list(b.nodes())
    assert a.edges() == b.edges()
    for v in a.nodes():
        assert a.neighbors(v) == b.neighbors(v)


def assert_matches_oracle(pts, radius=1.0):
    expected, _ = grid_oracle(pts, radius)
    assert_same_graph_ordered(unit_disk_graph(pts, radius=radius), expected)


coords = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=0, max_size=70, unique=True
)


@st.composite
def lattice_subsets(draw):
    """Distinct points of the 0.5-spaced lattice, so many pairs sit at
    exactly the radius: any size band, including n >= 256."""
    n = draw(
        st.one_of(
            st.integers(0, ORACLE_SMALL_N - 1),
            st.integers(ORACLE_SMALL_N, 255),
            st.integers(256, 600),
        )
    )
    side = draw(st.integers(max(1, math.isqrt(n)), 40))
    cells = [(x, y) for x in range(2 * side + 1) for y in range(2 * side + 1)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chosen = rng.sample(cells, min(n, len(cells)))
    return [Point(x / 2.0, y / 2.0) for x, y in chosen]


class TestGridEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(point_lists, st.sampled_from(RADII))
    def test_matches_grid_builder_hypothesis(self, pts, radius):
        assert_matches_oracle(pts, radius)

    @settings(max_examples=40, deadline=None)
    @given(lattice_subsets(), st.sampled_from(RADII))
    def test_matches_grid_builder_on_lattice_subsets(self, pts, radius):
        assert_matches_oracle(pts, radius)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", (1.0, 1.7))
    def test_matches_grid_builder_uniform(self, seed, radius):
        pts = uniform_points(320, 11.0, random.Random(seed))
        assert_matches_oracle(pts, radius)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize(
        "n", (0, 1, 2, 31, 32, 33, 100, 255, 256, 257, 1000)
    )
    def test_matches_grid_builder_in_every_size_band(self, n, radius):
        # Scaled with the radius, so radius 40 keeps a sparse graph.
        side = max(1.0, (n / 3.0) ** 0.5) * max(1.0, radius)
        assert_matches_oracle(uniform_points(n, side, n), radius)
        assert_matches_oracle(
            clustered_points(n, side, max(1, n // 25), 0.6, n), radius
        )

    def test_exact_boundary_distances(self):
        # Integer grid points sit at exactly radius 1.0 from their
        # axis neighbors: the boundary tolerance must agree everywhere.
        pts = [Point(float(x), float(y)) for x in range(9) for y in range(7)]
        assert len(pts) > GRID_SMALL_N
        graph = unit_disk_graph(pts)
        assert_same_graph_ordered(graph, grid_oracle(pts)[0])
        assert graph.edge_count() == 9 * 6 + 8 * 7  # rook moves only

    def test_matches_naive_builder(self):
        pts = uniform_points(120, 6.0, random.Random(3))
        naive = unit_disk_graph_naive(pts)
        graph = unit_disk_graph(pts)
        assert {frozenset(e) for e in naive.edges()} == {
            frozenset(e) for e in graph.edges()
        }

    def test_counters_match_the_grid_builder(self):
        # pairs_tested is the grid scan's candidate economy, computed
        # from bucket sizes, so it equals the interpreted scan's count.
        from repro.obs import OBS

        pts = uniform_points(200, 8.0, 9)
        expected, pairs_tested = grid_oracle(pts)
        with OBS.capture() as reg:
            unit_disk_graph(pts)
            counters = dict(reg.counters())
        assert 0 < pairs_tested < 200 * 199 // 2
        assert counters["udg.grid.pairs_tested"] == pairs_tested
        assert counters["udg.grid.edges_emitted"] == expected.edge_count()


class TestValidationAndGating:
    def test_duplicate_points_rejected(self):
        pts = [Point(1.0, 2.0), Point(1.0, 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            unit_disk_graph(pts)

    def test_empty_and_single(self):
        assert len(unit_disk_graph([])) == 0
        g = unit_disk_graph([Point(2.0, 3.0)])
        assert list(g.nodes()) == [Point(2.0, 3.0)]
        assert g.edge_count() == 0

    def test_nonpositive_radius(self):
        pts = [Point(0.0, 0.0), Point(0.5, 0.0)]
        g = unit_disk_graph(pts, radius=0.0)
        assert g.edge_count() == 0
        assert list(g.nodes()) == pts


def assert_budgets_agree(pts, monkeypatch):
    """The chunked pair search returns the one-chunk ``(left, right,
    pairs_tested)`` under budgets down to one candidate per chunk."""
    xs, ys = _coords(pts)
    monkeypatch.setattr(udg, "GRID_CHUNK_PAIRS", 1 << 62)
    left, right, pairs_tested = _grid_edges(xs, ys, 1.0, EPS)
    for budget in (1, 7, 64):
        monkeypatch.setattr(udg, "GRID_CHUNK_PAIRS", budget)
        got_left, got_right, got_tested = _grid_edges(xs, ys, 1.0, EPS)
        assert got_left.tolist() == left.tolist()
        assert got_right.tolist() == right.tolist()
        assert got_tested == pairs_tested


class TestChunkedPairSearch:
    """The grid pair search expands candidates a bounded chunk at a time."""

    @pytest.mark.parametrize("n", (32, 33, 60, 150, 1000, 3000))
    def test_any_budget_gives_the_one_chunk_result(self, n, monkeypatch):
        assert_budgets_agree(uniform_points(n, (n / 2.5) ** 0.5, n), monkeypatch)

    def test_a_bucket_pair_above_the_budget(self, monkeypatch):
        # One dense cluster: a single bucket holds several hundred
        # points, so its own pairs alone exceed the default budget.
        pts = clustered_points(400, 10.0, 1, spread=0.3, seed=1)
        cells = Counter((math.floor(p.x), math.floor(p.y)) for p in pts)
        assert max(cells.values()) ** 2 > udg.GRID_CHUNK_PAIRS
        assert_matches_oracle(pts)
        assert_budgets_agree(pts, monkeypatch)

    def test_build_peak_stays_bounded(self):
        # One unchunked batch peaked at 42.3 MiB here; chunked, 15.1.
        pts = uniform_points(20000, 62.6, 7)
        tracemalloc.start()
        try:
            unit_disk_graph(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


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

    @pytest.mark.parametrize("n", (GRID_SMALL_N, 500, 3000, 20000))
    @pytest.mark.parametrize("shape", sorted(DEPLOYMENTS))
    def test_seeded_view_equals_a_fresh_one(self, shape, n):
        pts = DEPLOYMENTS[shape](n)
        graph = unit_disk_graph(pts)
        seeded = graph._index
        assert seeded is not None
        assert IndexedGraph.from_graph(graph) is seeded
        # Neighbor ids are the n shared ints of the view, not one fresh
        # int object per adjacency entry.
        assert len({id(i) for i in seeded.indices}) <= n
        # The graph has no adjacency dicts of its own to intern; a copy
        # builds them from the view and carries no memo.
        fresh = IndexedGraph.from_graph(graph.copy())
        assert fresh is not seeded
        same_view(seeded, fresh)
        assert_same_graph_ordered(graph, grid_oracle(pts)[0])


def test_solve_path_never_imports_scipy():
    # The builder is numpy-only: building a 2*10^4-node UDG and solving
    # it with both paper algorithms must leave scipy unimported.
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


@pytest.fixture
def count_dict_builds(monkeypatch):
    """Count every build of a graph's adjacency dicts from its view."""
    import repro.graphs.graph as graph_module

    calls = []
    build = graph_module._adjacency

    def counting(view):
        calls.append(len(view))
        return build(view)

    monkeypatch.setattr(graph_module, "_adjacency", counting)
    return calls


class TestSolvePathBuildsNoDicts:
    """Solves, sweep cells and protocol runs read only the UDG's view:
    none of them builds its adjacency dicts."""

    @pytest.mark.parametrize("algorithm", ("greedy", "waf"))
    def test_cli_solve(self, algorithm, tmp_path, capsys, count_dict_builds):
        from repro.cli import main
        from repro.graphs import random_connected_udg
        from repro.io import save_points

        pts, _ = random_connected_udg(3000, 20.0, seed=1)
        csv = tmp_path / "deploy.csv"
        save_points(pts, csv)
        argv = ["solve", str(csv), "--algorithm", algorithm,
                "--out", str(tmp_path / "result.json"),
                "--stats-out", str(tmp_path / "rec.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "rec.json").exists()
        assert count_dict_builds == []

    @pytest.mark.parametrize("algorithm", ("greedy", "waf"))
    def test_solve_cell(self, algorithm, count_dict_builds):
        from repro.experiments.parallel import SweepCell, solve_cell

        summary = solve_cell(SweepCell(150, 8.0, 3), algorithm)
        assert summary["cds_size"] > 0
        assert count_dict_builds == []

    def test_distributed_protocols(self, count_dict_builds):
        from repro.distributed.cds_protocol import (
            distributed_greedy_cds,
            distributed_waf_cds,
        )
        from repro.graphs import random_connected_udg

        _, graph = random_connected_udg(60, 6.0, seed=5)
        for protocol in (distributed_waf_cds, distributed_greedy_cds):
            result, _ = protocol(graph)
            assert result.size > 0
        assert count_dict_builds == []

    def test_the_counter_sees_a_dict_read(self, count_dict_builds):
        # The guard is live: the first dict read of a UDG builds once.
        graph = unit_disk_graph(uniform_points(100, 5.0, 2))
        graph.has_edge(*graph.nodes()[:2])
        graph.edges()
        assert count_dict_builds == [100]
