"""The CSR kernel must be an exact, order-preserving view of ``Graph``.

Every bit-identical-output guarantee in the PR 2 performance work rests
on :class:`IndexedGraph` reproducing the dict-based graph's iteration
and adjacency orders exactly; these tests pin that contract on both
hand-built graphs and the randomized UDG suite.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import Point
from repro.graphs import (
    Graph,
    IndexedGraph,
    IntUnionFind,
    chain_points,
    random_connected_udg,
    uniform_points,
    unit_disk_graph,
)
from repro.graphs.backend import build_kernel
from repro.graphs.bitset import BitsetGraph
from repro.graphs.indexed import NARROW_FRONTIER
from repro.graphs.traversal import (
    bfs_tree,
    connected_components,
    is_connected,
)
from repro.obs import OBS


def _list_bfs_connected(graph: Graph) -> bool:
    """Connectivity oracle: a plain BFS over the adjacency dicts."""
    nodes = graph.nodes()
    if not nodes:
        return False
    seen = {nodes[0]}
    queue = [nodes[0]]
    for u in queue:
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(nodes)


def _by_value(view: IndexedGraph) -> list[int]:
    return sorted(range(len(view)), key=view.nodes.__getitem__)


class TestInterning:
    def test_nodes_follow_graph_iteration_order(self, udg_suite):
        for _, graph in udg_suite:
            index = IndexedGraph.from_graph(graph)
            assert list(index.nodes) == list(graph.nodes())

    def test_id_roundtrip(self, small_udg):
        _, graph = small_udg
        index = IndexedGraph.from_graph(graph)
        for i, node in enumerate(index.nodes):
            assert index.id_of(node) == i
            assert index.node_at(i) == node
            assert node in index
        assert len(index) == len(graph)
        assert list(index) == list(range(len(graph)))

    def test_unknown_node_raises(self, path5):
        index = IndexedGraph.from_graph(path5)
        with pytest.raises(KeyError):
            index.id_of(99)
        assert 99 not in index

    def test_empty_graph(self):
        index = IndexedGraph.from_graph(Graph())
        assert len(index) == 0
        assert index.edge_count() == 0
        assert not index.is_connected()


class TestAdjacency:
    def test_neighbors_and_degree_match_graph(self, udg_suite):
        for _, graph in udg_suite:
            index = IndexedGraph.from_graph(graph)
            for node in graph.nodes():
                i = index.id_of(node)
                expected = [index.id_of(v) for v in graph.neighbors(node)]
                assert index.neighbors(i) == expected  # order included
                assert index.degree(i) == graph.degree(node)

    def test_edge_count_matches(self, udg_suite):
        for _, graph in udg_suite:
            index = IndexedGraph.from_graph(graph)
            assert index.edge_count() == graph.edge_count()

    def test_csr_invariants(self, medium_udg):
        _, graph = medium_udg
        index = IndexedGraph.from_graph(graph)
        indptr = index.indptr
        assert indptr[0] == 0
        assert indptr[-1] == len(index.indices)
        assert all(a <= b for a, b in zip(indptr, indptr[1:]))

    def test_snapshot_does_not_track_mutation(self):
        graph = Graph(edges=[(0, 1)])
        index = IndexedGraph.from_graph(graph)
        graph.add_edge(1, 2)
        assert len(index) == 2
        assert index.edge_count() == 1


class TestTraversal:
    def test_bfs_matches_bfs_tree_order(self, udg_suite):
        for _, graph in udg_suite:
            index = IndexedGraph.from_graph(graph)
            root = next(iter(graph))
            tree = bfs_tree(graph, root)
            order, parent, depth = index.bfs(index.id_of(root))
            assert [index.node_at(i) for i in order] == list(tree.order)
            for node in tree.order:
                i = index.id_of(node)
                assert depth[i] == tree.depth[node]
                if node != root:
                    assert index.node_at(parent[i]) == tree.parent[node]


    def test_connected_components_match(self):
        graph = Graph(edges=[(0, 1), (1, 2), (3, 4)])
        graph.add_node(5)
        index = IndexedGraph.from_graph(graph)
        expected = connected_components(graph)
        got = [
            [index.node_at(i) for i in comp]
            for comp in index.connected_components()
        ]
        assert got == expected

    def test_is_connected_matches(self, udg_suite):
        for _, graph in udg_suite:
            index = IndexedGraph.from_graph(graph)
            assert index.is_connected() == is_connected(graph)
        split = Graph(edges=[(0, 1), (2, 3)])
        assert not IndexedGraph.from_graph(split).is_connected()


class TestIntUnionFind:
    def test_union_merges_and_counts(self):
        dsu = IntUnionFind(5)
        assert dsu.set_count == 5
        assert dsu.union(0, 1)
        assert dsu.union(1, 2)
        assert not dsu.union(0, 2)  # already together
        assert dsu.set_count == 3
        assert dsu.connected(0, 2)
        assert not dsu.connected(0, 3)

    def test_find_is_canonical(self):
        dsu = IntUnionFind(4)
        dsu.union(0, 1)
        dsu.union(2, 3)
        assert dsu.find(0) == dsu.find(1)
        assert dsu.find(2) == dsu.find(3)
        assert dsu.find(0) != dsu.find(2)


class TestValueOrder:
    """The rank table: every id in ascending node-value order."""

    @pytest.mark.parametrize("n", [1, 20, 31, 32, 100, 300])
    def test_udg_views(self, n):
        graph = unit_disk_graph(uniform_points(n, math.sqrt(n) * 0.8, seed=n))
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() == _by_value(view)

    @pytest.mark.parametrize(("n", "side"), [(18, 3.8), (60, 6.2), (1000, 18.0)])
    def test_sampled_udg_views(self, n, side):
        _, graph = random_connected_udg(n, side, seed=3)
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() == _by_value(view)

    def test_udg_view_with_signed_zeros_and_shared_xs(self):
        pts = [Point(0.0, 1.0), Point(-0.0, 0.5), Point(0.0, -2.0), Point(-1.0, 0.0)]
        view = IndexedGraph.from_graph(unit_disk_graph(pts, radius=3.0))
        assert view.value_order() == _by_value(view) == [3, 2, 1, 0]

    def test_dict_built_points(self):
        rng = random.Random(3)
        graph = Graph(nodes=[Point(rng.random(), rng.random()) for _ in range(100)])
        graph.add_edge(*graph.nodes()[:2])
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() == _by_value(view)

    def test_points_whose_floats_tie(self):
        # Distinct integers that round to one float64 sort exactly.
        big = 2**53
        graph = Graph(nodes=[Point(big + 1, 0), Point(big, 0), Point(0.5, 0)])
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() == _by_value(view) == [2, 1, 0]

    def test_non_finite_points(self):
        graph = Graph(nodes=[Point(1.0, math.inf), Point(-math.inf, 0.0), Point(1.0, 0.0)])
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() == _by_value(view) == [1, 2, 0]

    def test_int_and_str_graphs(self):
        ints = IndexedGraph.from_graph(Graph(edges=[(5, 2), (2, 9), (9, -1)]))
        assert ints.value_order() == _by_value(ints) == [3, 1, 0, 2]
        strs = IndexedGraph.from_graph(Graph(edges=[("b", "c"), ("c", "a")]))
        assert strs.value_order() == _by_value(strs) == [2, 0, 1]

    def test_unorderable_mix_is_none(self):
        mixed = Graph(edges=[(1, "a"), ("a", 2)])
        assert IndexedGraph.from_graph(mixed).value_order() is None
        points_and_str = Graph(nodes=[Point(0.0, 0.0), "x"])
        assert IndexedGraph.from_graph(points_and_str).value_order() is None

    def test_memoized(self, small_udg):
        _, graph = small_udg
        view = IndexedGraph.from_graph(graph)
        assert view.value_order() is view.value_order()


class TestArrays:
    def test_udg_view_shares_memory_with_array_kernel(self, medium_udg):
        _, graph = medium_udg
        view = IndexedGraph.from_graph(graph)
        indptr, indices = view.arrays()
        array = build_kernel(graph, "array")
        assert np.shares_memory(array.arrays()[0], indptr)
        assert np.shares_memory(array.arrays()[1], indices)

    def test_match_the_lists_and_are_read_only(self, medium_udg, path5):
        for graph in (medium_udg[1], path5):
            view = IndexedGraph.from_graph(graph)
            indptr, indices = view.arrays()
            assert indptr.dtype == indices.dtype == np.int64
            assert indptr.tolist() == view.indptr
            assert indices.tolist() == view.indices
            assert view.arrays() is view.arrays()
            with pytest.raises(ValueError):
                indices[0] = 0


def _connectivity_cases():
    _, connected = random_connected_udg(60, 6.2, seed=1)
    split = unit_disk_graph([Point(0.0, 0.0), Point(0.5, 0.0), Point(5.0, 0.0)])
    return [
        connected,
        split,
        Graph(),
        Graph(nodes=[7]),
        Graph(nodes=[7, 8]),
        Graph(edges=[(0, 1), (1, 2)]),
        Graph(edges=[(0, 1), (2, 3)]),
        unit_disk_graph([Point(float(i), 0.0) for i in range(40)]),
        # One node per BFS level, whole and cut in the middle.
        unit_disk_graph(chain_points(300)),
        unit_disk_graph(chain_points(150) + [Point(151.5 + i, 0.0) for i in range(150)]),
        *(
            _blob_with_tail(tail_first, gap)
            for tail_first in (False, True)
            for gap in (False, True)
        ),
    ]


def _blob_with_tail(tail_first: bool, gap: bool) -> Graph:
    """A dense blob, whose BFS levels are wide, with a long tail of
    one-node levels; node 0 is in the blob or at the tail's far end.
    A gap cuts the tail's far half off."""
    blob = uniform_points(400, 4.0, 3)
    tail = [Point(4.5 + 0.9 * i, 2.0) for i in range(120)]
    if gap:
        tail = tail[:60] + [Point(p.x + 1.5, p.y) for p in tail[60:]]
    return unit_disk_graph(tail[::-1] + blob if tail_first else blob + tail)


class TestIsConnected:
    """Every kernel answers :func:`is_connected` as a list BFS would."""

    def test_matches_list_bfs_on_every_kernel(self):
        for graph in _connectivity_cases():
            expected = _list_bfs_connected(graph)
            view = IndexedGraph.from_graph(graph)
            assert is_connected(graph) is expected
            assert view.is_connected() is expected
            assert BitsetGraph.from_indexed(view).is_connected() is expected

    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 25)
            graph = Graph(nodes=range(n))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.12:
                        graph.add_edge(u, v)
            assert is_connected(graph) is _list_bfs_connected(graph)

    def test_blob_with_tail_has_narrow_and_wide_levels(self):
        for tail_first in (False, True):
            graph = _blob_with_tail(tail_first, gap=False)
            _, _, depth = IndexedGraph.from_graph(graph).bfs(0)
            widths = np.bincount(depth)
            assert widths.max() >= NARROW_FRONTIER > widths.min()

    def test_emits_no_counters(self):
        graphs = _connectivity_cases()
        with OBS.capture() as reg:
            for graph in graphs:
                view = IndexedGraph.from_graph(graph)
                is_connected(graph)
                view.is_connected()
            assert reg.counters() == {}
