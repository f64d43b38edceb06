"""Unit tests for the array kernel's view and its gather primitive.

``kernel="array"`` names the CSR view plus the lazy-heap greedy
(:mod:`repro.cds.array_gain`).  These tests pin that
:func:`build_kernel` hands out the graph's memoized
:class:`IndexedGraph` for it, that its traversals are the dict-based
reference's, and :func:`gather_rows`, the numpy gather the heap
tracker's frontier batch reads.
"""

import random

import numpy as np
import pytest

from repro.graphs import Graph, random_connected_udg
from repro.graphs.backend import build_kernel
from repro.graphs.indexed import IndexedGraph, gather_rows
from repro.graphs.traversal import bfs_tree, connected_components, is_connected
from repro.obs import OBS


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


class TestGatherRows:
    def test_matches_python_slices(self):
        g = _random_graph(40, 0.15, seed=3)
        index = IndexedGraph.from_graph(g)
        ids = np.array([5, 0, 17, 5, 39], dtype=np.int64)
        flat, counts = gather_rows(*index.arrays(), ids)
        expected = [index.neighbors(int(i)) for i in ids]
        assert counts.tolist() == [len(row) for row in expected]
        assert flat.tolist() == [v for row in expected for v in row]

    def test_empty_ids(self):
        g = _random_graph(10, 0.3, seed=0)
        index = IndexedGraph.from_graph(g)
        flat, counts = gather_rows(*index.arrays(), np.array([], dtype=np.int64))
        assert flat.size == 0
        assert counts.size == 0

    def test_all_isolated_rows(self):
        g = Graph()
        for i in range(4):
            g.add_node(i)
        index = IndexedGraph.from_graph(g)
        flat, counts = gather_rows(*index.arrays(), np.arange(4, dtype=np.int64))
        assert flat.size == 0
        assert counts.tolist() == [0, 0, 0, 0]


class TestArrayGraphView:
    """``build_kernel(graph, "array")`` is the graph's CSR view."""

    def test_csr_buffers_match_indexed(self):
        _, g = random_connected_udg(60, 5.5, seed=4)
        index = IndexedGraph.from_graph(g)
        array = build_kernel(g, "array")
        assert array is index
        indptr, indices = array.arrays()
        assert indptr.tolist() == list(index.indptr)
        assert indices.tolist() == list(index.indices)
        assert np.diff(indptr).tolist() == [index.degree(i) for i in range(len(g))]

    def test_delegation(self):
        _, g = random_connected_udg(25, 4.0, seed=1)
        array = build_kernel(g, "array")
        assert len(array) == len(g)
        assert array.edge_count() == g.edge_count()
        for node in g:
            i = array.id_of(node)
            assert array.node_at(i) is node
            assert node in array
            assert array.degree(i) == g.degree(node)
            assert [array.node_at(j) for j in array.neighbors(i)] == list(
                g.neighbors(node)
            )

    def test_repr(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert repr(build_kernel(g, "array")) == "IndexedGraph(|V|=3, |E|=2)"


class TestTraversalEquivalence:
    """BFS/components of the array kernel's view must be bit-identical
    to the dict-based reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bfs_matches_indexed(self, seed):
        _, g = random_connected_udg(70, 6.0, seed=seed)
        array = build_kernel(g, "array")
        nodes = array.nodes
        for root in range(0, len(g), 13):
            order, parent, depth = array.bfs(root)
            tree = bfs_tree(g, nodes[root])
            assert tuple(nodes[v] for v in order) == tuple(tree.order)
            assert {nodes[v]: nodes[parent[v]] for v in order if parent[v] >= 0} == (
                tree.parent
            )
            assert {nodes[v]: depth[v] for v in order} == tree.depth
            assert array.bfs_order(root) == order

    @pytest.mark.parametrize("seed", range(6))
    def test_disconnected_components_match(self, seed):
        # Sparse random graphs fragment: component lists (BFS order
        # inside each, first-node order across) must match exactly.
        g = _random_graph(80, 0.02, seed=seed)
        array = build_kernel(g, "array")
        nodes = array.nodes
        assert [
            [nodes[v] for v in comp] for comp in array.connected_components()
        ] == connected_components(g)
        assert array.is_connected() == is_connected(g)

    def test_single_node(self):
        g = Graph()
        g.add_node("a")
        array = build_kernel(g, "array")
        assert array.bfs(0) == ([0], [-1], [0])
        assert array.connected_components() == [[0]]
        assert array.is_connected()

    def test_empty_graph_not_connected(self):
        array = build_kernel(Graph(), "array")
        assert not array.is_connected()
        assert array.connected_components() == []

    def test_bfs_counters(self):
        # The view's BFS is the uncounted list BFS of every kernel.
        _, g = random_connected_udg(50, 5.0, seed=2)
        array = build_kernel(g, "array")
        with OBS.capture() as reg:
            array.bfs(0)
            assert reg.counters() == {}


class TestLongThinGraph:
    """A chain has one node per BFS level, the worst case for a
    level-at-a-time BFS; every kernel must solve it alike."""

    def test_greedy_and_waf_agree_across_kernels(self):
        from repro.cds import greedy_connector_cds, waf_cds
        from repro.graphs import chain_points, unit_disk_graph

        g = unit_disk_graph(chain_points(1000))
        for solve in (greedy_connector_cds, waf_cds):
            a, b, c = (solve(g, kernel=k) for k in ("indexed", "bitset", "array"))
            assert a.dominators == b.dominators == c.dominators
            assert a.connectors == b.connectors == c.connectors
            assert a.meta == b.meta == c.meta
