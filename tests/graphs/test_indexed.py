"""The CSR kernel must be an exact, order-preserving view of ``Graph``.

Every bit-identical-output guarantee in the PR 2 performance work rests
on :class:`IndexedGraph` reproducing the dict-based graph's iteration
and adjacency orders exactly; these tests pin that contract on both
hand-built graphs and the randomized UDG suite.
"""

import pytest

from repro.graphs import Graph, IndexedGraph, IntUnionFind
from repro.graphs.traversal import (
    bfs_tree,
    connected_components,
    is_connected,
)


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
