"""Unit tests for repro.graphs.graph."""

import pytest

from repro.graphs import Graph


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert len(g) == 0
        assert g.nodes() == []
        assert g.edges() == []

    def test_from_edges_and_nodes(self):
        g = Graph(edges=[(1, 2)], nodes=[3])
        assert set(g.nodes()) == {1, 2, 3}
        assert g.edge_count() == 1

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_edge(1, 2)
        g.add_node(1)
        assert g.degree(1) == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)


class TestRemoval:
    def test_remove_node_removes_incident_edges(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_node(2)
        assert 2 not in g
        assert g.edge_count() == 0
        assert g.degree(1) == 0

    def test_remove_missing_node_raises(self):
        with pytest.raises(KeyError):
            Graph().remove_node(1)


class TestQueries:
    def test_neighbors_order_is_insertion_order(self):
        g = Graph()
        g.add_edge(0, 3)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.neighbors(0) == [3, 1, 2]

    def test_neighbors_missing_raises(self):
        with pytest.raises(KeyError):
            Graph().neighbors(0)

    def test_degree(self, star_graph):
        assert star_graph.degree(0) == 5
        assert star_graph.degree(1) == 1

    def test_max_degree(self, star_graph):
        assert star_graph.max_degree() == 5

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_closed_neighborhood(self, path5):
        assert path5.closed_neighborhood(1) == {0, 1, 2}

    def test_neighbor_set(self, path5):
        assert path5.neighbor_set(2) == {1, 3}

    def test_edges_each_once(self, cycle6):
        edges = cycle6.edges()
        assert len(edges) == 6
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 6

    def test_iteration(self, path5):
        assert list(path5) == [0, 1, 2, 3, 4]

    def test_contains(self, path5):
        assert 3 in path5
        assert 9 not in path5

    def test_repr(self, path5):
        assert "5" in repr(path5) and "4" in repr(path5)


class TestDerived:
    def test_subgraph_induced(self, cycle6):
        sub = cycle6.subgraph([0, 1, 2])
        assert set(sub.nodes()) == {0, 1, 2}
        assert sub.edge_count() == 2  # 0-1 and 1-2, not 2-0

    def test_subgraph_ignores_unknown(self, path5):
        sub = path5.subgraph([0, 1, 99])
        assert set(sub.nodes()) == {0, 1}

    def test_subgraph_preserves_outer_order(self, path5):
        sub = path5.subgraph([4, 0, 2])
        assert sub.nodes() == [0, 2, 4]

    def test_copy_is_independent(self, path5):
        dup = path5.copy()
        dup.remove_node(0)
        assert 0 in path5
        assert 0 not in dup

    def test_copy_equal_structure(self, cycle6):
        dup = cycle6.copy()
        assert set(map(frozenset, dup.edges())) == set(map(frozenset, cycle6.edges()))
