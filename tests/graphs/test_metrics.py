"""Tests for topology statistics."""

import networkx as nx
import pytest

from repro.graphs import Graph
from repro.graphs.metrics import (
    clustering_coefficient,
    graph_diameter,
    topology_stats,
)
from tests.nx_bridge import to_networkx


class TestDiameter:
    def test_path(self, path5):
        assert graph_diameter(path5) == 4

    def test_cycle(self, cycle6):
        assert graph_diameter(cycle6) == 3

    def test_complete(self, complete4):
        assert graph_diameter(complete4) == 1

    def test_single_node(self):
        assert graph_diameter(Graph(nodes=[0])) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            graph_diameter(Graph(edges=[(0, 1)], nodes=[2]))

    def test_cross_validate_networkx(self, udg_suite):
        for _, g in udg_suite[:4]:
            assert graph_diameter(g) == nx.diameter(to_networkx(g))


class TestClustering:
    def test_triangle(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        assert clustering_coefficient(g) == 1.0

    def test_path_is_zero(self, path5):
        assert clustering_coefficient(path5) == 0.0

    def test_empty(self):
        assert clustering_coefficient(Graph()) == 0.0

    def test_cross_validate_networkx(self, udg_suite):
        for _, g in udg_suite[:4]:
            ours = clustering_coefficient(g)
            theirs = nx.average_clustering(to_networkx(g))
            assert ours == pytest.approx(theirs)


class TestTopologyStats:
    def test_fields(self, cycle6):
        stats = topology_stats(cycle6)
        assert stats.nodes == 6
        assert stats.edges == 6
        assert stats.min_degree == stats.max_degree == 2
        assert stats.mean_degree == 2.0
        assert stats.diameter == 3

    def test_row_shape(self, path5):
        assert len(topology_stats(path5).row()) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            topology_stats(Graph())
