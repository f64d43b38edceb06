"""Unit tests for networkx interop."""

import networkx as nx
import pytest

from repro.graphs import Graph
from tests.nx_bridge import from_networkx, to_networkx


class TestToNetworkx:
    def test_roundtrip_structure(self, cycle6):
        nxg = to_networkx(cycle6)
        assert nxg.number_of_nodes() == 6
        assert nxg.number_of_edges() == 6

    def test_isolated_nodes_kept(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 3

    def test_cross_validation_connectivity(self, two_triangles_bridge):
        from repro.graphs import is_connected

        nxg = to_networkx(two_triangles_bridge)
        assert nx.is_connected(nxg) == is_connected(two_triangles_bridge)


class TestFromNetworkx:
    def test_basic(self):
        nxg = nx.path_graph(5)
        g = from_networkx(nxg)
        assert len(g) == 5
        assert g.edge_count() == 4

    def test_self_loop_rejected(self):
        nxg = nx.Graph()
        nxg.add_edge(1, 1)
        with pytest.raises(ValueError):
            from_networkx(nxg)

    def test_roundtrip(self, cycle6):
        back = from_networkx(to_networkx(cycle6))
        assert set(back.nodes()) == set(cycle6.nodes())
        assert {frozenset(e) for e in back.edges()} == {
            frozenset(e) for e in cycle6.edges()
        }

    def test_random_geometric_cross_check(self):
        # networkx's own random geometric graph agrees with our UDG
        # builder on the same points.
        from repro.geometry import Point
        from repro.graphs import unit_disk_graph, uniform_points

        pts = uniform_points(50, 4.0, seed=11)
        ours = unit_disk_graph(pts)
        positions = {i: (p.x, p.y) for i, p in enumerate(pts)}
        theirs = nx.random_geometric_graph(len(pts), 1.0, pos=positions)
        ours_edges = {
            frozenset((pts.index(u), pts.index(v))) for u, v in ours.edges()
        }
        theirs_edges = {frozenset(e) for e in theirs.edges()}
        assert ours_edges == theirs_edges
