"""Unit tests for the exact minimum CDS solver."""

import networkx as nx
import pytest

from repro.cds import (
    connected_domination_number,
    gamma_c_lower_bound,
    minimum_cds,
)
from repro.graphs import (
    Graph,
    chain_points,
    is_connected_dominating_set,
    unit_disk_graph,
)
from tests.nx_bridge import from_networkx


class TestKnownOptima:
    def test_path5(self, path5):
        assert connected_domination_number(path5) == 3

    def test_path_n_is_n_minus_2(self):
        for n in (3, 4, 6, 8):
            g = unit_disk_graph(chain_points(n, 1.0))
            assert connected_domination_number(g) == n - 2

    def test_cycle6(self, cycle6):
        assert connected_domination_number(cycle6) == 4

    def test_star(self, star_graph):
        assert connected_domination_number(star_graph) == 1

    def test_complete(self, complete4):
        assert connected_domination_number(complete4) == 1

    def test_two_triangles_bridge(self, two_triangles_bridge):
        assert connected_domination_number(two_triangles_bridge) == 2

    def test_single_node(self):
        assert minimum_cds(Graph(nodes=[5])) == [5]

    def test_two_nodes(self):
        g = Graph(edges=[(0, 1)])
        assert len(minimum_cds(g)) == 1

    def test_petersen(self):
        # gamma_c of the Petersen graph is 4.
        g = from_networkx(nx.petersen_graph())
        assert connected_domination_number(g) == 4

    def test_grid_3x3(self):
        g = from_networkx(nx.grid_2d_graph(3, 3))
        assert connected_domination_number(g) == 3


class TestValidity:
    def test_result_is_cds(self, udg_suite):
        for _, g in udg_suite:
            opt = minimum_cds(g)
            assert is_connected_dominating_set(g, opt)

    def test_no_smaller_cds_exists_bruteforce(self):
        # Cross-check optimality by brute force on tiny graphs.
        import itertools

        for seed in range(3):
            nxg = nx.connected_watts_strogatz_graph(9, 3, 0.4, seed=seed)
            g = from_networkx(nxg)
            opt = len(minimum_cds(g))
            smaller_exists = False
            nodes = g.nodes()
            for k in range(1, opt):
                for subset in itertools.combinations(nodes, k):
                    if is_connected_dominating_set(g, subset):
                        smaller_exists = True
                        break
                if smaller_exists:
                    break
            assert not smaller_exists

    def test_upper_bound_hint_respected(self, small_udg):
        _, g = small_udg
        baseline = len(minimum_cds(g))
        hinted = len(minimum_cds(g, upper_bound=baseline))
        assert hinted == baseline

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            minimum_cds(Graph())

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            minimum_cds(Graph(edges=[(0, 1)], nodes=[2]))


class TestLowerBound:
    def test_lower_bound_below_optimum(self, udg_suite):
        for _, g in udg_suite:
            assert gamma_c_lower_bound(g) <= connected_domination_number(g)

    def test_lower_bound_at_least_one(self, complete4):
        assert gamma_c_lower_bound(complete4) == 1

    def test_single_node(self):
        assert gamma_c_lower_bound(Graph(nodes=[0])) == 1

    def test_chain_lower_bound_nontrivial(self):
        g = unit_disk_graph(chain_points(12, 1.0))
        lb = gamma_c_lower_bound(g)
        assert lb >= 2
