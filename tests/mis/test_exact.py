"""Unit tests for the exact maximum independent set solver."""

import networkx as nx

from repro.graphs import Graph, is_independent_set
from repro.mis import (
    independence_number,
    lexicographic_mis,
    maximum_independent_set,
)
from tests.nx_bridge import from_networkx


class TestKnownGraphs:
    def test_path5(self, path5):
        assert independence_number(path5) == 3

    def test_cycle6(self, cycle6):
        assert independence_number(cycle6) == 3

    def test_odd_cycle(self):
        c5 = Graph(edges=[(i, (i + 1) % 5) for i in range(5)])
        assert independence_number(c5) == 2

    def test_complete(self, complete4):
        assert independence_number(complete4) == 1

    def test_star(self, star_graph):
        assert independence_number(star_graph) == 5

    def test_empty_edges(self):
        g = Graph(nodes=range(7))
        assert independence_number(g) == 7

    def test_empty_graph(self):
        assert independence_number(Graph()) == 0

    def test_petersen(self):
        g = from_networkx(nx.petersen_graph())
        assert independence_number(g) == 4

    def test_complete_bipartite(self):
        g = from_networkx(nx.complete_bipartite_graph(3, 5))
        assert independence_number(g) == 5


class TestSolutionValidity:
    def test_result_is_independent(self, small_udg):
        _, g = small_udg
        result = maximum_independent_set(g)
        assert is_independent_set(g, result)

    def test_at_least_any_mis(self, udg_suite):
        for _, g in udg_suite:
            assert independence_number(g) >= len(lexicographic_mis(g))

    def test_cross_validate_with_networkx_complement_clique(self):
        # alpha(G) = omega(complement(G)); networkx can find max cliques.
        for seed in range(3):
            nxg = nx.gnp_random_graph(12, 0.4, seed=seed)
            g = from_networkx(nxg)
            ours = independence_number(g)
            comp = nx.complement(nxg)
            theirs = max(len(c) for c in nx.find_cliques(comp))
            assert ours == theirs

    def test_deterministic(self, small_udg):
        _, g = small_udg
        assert len(maximum_independent_set(g)) == len(maximum_independent_set(g))
