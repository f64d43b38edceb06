"""Unit tests for the Guha–Khuller baseline."""

import pytest

from repro.baselines import guha_khuller_cds
from repro.cds import connected_domination_number
from repro.graphs import Graph


class TestGuhaKhuller:
    def test_valid_on_suite(self, udg_suite):
        for _, g in udg_suite:
            assert guha_khuller_cds(g).is_valid(g)

    def test_pairs_variant_also_valid(self, udg_suite):
        for _, g in udg_suite:
            assert guha_khuller_cds(g, use_pairs=False).is_valid(g)

    def test_star_is_optimal(self, star_graph):
        assert guha_khuller_cds(star_graph).size == 1

    def test_single_node(self):
        assert guha_khuller_cds(Graph(nodes=[0])).size == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            guha_khuller_cds(Graph())

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            guha_khuller_cds(Graph(edges=[(0, 1)], nodes=[2]))

    def test_logarithmic_guarantee_on_suite(self, udg_suite):
        # 2(1 + H(Delta)) * gamma_c — generous, but a real invariant.
        for _, g in udg_suite:
            result = guha_khuller_cds(g)
            gamma_c = connected_domination_number(g)
            harmonic = sum(1.0 / k for k in range(1, g.max_degree() + 1))
            assert result.size <= 2 * (1 + harmonic) * gamma_c

    def test_near_optimal_in_practice(self, udg_suite):
        # The empirical observation the comparison table relies on.
        total = total_opt = 0
        for _, g in udg_suite:
            total += guha_khuller_cds(g).size
            total_opt += connected_domination_number(g)
        assert total <= 1.35 * total_opt

    def test_result_connected_tree_growth(self, two_triangles_bridge):
        result = guha_khuller_cds(two_triangles_bridge)
        assert result.is_valid(two_triangles_bridge)
        assert result.size == 2
