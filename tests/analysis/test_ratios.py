"""Unit tests for ratio measurement."""

import pytest

from repro.analysis import estimate_gamma_c, measure_ratio
from repro.cds import connected_domination_number, greedy_connector_cds, waf_cds


class TestEstimateGammaC:
    def test_exact_for_small(self, small_udg):
        _, g = small_udg
        est = estimate_gamma_c(g)
        assert est.exact
        assert est.value == connected_domination_number(g)

    def test_lower_bound_mode(self, small_udg):
        _, g = small_udg
        est = estimate_gamma_c(g, exact_node_limit=5, exact_alpha_limit=60)
        assert not est.exact
        assert est.value <= connected_domination_number(g)
        assert "alpha exact" in est.method

    def test_greedy_mis_mode(self, small_udg):
        _, g = small_udg
        est = estimate_gamma_c(g, exact_node_limit=5, exact_alpha_limit=5)
        assert not est.exact
        assert est.value <= connected_domination_number(g)
        assert "greedy" in est.method

    def test_lower_bound_at_least_one(self, complete4):
        est = estimate_gamma_c(complete4, exact_node_limit=1, exact_alpha_limit=1)
        assert est.value >= 1


class TestMeasureRatio:
    def test_ratio_computation(self, small_udg):
        _, g = small_udg
        m = measure_ratio(g, waf_cds)
        assert m.algorithm == "waf"
        assert m.ratio == m.cds_size / m.gamma.value
        assert m.ratio >= 1.0

    def test_precomputed_gamma_reused(self, small_udg):
        _, g = small_udg
        gamma = estimate_gamma_c(g)
        m1 = measure_ratio(g, waf_cds, gamma=gamma)
        m2 = measure_ratio(g, greedy_connector_cds, gamma=gamma)
        assert m1.gamma is gamma and m2.gamma is gamma

    def test_invalid_algorithm_detected(self, path5):
        from repro.cds import CDSResult

        def broken(graph):
            return CDSResult(algorithm="broken", nodes=frozenset([0]))

        with pytest.raises(AssertionError):
            measure_ratio(path5, broken)

    def test_ratio_below_paper_bounds(self, udg_suite):
        for _, g in udg_suite:
            gamma = estimate_gamma_c(g)
            waf_m = measure_ratio(g, waf_cds, gamma=gamma)
            greedy_m = measure_ratio(g, greedy_connector_cds, gamma=gamma)
            assert waf_m.ratio <= 22 / 3
            assert greedy_m.ratio <= 115 / 18
