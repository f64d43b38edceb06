"""Unit tests for the theorem checkers."""

import pytest

from repro.analysis import (
    BoundCheck,
    check_corollary7,
    check_lemma9_trace,
    check_ratio_bound,
    check_theorem3,
    check_theorem6,
    prefix_decomposition,
)
from repro.cds import connected_domination_number, greedy_connector_cds, waf_cds
from repro.geometry import figure1_three_star, figure2_linear, Point


class TestBoundCheck:
    def test_holds_and_slack(self):
        c = BoundCheck(name="x", lhs=3.0, rhs=5.0)
        assert c.holds and c.slack == 2.0

    def test_equality_holds(self):
        assert BoundCheck(name="x", lhs=5.0, rhs=5.0).holds

    def test_violation(self):
        assert not BoundCheck(name="x", lhs=6.0, rhs=5.0).holds


class TestTheoremCheckers:
    def test_theorem3_on_figure1(self):
        star, witness = figure1_three_star()
        check = check_theorem3(star, witness)
        assert check.holds
        assert check.lhs == check.rhs == 12

    def test_theorem3_rejects_non_star(self):
        with pytest.raises(ValueError):
            check_theorem3([Point(0, 0), Point(5, 0)], [])

    def test_theorem6_on_figure2(self):
        centers, witness = figure2_linear(6)
        check = check_theorem6(centers, witness)
        assert check.holds
        assert check.lhs == 21

    def test_corollary7(self):
        assert check_corollary7(alpha=12, gamma_c=3).holds
        assert not check_corollary7(alpha=13, gamma_c=3).holds

    def test_ratio_bound_dispatch(self, small_udg):
        _, g = small_udg
        gamma_c = connected_domination_number(g)
        assert check_ratio_bound(waf_cds(g), gamma_c).holds
        assert check_ratio_bound(greedy_connector_cds(g), gamma_c).holds

    def test_ratio_bound_unknown_algorithm_always_holds(self):
        from repro.cds import CDSResult

        r = CDSResult(algorithm="mystery", nodes=frozenset(range(100)))
        assert check_ratio_bound(r, 1).holds


class TestLemma9Trace:
    def test_holds_on_suite(self, udg_suite):
        for _, g in udg_suite:
            result = greedy_connector_cds(g)
            gamma_c = connected_domination_number(g)
            for check in check_lemma9_trace(result, gamma_c):
                assert check.holds

    def test_requires_trace_meta(self, small_udg):
        _, g = small_udg
        with pytest.raises(ValueError):
            check_lemma9_trace(waf_cds(g), 3)


class TestPrefixDecomposition:
    def test_partition_sums_to_connector_count(self, udg_suite):
        for _, g in udg_suite:
            result = greedy_connector_cds(g)
            gamma_c = connected_domination_number(g)
            d = prefix_decomposition(result.meta["q_history"], gamma_c)
            assert d.c1 + d.c2 + d.c3 == len(result.connectors)

    def test_caps_hold_on_suite(self, udg_suite):
        for _, g in udg_suite:
            result = greedy_connector_cds(g)
            gamma_c = connected_domination_number(g)
            d = prefix_decomposition(result.meta["q_history"], gamma_c)
            for check in d.checks():
                assert check.holds, check

    def test_synthetic_history(self):
        # gamma_c = 3: t1 = floor(11)-3 = 8, t2 = 7.
        q = [12, 8, 6, 4, 2, 1]
        d = prefix_decomposition(q, 3)
        assert d.c1 == 1  # q reaches t1 = 8 after one pick
        assert d.c2 == 1  # q reaches t2 = 7 one pick later (q = 6)
        assert d.c3 == 3  # the remaining picks

    def test_gamma_one(self):
        d = prefix_decomposition([4, 1], 1)
        assert d.c1 + d.c2 + d.c3 == 1
        assert all(c.holds for c in d.checks())

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            prefix_decomposition([3, 1], 0)


class TestConditionalVariants:
    def test_theorem3_conditional_on_random_stars(self):
        from repro.analysis import empirical_max_packing
        from repro.analysis.bounds_check import check_theorem3_conditional
        from repro.experiments.instances import random_star

        applied = 0
        for n in (2, 3, 4):
            for seed in range(3):
                star = random_star(n, seed)
                packing = empirical_max_packing(star, step=0.3)
                check = check_theorem3_conditional(star, packing)
                if check is not None:
                    applied += 1
                    assert check.holds, check
        assert applied >= 1

    def test_theorem3_conditional_none_when_member_sees_five(self):
        from repro.analysis.bounds_check import check_theorem3_conditional
        from repro.geometry import one_star_packing

        star, witness = one_star_packing()  # the center sees all 5
        assert check_theorem3_conditional(star, witness) is None

    def test_theorem3_conditional_none_for_large_stars(self):
        from repro.analysis.bounds_check import check_theorem3_conditional
        from repro.experiments.instances import random_star

        assert check_theorem3_conditional(random_star(5, 0), []) is None

    def test_theorem6_intersecting_variant(self):
        from repro.analysis.bounds_check import check_theorem6_variants
        from repro.geometry import Point

        # V = 2 chained points; I includes one of them: both premises.
        connected = [Point(0, 0), Point(0.9, 0)]
        independent = [Point(0, 0), Point(1.95, 0)]
        checks = check_theorem6_variants(connected, independent)
        names = {c.name for c in checks}
        assert any("intersecting" in n for n in names)
        assert all(c.holds for c in checks)

    def test_theorem6_capped_variant_on_chains(self):
        from repro.analysis.bounds_check import check_theorem6_variants
        from repro.analysis import empirical_max_packing
        from repro.graphs import chain_points

        centers = chain_points(5, 1.0)
        packing = empirical_max_packing(centers, step=0.3)
        checks = check_theorem6_variants(centers, packing)
        for check in checks:
            assert check.holds, check

    def test_theorem6_variants_require_two_points(self):
        import pytest

        from repro.analysis.bounds_check import check_theorem6_variants
        from repro.geometry import Point

        with pytest.raises(ValueError):
            check_theorem6_variants([Point(0, 0)], [])
