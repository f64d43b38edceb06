"""Edge-case battery: corners the per-module suites don't reach.

Failure injection and boundary inputs across the public API — the
behaviors a downstream user hits first when they misuse the library.
"""

import pytest

from repro.cds import (
    CDSResult,
    GainTracker,
    connected_domination_number,
    greedy_connector_cds,
    minimum_cds,
    waf_cds,
)
from repro.geometry import Point, figure2_linear, is_independent, phi
from repro.graphs import (
    Graph,
    chain_points,
    is_connected_dominating_set,
    unit_disk_graph,
)


class TestDegenerateGraphs:
    def test_two_node_graph_everything(self):
        g = Graph(edges=[("a", "b")])
        for algorithm in (waf_cds, greedy_connector_cds):
            result = algorithm(g)
            assert result.is_valid(g)
            assert result.size <= 2
        assert connected_domination_number(g) == 1

    def test_triangle(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        assert connected_domination_number(g) == 1
        assert greedy_connector_cds(g).size <= 2

    def test_very_dense_clique_udg(self):
        pts = [Point(0.01 * i, 0.0) for i in range(25)]
        g = unit_disk_graph(pts)
        # Complete graph: MIS = 1 node, no connectors.
        result = greedy_connector_cds(g)
        assert result.size <= 2
        assert result.is_valid(g)

    def test_exactly_unit_spaced_chain(self):
        # Distance exactly 1.0: edges exist (closed disk model).
        g = unit_disk_graph(chain_points(6, 1.0))
        assert g.edge_count() == 5
        assert waf_cds(g).is_valid(g)

    def test_barely_disconnected_chain(self):
        g = unit_disk_graph(chain_points(6, 1.0 + 1e-6))
        assert g.edge_count() == 0


class TestGainTrackerStress:
    def test_interleaved_queries_and_adds(self, medium_udg):
        from repro.mis import first_fit_mis

        _, g = medium_udg
        mis = first_fit_mis(g)
        tracker = GainTracker(g, mis.nodes)
        # Query gains between every add; totals must telescope.
        initial_q = tracker.component_count
        total_gain = 0
        while tracker.component_count > 1:
            w, gain = tracker.best_connector()
            assert tracker.gain(w) == gain
            tracker.add(w)
            total_gain += gain
        assert initial_q - total_gain == 1

    def test_tie_break_modes_all_terminate(self, small_udg):
        _, g = small_udg
        for tie_break in ("min", "max", "degree"):
            result = greedy_connector_cds(g, tie_break=tie_break)
            assert result.is_valid(g)


class TestExactSolverCorners:
    def test_upper_bound_equal_to_optimum(self, path5):
        assert len(minimum_cds(path5, upper_bound=3)) == 3

    def test_star_with_pendant(self):
        # Star + chain tail of 2.
        g = Graph(edges=[(0, i) for i in range(1, 5)] + [(4, 5), (5, 6)])
        opt = minimum_cds(g)
        assert is_connected_dominating_set(g, opt)
        assert len(opt) == 3  # {0, 4, 5}

    def test_two_cliques_bridge(self):
        g = Graph()
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
                g.add_edge(10 + i, 10 + j)
        g.add_edge(3, 10)
        assert connected_domination_number(g) == 2


class TestConstructionParameterSpace:
    @pytest.mark.parametrize("eps", [5e-3, 1e-2, 3e-2])
    def test_figure2_across_eps(self, eps):
        delta = eps * eps / 4
        centers, witness = figure2_linear(5, eps=eps, delta=delta)
        assert is_independent(witness)
        assert len(witness) == 18

    def test_phi_is_monotone(self):
        values = [phi(n) for n in range(1, 12)]
        assert values == sorted(values)


class TestResultInvariants:
    def test_frozen_result(self, path5):
        result = CDSResult(algorithm="x", nodes=frozenset([1, 2, 3]))
        with pytest.raises(AttributeError):
            result.nodes = frozenset([0])  # type: ignore[misc]

    def test_meta_is_per_instance(self):
        a = CDSResult(algorithm="x", nodes=frozenset([1]))
        b = CDSResult(algorithm="x", nodes=frozenset([1]))
        a.meta["k"] = 1
        assert "k" not in b.meta

    def test_connectors_order_preserved(self, small_udg):
        _, g = small_udg
        result = greedy_connector_cds(g)
        gains = result.meta["gain_history"]
        assert len(result.connectors) == len(gains)


class TestFloatRobustness:
    def test_points_near_unit_distance(self):
        # Pairs straddling the EPS tolerance around distance 1.
        base = Point(0.0, 0.0)
        inside = Point(1.0 - 1e-12, 0.0)
        boundary = Point(1.0, 0.0)
        outside = Point(1.0 + 1e-6, 0.0)
        g = unit_disk_graph([base, inside, boundary, outside])
        assert g.has_edge(base, inside)
        assert g.has_edge(base, boundary)
        assert not g.has_edge(base, outside)

    def test_large_coordinates(self):
        shift = 1e6
        pts = [Point(shift + x, shift) for x in (0.0, 0.5, 1.2)]
        g = unit_disk_graph(pts)
        assert g.has_edge(pts[0], pts[1])
        assert g.has_edge(pts[1], pts[2])
        assert not g.has_edge(pts[0], pts[2])
