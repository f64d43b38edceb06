"""The pluggable MIS node-priority hook and the registry adapters."""

import pytest

from repro.distributed import (
    PRIORITIES,
    RadioTopology,
    build_bfs_tree,
    distributed_waf_cds,
    elect_mis,
    make_priority,
)
from repro.distributed.solvers import DISTRIBUTED_SOLVERS
from repro.experiments.parallel import SweepCell, solve_cell
from repro.graphs import Graph
from repro.graphs.properties import is_maximal_independent_set


@pytest.fixture
def graph_and_tree(medium_udg):
    from repro.experiments.instances import int_labeled

    _, g0 = medium_udg
    g = int_labeled(g0)
    tree, _ = build_bfs_tree(g, 0)
    return g, tree


class TestMakePriority:
    def test_default_is_bfs_rank(self, graph_and_tree):
        g, tree = graph_and_tree
        topo = RadioTopology(g)
        ranks = make_priority(None, tree, topo)
        assert ranks == {v: tree.rank(v) for v in g.nodes()}
        assert make_priority("bfs-rank", tree, topo) == ranks

    def test_degree_is_level_major(self, graph_and_tree):
        g, tree = graph_and_tree
        topo = RadioTopology(g)
        ranks = make_priority("degree", tree, topo)
        for v, (level, neg_deg, vid) in ranks.items():
            assert level == tree.level[v]
            assert neg_deg == -len(g.neighbors(v))
            assert vid == v

    def test_callable_tiebroken_by_bfs_rank(self, graph_and_tree):
        g, tree = graph_and_tree
        topo = RadioTopology(g)
        ranks = make_priority(lambda v: 0, tree, topo)
        # A constant callable collapses to the BFS rank order — the
        # suffix keeps the order total.
        assert len(set(ranks.values())) == len(g)
        order = sorted(g.nodes(), key=ranks.__getitem__)
        assert order == sorted(g.nodes(), key=tree.rank)

    def test_unknown_name_rejected(self, graph_and_tree):
        g, tree = graph_and_tree
        with pytest.raises(ValueError, match="unknown priority"):
            make_priority("entropy", tree, RadioTopology(g))

    def test_priorities_constant(self):
        assert PRIORITIES == ("bfs-rank", "degree")


class TestPriorityElections:
    @pytest.mark.parametrize("priority", [None, "degree"])
    def test_result_is_mis(self, graph_and_tree, priority):
        g, tree = graph_and_tree
        mis, _ = elect_mis(g, tree, priority=priority)
        assert is_maximal_independent_set(g, mis)

    def test_custom_callable_is_mis(self, graph_and_tree):
        g, tree = graph_and_tree
        mis, _ = elect_mis(g, tree, priority=lambda v: (v * 7919) % 257)
        assert is_maximal_independent_set(g, mis)

    def test_degree_priority_changes_selection(self):
        # A star rooted at a leaf: bfs-rank elects by id inside each
        # level, degree prefers the hub.
        g = Graph(edges=[(0, 5)] + [(5, i) for i in range(1, 5)])
        tree, _ = build_bfs_tree(g, 0)
        default, _ = elect_mis(g, tree)
        by_degree, _ = elect_mis(g, tree, priority="degree")
        assert is_maximal_independent_set(g, default)
        assert is_maximal_independent_set(g, by_degree)
        assert 0 in default and 0 in by_degree

    def test_same_transmissions_any_priority(self, graph_and_tree):
        # 2n transmissions is a property of the cascade, not the order.
        g, tree = graph_and_tree
        _, m1 = elect_mis(g, tree)
        _, m2 = elect_mis(g, tree, priority="degree")
        assert m1.transmissions == m2.transmissions == 2 * len(g)

    def test_waf_pipeline_valid_under_degree_priority(self, medium_udg):
        from repro.experiments.instances import int_labeled

        _, g0 = medium_udg
        g = int_labeled(g0)
        result, _ = distributed_waf_cds(g, priority="degree")
        assert result.is_valid(g)


class TestRegistrySolvers:
    def test_all_variants_registered(self):
        from repro.solvers import solver_registry

        registry = solver_registry()
        for name in DISTRIBUTED_SOLVERS:
            assert name in registry

    @pytest.mark.parametrize("name", sorted(DISTRIBUTED_SOLVERS))
    def test_solver_valid_on_point_graph(self, small_udg, name):
        _, g = small_udg
        result = DISTRIBUTED_SOLVERS[name](g)
        assert result.is_valid(g)
        assert result.algorithm == name
        assert result.meta["sim_transmissions"] > 0
        assert result.meta["sim_rounds"] > 0

    def test_solve_cell_runs_distributed_algorithm(self):
        summary = solve_cell(SweepCell(n=30, side=4.0, seed=2), algorithm="waf-dist")
        assert summary["algorithm"] == "waf-dist"
        assert summary["cds_size"] > 0
        assert summary["counters"]["sim.transmissions"] > 0

    def test_solve_cell_jobs_deterministic(self):
        from repro.experiments.parallel import solve_cells_resilient

        cells = [SweepCell(n=25, side=3.5, seed=s) for s in range(3)]
        serial = [solve_cell(c, algorithm="greedy-dist") for c in cells]
        report = solve_cells_resilient(cells, algorithm="greedy-dist", jobs=2)
        assert serial == report.results
