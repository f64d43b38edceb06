"""Unit tests for the end-to-end distributed CDS pipelines."""

import pytest

from repro.distributed import (
    build_bfs_tree,
    convergecast_max,
    distributed_greedy_cds,
    distributed_waf_cds,
    flood_min_labels,
    flood_value,
)
from repro.distributed.solvers import greedy_dist_cds, waf_dist_cds
from repro.graphs import Graph, is_maximal_independent_set
from repro.obs import OBS


def labeled_udg(fixture):
    from repro.experiments.instances import int_labeled

    _, graph = fixture
    return int_labeled(graph)


class TestPrimitives:
    def test_flood_min_labels_components(self, path5):
        labels, heard, _ = flood_min_labels(path5, {0, 1, 3, 4})
        assert labels[0] == labels[1] == 0
        assert labels[3] == labels[4] == 3

    def test_flood_labels_heard_by_outsiders(self, path5):
        _, heard, _ = flood_min_labels(path5, {0, 1, 3, 4})
        # Node 2 (not in backbone) heard final labels of neighbors 1, 3.
        assert heard[2][1] == 0
        assert heard[2][3] == 3

    def test_convergecast_max_finds_global(self, small_udg):
        g = labeled_udg(small_udg)
        tree, _ = build_bfs_tree(g, 0)
        values = {v: (v % 7, v) for v in g.nodes()}
        best, metrics = convergecast_max(g, tree, values)
        assert best == max(values.values())
        assert metrics.transmissions == len(g) - 1

    def test_flood_value_reaches_everyone(self, small_udg):
        g = labeled_udg(small_udg)
        metrics = flood_value(g, 0, "payload")
        assert metrics.transmissions == len(g)


class TestDistributedWAF:
    def test_valid_on_suite(self, udg_suite):
        from repro.experiments.instances import int_labeled

        for _, graph in udg_suite:
            g = int_labeled(graph)
            result, metrics = distributed_waf_cds(g)
            assert result.is_valid(g)
            assert metrics.transmissions > 0

    def test_dominators_form_mis(self, small_udg):
        g = labeled_udg(small_udg)
        result, _ = distributed_waf_cds(g)
        assert is_maximal_independent_set(g, result.dominators)

    def test_single_node(self):
        result, metrics = distributed_waf_cds(Graph(nodes=[0]))
        assert result.size == 1
        assert metrics.transmissions == 0

    def test_leader_recorded(self, small_udg):
        g = labeled_udg(small_udg)
        result, _ = distributed_waf_cds(g)
        assert result.meta["leader"] == min(g.nodes())


class TestDistributedGreedy:
    def test_valid_on_suite(self, udg_suite):
        from repro.experiments.instances import int_labeled

        for _, graph in udg_suite:
            g = int_labeled(graph)
            result, _ = distributed_greedy_cds(g)
            assert result.is_valid(g)

    def test_same_dominators_as_waf_pipeline(self, small_udg):
        # Phase 1 is shared: both pipelines elect the same MIS.
        g = labeled_udg(small_udg)
        waf_result, _ = distributed_waf_cds(g)
        greedy_result, _ = distributed_greedy_cds(g)
        assert set(waf_result.dominators) == set(greedy_result.dominators)

    def test_costlier_in_messages_but_not_larger_on_average(self, udg_suite):
        from repro.experiments.instances import int_labeled

        total_waf_size = total_greedy_size = 0
        total_waf_msgs = total_greedy_msgs = 0
        for _, graph in udg_suite:
            g = int_labeled(graph)
            rw, mw = distributed_waf_cds(g)
            rg, mg = distributed_greedy_cds(g)
            total_waf_size += rw.size
            total_greedy_size += rg.size
            total_waf_msgs += mw.transmissions
            total_greedy_msgs += mg.transmissions
        assert total_greedy_size <= total_waf_size
        assert total_greedy_msgs >= total_waf_msgs

    def test_single_node(self):
        result, _ = distributed_greedy_cds(Graph(nodes=[0]))
        assert result.size == 1


class TestDisconnectedInput:
    @pytest.mark.parametrize(
        "solve",
        [distributed_waf_cds, distributed_greedy_cds, waf_dist_cds, greedy_dist_cds],
    )
    def test_rejected_before_any_round(self, solve):
        g = Graph(edges=[(0, 1), (2, 3)])
        with OBS.capture() as registry:
            with pytest.raises(ValueError, match="disconnected"):
                solve(g)
        assert "sim.runs" not in registry.counters()
