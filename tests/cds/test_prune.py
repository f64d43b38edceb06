"""Unit tests for CDS pruning."""

import pytest

from repro.cds import prune_cds, prune_result, waf_cds
from repro.graphs import is_connected_dominating_set


class TestPruneCDS:
    def test_result_still_cds(self, udg_suite):
        for _, g in udg_suite:
            cds = waf_cds(g)
            pruned = prune_cds(g, cds.nodes)
            assert is_connected_dominating_set(g, pruned)

    def test_never_larger(self, udg_suite):
        for _, g in udg_suite:
            cds = waf_cds(g)
            assert len(prune_cds(g, cds.nodes)) <= cds.size

    def test_result_is_minimal(self, udg_suite):
        # Removing any single node from the pruned set breaks it.
        for _, g in udg_suite[:4]:
            pruned = prune_cds(g, waf_cds(g).nodes)
            if len(pruned) == 1:
                continue
            for v in pruned:
                remaining = [u for u in pruned if u != v]
                assert not is_connected_dominating_set(g, remaining)

    def test_whole_vertex_set(self, star_graph):
        pruned = prune_cds(star_graph, star_graph.nodes())
        assert pruned == [0]

    def test_non_cds_input_rejected(self, path5):
        with pytest.raises(ValueError):
            prune_cds(path5, [0, 1])

    def test_subset_of_input(self, small_udg):
        _, g = small_udg
        cds = waf_cds(g)
        assert set(prune_cds(g, cds.nodes)) <= set(cds.nodes)


class TestPruneResult:
    def test_labels_and_meta(self, small_udg):
        _, g = small_udg
        result = prune_result(g, waf_cds(g))
        assert result.algorithm == "waf+prune"
        assert result.meta["after"] == result.size
        assert result.meta["before"] >= result.meta["after"]
        assert result.is_valid(g)
