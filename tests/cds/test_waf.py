"""Unit tests for the WAF two-phased algorithm (Section III)."""

import pytest

from repro.cds import waf_cds
from repro.cds.bounds import waf_bound_this_paper
from repro.cds.exact import connected_domination_number
from repro.graphs import (
    Graph,
    chain_points,
    is_maximal_independent_set,
    unit_disk_graph,
)


class TestWAFBasics:
    def test_valid_cds_on_suite(self, udg_suite):
        for _, g in udg_suite:
            result = waf_cds(g)
            assert result.is_valid(g)

    def test_dominators_form_mis(self, udg_suite):
        for _, g in udg_suite:
            result = waf_cds(g)
            assert is_maximal_independent_set(g, result.dominators)

    def test_connectors_disjoint_from_dominators(self, udg_suite):
        for _, g in udg_suite:
            result = waf_cds(g)
            assert not (set(result.connectors) & set(result.dominators))

    def test_single_node(self):
        g = Graph(nodes=["v"])
        result = waf_cds(g)
        assert result.nodes == frozenset(["v"])

    def test_two_nodes(self):
        g = Graph(edges=[("a", "b")])
        result = waf_cds(g)
        assert result.is_valid(g)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            waf_cds(Graph())

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            waf_cds(Graph(edges=[(0, 1)], nodes=[2]))

    def test_deterministic(self, small_udg):
        _, g = small_udg
        assert waf_cds(g).nodes == waf_cds(g).nodes

    def test_explicit_root(self, cycle6):
        result = waf_cds(cycle6, root=3)
        assert result.meta["root"] == 3
        assert result.is_valid(cycle6)

    def test_meta_records_s(self, small_udg):
        _, g = small_udg
        result = waf_cds(g)
        s = result.meta["s"]
        assert s in result.connectors
        assert g.has_edge(result.meta["root"], s)


class TestWAFOnPaths:
    def test_unit_chain(self):
        pts = chain_points(9, 1.0)
        g = unit_disk_graph(pts)
        result = waf_cds(g)
        assert result.is_valid(g)
        # Optimal CDS of a 9-path is the 7 interior nodes.
        assert result.size >= 7

    def test_star_udg(self):
        # A dense cluster: gamma_c = 1.
        pts = [chain_points(1)[0]] + [
            p for p in chain_points(5, 0.19)[1:]
        ]
        g = unit_disk_graph(pts)
        result = waf_cds(g)
        assert result.is_valid(g)
        # Theorem 8 for gamma_c = 1: |CDS| <= 6.
        assert result.size <= 6


class TestTheorem8:
    def test_ratio_bound_on_suite(self, udg_suite):
        for _, g in udg_suite:
            result = waf_cds(g)
            gamma_c = connected_domination_number(g)
            assert result.size <= float(waf_bound_this_paper(gamma_c))

    def test_ratio_bound_on_chains(self):
        for n in (5, 8, 12):
            g = unit_disk_graph(chain_points(n, 0.95))
            result = waf_cds(g)
            gamma_c = connected_domination_number(g)
            assert result.size <= float(waf_bound_this_paper(gamma_c))

    def test_size_relation_to_mis(self, udg_suite):
        # |C| <= |I| - |I(s)| + 1 <= |I| - 1, so |CDS| <= 2|I|.
        for _, g in udg_suite:
            result = waf_cds(g)
            assert len(result.connectors) <= len(result.dominators)
            assert result.size <= 2 * len(result.dominators)


class TestArbitraryTree:
    def test_dfs_tree_variant_valid(self, udg_suite):
        for _, g in udg_suite:
            result = waf_cds(g, tree_kind="dfs")
            assert result.is_valid(g)

    def test_dfs_mis_is_maximal(self, udg_suite):
        from repro.graphs import is_maximal_independent_set

        for _, g in udg_suite:
            result = waf_cds(g, tree_kind="dfs")
            assert is_maximal_independent_set(g, result.dominators)

    def test_unknown_tree_kind_rejected(self, small_udg):
        _, g = small_udg
        import pytest

        with pytest.raises(ValueError):
            waf_cds(g, tree_kind="prim")

    def test_bfs_and_dfs_may_differ(self, udg_suite):
        differing = sum(
            1
            for _, g in udg_suite
            if waf_cds(g, tree_kind="bfs").nodes != waf_cds(g, tree_kind="dfs").nodes
        )
        assert differing >= 1  # the ablation is not vacuous


class TestNoNodeKeyedTree:
    """A kernel WAF run takes parents from the kernel's id lists and
    never builds the node-keyed BFS tree."""

    @pytest.mark.parametrize("kernel", ["auto", "indexed", "bitset", "array"])
    def test_no_bfs_tree_constructed(self, monkeypatch, kernel):
        from repro.graphs import random_connected_udg
        from repro.graphs.traversal import BFSTree

        _, g = random_connected_udg(1000, 18.0, seed=2)
        reference = waf_cds(g, kernel="indexed")
        built = []
        original = BFSTree.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(BFSTree, "__init__", counting)
        result = waf_cds(g, kernel=kernel)
        assert built == []
        assert result == reference
        assert result.is_valid(g)
