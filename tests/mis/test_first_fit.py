"""Unit tests for the BFS first-fit MIS (phase 1)."""

import pytest

from repro.graphs import (
    Graph,
    has_two_hop_separation,
    is_maximal_independent_set,
)
from repro.mis import FirstFitMIS, first_fit_mis, first_fit_mis_in_order
from repro.mis.first_fit import first_fit_mis_nodes


class TestFirstFitInOrder:
    def test_path_natural_order(self, path5):
        assert first_fit_mis_in_order(path5, [0, 1, 2, 3, 4]) == [0, 2, 4]

    def test_order_matters(self, path5):
        assert first_fit_mis_in_order(path5, [1, 0, 2, 3, 4]) == [1, 3]

    def test_result_is_mis(self, cycle6):
        mis = first_fit_mis_in_order(cycle6, list(range(6)))
        assert is_maximal_independent_set(cycle6, mis)


class TestCoveredFlagScan:
    """The one kernel scan against the dict-based first fit, on any
    visiting order."""

    @staticmethod
    def _orders(graph, rng):
        from repro.graphs.traversal import bfs_tree, dfs_tree

        root = min(graph.nodes())
        shuffled = list(graph.nodes())
        rng.shuffle(shuffled)
        return (
            bfs_tree(graph, root).order,
            dfs_tree(graph, root).order,
            tuple(shuffled),
        )

    def test_selects_first_fit_mis_in_order(self, udg_suite):
        import random

        from repro.graphs import IndexedGraph, random_connected_udg
        from repro.mis.first_fit import _scan
        from repro.obs import OBS

        rng = random.Random(5)
        graphs = [g for _, g in udg_suite] + [
            random_connected_udg(n, side, seed=seed)[1]
            for n, side in ((60, 6.2), (150, 8.0))
            for seed in range(3)
        ]
        for g in graphs:
            csr = IndexedGraph.from_graph(g)
            for order in self._orders(g, rng):
                with OBS.capture() as reg:
                    expected = first_fit_mis_in_order(g, order)
                    oracle = dict(reg.counters())
                with OBS.capture() as reg:
                    chosen = _scan(csr, [csr.id_of(v) for v in order])
                    counters = dict(reg.counters())
                assert [csr.node_at(i) for i in chosen] == expected
                assert counters == oracle
                assert set(counters) == {"mis.nodes_scanned", "mis.selected"}


class TestFirstFitMIS:
    def test_root_always_selected(self, path5):
        mis = first_fit_mis(path5, root=2)
        assert 2 in mis

    def test_default_root_is_min(self, path5):
        mis = first_fit_mis(path5)
        assert mis.tree.root == 0

    def test_is_maximal_independent(self, small_udg):
        _, g = small_udg
        mis = first_fit_mis(g)
        assert is_maximal_independent_set(g, mis.nodes)

    def test_two_hop_separation(self, udg_suite):
        for _, g in udg_suite:
            mis = first_fit_mis(g)
            assert has_two_hop_separation(g, mis.nodes)

    def test_bfs_selection_order_respects_depth(self, small_udg):
        # First-fit in BFS order: selection order never goes back to a
        # strictly smaller depth once a deeper node was selected.
        _, g = small_udg
        mis = first_fit_mis(g)
        depths = [mis.tree.depth[v] for v in mis.nodes]
        assert depths == sorted(depths)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            first_fit_mis(Graph())

    def test_disconnected_raises(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        with pytest.raises(ValueError):
            first_fit_mis(g)

    def test_single_node(self):
        g = Graph(nodes=[7])
        mis = first_fit_mis(g)
        assert list(mis.nodes) == [7]

    def test_result_container_protocol(self, path5):
        mis = first_fit_mis(path5)
        assert isinstance(mis, FirstFitMIS)
        assert len(mis) == 3
        assert mis[0] == 0
        assert 0 in mis
        assert mis.as_set() == {0, 2, 4}

    def test_no_mis_nodes_at_depth_one(self, udg_suite):
        # The root is in I, so its neighbors (depth 1) never are.
        for _, g in udg_suite:
            mis = first_fit_mis(g)
            for v in mis.nodes:
                assert mis.tree.depth[v] != 1

    def test_deterministic(self, small_udg):
        _, g = small_udg
        assert first_fit_mis(g).nodes == first_fit_mis(g).nodes


class TestFirstFitMisNodes:
    """The kernelized fast path must match ``first_fit_mis().nodes``."""

    def test_matches_full_result(self, udg_suite):
        for _, g in udg_suite:
            assert first_fit_mis_nodes(g) == first_fit_mis(g).nodes

    def test_matches_with_prebuilt_kernels(self, udg_suite):
        from repro.graphs import IndexedGraph
        from repro.graphs.bitset import BitsetGraph

        for _, g in udg_suite:
            reference = first_fit_mis(g).nodes
            index = IndexedGraph.from_graph(g)
            assert first_fit_mis_nodes(g, index=index) == reference
            bitset = BitsetGraph.from_indexed(index)
            assert first_fit_mis_nodes(g, index=bitset) == reference

    def test_root_forwarded(self, small_udg):
        _, g = small_udg
        root = max(g.nodes())
        assert first_fit_mis_nodes(g, root=root) == first_fit_mis(g, root=root).nodes

    def test_root_always_first(self, path5):
        assert first_fit_mis_nodes(path5, root=2)[0] == 2

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            first_fit_mis_nodes(Graph())

    def test_disconnected_raises(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        with pytest.raises(ValueError):
            first_fit_mis_nodes(g)


def _kernel_views(graph):
    from repro.graphs import IndexedGraph
    from repro.graphs.bitset import BitsetGraph

    index = IndexedGraph.from_graph(graph)
    return {
        "none": None,
        "indexed": index,
        "bitset": BitsetGraph.from_indexed(index),
        "array": index,
    }


class TestLazyTree:
    """A kernel run keeps its tree as id lists; reading ``.tree`` builds
    exactly the eager traversal's tree."""

    @pytest.mark.parametrize("tree_kind", ["bfs", "dfs"])
    @pytest.mark.parametrize("kernel", ["none", "indexed", "bitset", "array"])
    def test_tree_equals_eager_traversal(self, udg_suite, kernel, tree_kind):
        from repro.graphs.traversal import bfs_tree, dfs_tree

        eager = bfs_tree if tree_kind == "bfs" else dfs_tree
        for _, g in udg_suite:
            view = _kernel_views(g)[kernel]
            for root in (None, max(g.nodes())):
                mis = first_fit_mis(g, root, tree_kind, index=view)
                expected_root = min(g.nodes()) if root is None else root
                assert mis.root == expected_root
                assert mis.tree == eager(g, expected_root)
                reference = first_fit_mis(g, root, tree_kind)
                assert mis == reference
                assert mis.nodes == reference.nodes

    @pytest.mark.parametrize("kernel", ["none", "indexed", "bitset", "array"])
    def test_parents_without_tree(self, medium_udg, kernel):
        _, g = medium_udg
        lazy = first_fit_mis(g, index=_kernel_views(g)[kernel])
        eager = first_fit_mis(g)
        parents = lazy.parents()
        assert parents == eager.parents()
        assert parents[0] is None and lazy.nodes[0] == lazy.root
        assert parents[1:] == [lazy.tree.parent[v] for v in lazy.nodes[1:]]

    def test_pickles_and_compares_in_both_forms(self, medium_udg):
        import pickle

        _, g = medium_udg
        lazy = first_fit_mis(g, index=_kernel_views(g)["indexed"])
        eager = first_fit_mis(g)
        copy = pickle.loads(pickle.dumps(lazy))
        assert copy == lazy == eager
        assert copy.tree == eager.tree
        assert FirstFitMIS(nodes=eager.nodes, tree=eager.tree) == lazy
        assert lazy != FirstFitMIS(nodes=eager.nodes[:1], tree=eager.tree)
        assert repr(lazy) == repr(eager)
