"""Unit tests for distributed BFS tree construction."""

import pytest

from repro.distributed import build_bfs_tree
from repro.graphs import Graph, bfs_tree as centralized_bfs_tree
from repro.obs import OBS


class TestDistributedBFS:
    def test_levels_match_centralized(self, cycle6):
        tree, _ = build_bfs_tree(cycle6, 0)
        expected = centralized_bfs_tree(cycle6, 0)
        assert tree.level == expected.depth

    def test_levels_on_udg(self, small_udg):
        from repro.experiments.instances import int_labeled

        _, graph = small_udg
        g = int_labeled(graph)
        tree, _ = build_bfs_tree(g, 0)
        expected = centralized_bfs_tree(g, 0)
        assert tree.level == expected.depth

    def test_parents_are_one_level_up(self, small_udg):
        from repro.experiments.instances import int_labeled

        _, graph = small_udg
        g = int_labeled(graph)
        tree, _ = build_bfs_tree(g, 0)
        for child, parent in tree.parent.items():
            assert tree.level[parent] == tree.level[child] - 1
            assert g.has_edge(child, parent)

    def test_parent_tie_break_is_min_sender(self):
        # Node 3 hears offers from 1 and 2 in the same round.
        g = Graph(edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        tree, _ = build_bfs_tree(g, 0)
        assert tree.parent[3] == 1

    def test_one_transmission_per_node(self, path5):
        _, metrics = build_bfs_tree(path5, 0)
        assert metrics.transmissions == len(path5)

    def test_rounds_equal_eccentricity_plus_wave(self, path5):
        _, metrics = build_bfs_tree(path5, 0)
        assert metrics.rounds <= 4 + 2

    def test_unreachable_node_detected(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        with OBS.capture() as registry:
            with pytest.raises(ValueError, match="disconnected"):
                build_bfs_tree(g, 0)
        assert registry.counters() == {}

    def test_unknown_root_rejected(self, path5):
        with OBS.capture() as registry:
            with pytest.raises(ValueError, match="root 99 is not a node"):
                build_bfs_tree(path5, 99)
        assert registry.counters() == {}

    def test_rank(self, path5):
        tree, _ = build_bfs_tree(path5, 0)
        assert tree.rank(0) == (0, 0)
        assert tree.rank(3) == (3, 3)

    def test_children_map(self, star_graph):
        tree, _ = build_bfs_tree(star_graph, 0)
        kids = tree.children()
        assert sorted(kids[0]) == [1, 2, 3, 4, 5]
