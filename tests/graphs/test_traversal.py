"""Unit tests for BFS trees and components."""

import pytest

from repro.graphs import (
    Graph,
    bfs_order,
    bfs_tree,
    connected_components,
    induced_is_connected,
    is_connected,
)


class TestBFSTree:
    def test_order_starts_at_root(self, path5):
        tree = bfs_tree(path5, 2)
        assert tree.order[0] == 2

    def test_levels(self, path5):
        tree = bfs_tree(path5, 0)
        assert tree.depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_parents_point_toward_root(self, path5):
        tree = bfs_tree(path5, 0)
        for child, parent in tree.parent.items():
            assert tree.depth[parent] == tree.depth[child] - 1
            assert path5.has_edge(child, parent)

    def test_missing_root_raises(self, path5):
        with pytest.raises(KeyError):
            bfs_tree(path5, 99)

    def test_children(self, star_graph):
        tree = bfs_tree(star_graph, 0)
        kids = tree.children()
        assert sorted(kids[0]) == [1, 2, 3, 4, 5]
        assert all(kids[i] == [] for i in range(1, 6))


    def test_covers_component_only(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        tree = bfs_tree(g, 0)
        assert set(tree.order) == {0, 1}

    def test_len(self, cycle6):
        assert len(bfs_tree(cycle6, 0)) == 6

    def test_bfs_order_deterministic(self, cycle6):
        assert bfs_order(cycle6, 0) == bfs_order(cycle6, 0)


class TestComponents:
    def test_single_component(self, cycle6):
        comps = connected_components(cycle6)
        assert len(comps) == 1
        assert set(comps[0]) == set(range(6))

    def test_multiple_components(self):
        g = Graph(edges=[(0, 1), (2, 3)], nodes=[4])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]

    def test_empty_graph(self):
        assert connected_components(Graph()) == []

    def test_is_connected(self, path5):
        assert is_connected(path5)

    def test_is_connected_false(self):
        assert not is_connected(Graph(edges=[(0, 1)], nodes=[2]))

    def test_empty_graph_not_connected(self):
        assert not is_connected(Graph())

    def test_singleton_connected(self):
        assert is_connected(Graph(nodes=[1]))

    def test_induced_is_connected(self, path5):
        assert induced_is_connected(path5, [1, 2, 3])
        assert not induced_is_connected(path5, [0, 2])
        assert not induced_is_connected(path5, [])


class TestDFSTree:
    def test_preorder_starts_at_root(self, path5):
        from repro.graphs import dfs_tree

        tree = dfs_tree(path5, 2)
        assert tree.order[0] == 2

    def test_covers_component(self, cycle6):
        from repro.graphs import dfs_tree

        assert set(dfs_tree(cycle6, 0).order) == set(range(6))

    def test_parent_precedes_child_in_preorder(self, small_udg):
        from repro.graphs import dfs_tree

        _, g = small_udg
        tree = dfs_tree(g, min(g.nodes()))
        position = {v: i for i, v in enumerate(tree.order)}
        for child, parent in tree.parent.items():
            assert position[parent] < position[child]
            assert g.has_edge(child, parent)

    def test_path_dfs_equals_bfs(self, path5):
        from repro.graphs import dfs_tree

        tree = dfs_tree(path5, 0)
        assert list(tree.order) == [0, 1, 2, 3, 4]

    def test_depth_consistent_with_parent(self, small_udg):
        from repro.graphs import dfs_tree

        _, g = small_udg
        tree = dfs_tree(g, min(g.nodes()))
        for child, parent in tree.parent.items():
            assert tree.depth[child] == tree.depth[parent] + 1

    def test_missing_root_raises(self, path5):
        import pytest

        from repro.graphs import dfs_tree

        with pytest.raises(KeyError):
            dfs_tree(path5, 99)
