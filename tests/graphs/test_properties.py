"""Unit tests for the set-property validators."""

import pytest

from repro.graphs import (
    Graph,
    has_two_hop_separation,
    is_connected_dominating_set,
    is_dominating_set,
    is_independent_set,
    is_m_dominating_set,
    is_m_fold_cds,
    is_maximal_independent_set,
    m_deficient_nodes,
    survives_node_removal,
    undominated_nodes,
)


class TestDomination:
    def test_center_dominates_star(self, star_graph):
        assert is_dominating_set(star_graph, [0])

    def test_leaf_does_not(self, star_graph):
        assert not is_dominating_set(star_graph, [1])

    def test_undominated_nodes(self, path5):
        assert undominated_nodes(path5, [0]) == [2, 3, 4]

    def test_whole_vertex_set_dominates(self, cycle6):
        assert is_dominating_set(cycle6, range(6))

    def test_foreign_nodes_rejected(self, path5):
        assert not is_dominating_set(path5, [0, 99])

    def test_empty_set_on_nonempty_graph(self, path5):
        assert not is_dominating_set(path5, [])


class TestIndependence:
    def test_alternating_path_nodes(self, path5):
        assert is_independent_set(path5, [0, 2, 4])

    def test_adjacent_pair_rejected(self, path5):
        assert not is_independent_set(path5, [0, 1])

    def test_empty_is_independent(self, path5):
        assert is_independent_set(path5, [])

    def test_foreign_nodes_rejected(self, path5):
        assert not is_independent_set(path5, [99])

    def test_duplicates_tolerated(self, path5):
        assert is_independent_set(path5, [0, 0, 2])


class TestMaximalIndependence:
    def test_mis_on_path(self, path5):
        assert is_maximal_independent_set(path5, [0, 2, 4])

    def test_non_maximal_rejected(self, path5):
        assert not is_maximal_independent_set(path5, [0])  # 2,3,4 undominated
        assert not is_maximal_independent_set(path5, [2])  # 0,4 undominated

    def test_non_independent_rejected(self, path5):
        assert not is_maximal_independent_set(path5, [0, 1, 3])

    def test_mis_equivalence_with_domination(self, cycle6):
        # For independent sets, maximality == domination.
        mis = [0, 2, 4]
        assert is_independent_set(cycle6, mis)
        assert is_dominating_set(cycle6, mis)
        assert is_maximal_independent_set(cycle6, mis)


class TestTwoHopSeparation:
    def test_path_mis_has_it(self, path5):
        assert has_two_hop_separation(path5, [0, 2, 4])

    def test_far_apart_independent_set_lacks_it(self):
        g = Graph(edges=[(i, i + 1) for i in range(6)])  # path of 7
        assert not has_two_hop_separation(g, [0, 6])

    def test_every_member_near_another_is_not_enough(self):
        # On the path 0-...-7, each of 0, 2, 5, 7 has a member two hops
        # away, but {0, 2} and {5, 7} are three hops apart.
        g = Graph(edges=[(i, i + 1) for i in range(7)])  # path of 8
        assert not has_two_hop_separation(g, [0, 2, 5, 7])
        assert has_two_hop_separation(g, [0, 2, 4, 6])

    def test_small_sets_trivially_pass(self, path5):
        assert has_two_hop_separation(path5, [])
        assert has_two_hop_separation(path5, [2])


class TestCDS:
    def test_path_interior(self, path5):
        assert is_connected_dominating_set(path5, [1, 2, 3])

    def test_disconnected_dominating_set_rejected(self, path5):
        assert not is_connected_dominating_set(path5, [1, 3])

    def test_connected_non_dominating_rejected(self, path5):
        assert not is_connected_dominating_set(path5, [0, 1])

    def test_empty_rejected(self, path5):
        assert not is_connected_dominating_set(path5, [])

    def test_single_node_graph(self):
        g = Graph(nodes=["v"])
        assert is_connected_dominating_set(g, ["v"])

    def test_single_dominator(self, star_graph):
        assert is_connected_dominating_set(star_graph, [0])

    def test_bridge_graph(self, two_triangles_bridge):
        assert is_connected_dominating_set(two_triangles_bridge, [2, 3])
        assert not is_connected_dominating_set(two_triangles_bridge, [0, 4])


class TestMFoldDomination:
    def test_m1_coincides_with_is_dominating_set(self, path5, star_graph):
        for g in (path5, star_graph):
            for cand in ([0], [1], [1, 3], list(g.nodes())):
                assert is_m_dominating_set(g, cand, 1) == is_dominating_set(
                    g, cand
                ), cand

    def test_star_center_alone_fails_m2(self, star_graph):
        # every leaf has only one neighbor in {0}
        assert is_m_dominating_set(star_graph, [0], 1)
        assert not is_m_dominating_set(star_graph, [0], 2)

    def test_members_have_no_demand(self, star_graph):
        # all leaves in, center out: center has 5 dominators; leaves are
        # members so their single neighbor is irrelevant
        assert is_m_dominating_set(star_graph, [1, 2, 3, 4, 5], 2)

    def test_cycle_m2(self, cycle6):
        # alternate nodes: each outsider has exactly its 2 neighbors in
        assert is_m_dominating_set(cycle6, [0, 2, 4], 2)
        assert not is_m_dominating_set(cycle6, [0, 2], 2)

    def test_deficient_nodes_reported(self, cycle6):
        # candidate {0,2}: node 1 has both neighbors in; 3 and 5 have
        # one each; 4 has none
        assert m_deficient_nodes(cycle6, [0, 2], 2) == [3, 4, 5]
        assert m_deficient_nodes(cycle6, [0, 2, 4], 2) == []

    def test_whole_vertex_set_always_m_dominates(self, path5):
        # no outsiders, no demand — for any m
        assert is_m_dominating_set(path5, range(5), 99)

    def test_foreign_nodes_rejected(self, path5):
        assert not is_m_dominating_set(path5, [0, 99], 1)

    def test_invalid_m_raises(self, path5):
        with pytest.raises(ValueError):
            is_m_dominating_set(path5, [0], 0)


class TestMFoldCDS:
    def test_connectivity_required(self, cycle6):
        # {0,2,4} 2-dominates but is an independent set
        assert is_m_dominating_set(cycle6, [0, 2, 4], 2)
        assert not is_m_fold_cds(cycle6, [0, 2, 4], 2)
        assert is_m_fold_cds(cycle6, [0, 1, 2, 3, 4], 2)

    def test_m1_coincides_with_cds(self, path5, two_triangles_bridge):
        for g, cand in ((path5, [1, 2, 3]), (two_triangles_bridge, [2, 3])):
            assert is_m_fold_cds(g, cand, 1)
            assert is_connected_dominating_set(g, cand)

    def test_empty_rejected(self, path5):
        assert not is_m_fold_cds(path5, [], 1)

    def test_singleton_convention(self, star_graph):
        assert is_m_fold_cds(star_graph, [0], 1)
        assert not is_m_fold_cds(star_graph, [0], 2)


class TestSurvivesNodeRemoval:
    def test_cycle_survives_at_m1(self, cycle6):
        # remove any one node of the full cycle: a path remains, still
        # dominating (every node is in it)
        assert survives_node_removal(cycle6, range(6), m=1)

    def test_path_backbone_does_not_survive(self, path5):
        # killing 2 splits {1,2,3}
        assert not survives_node_removal(path5, [1, 2, 3], m=1)

    def test_singleton_never_survives(self, star_graph):
        assert not survives_node_removal(star_graph, [0], m=1)

    def test_empty_never_survives(self, path5):
        assert not survives_node_removal(path5, [], m=1)

    def test_path_shaped_backbone_splits_on_interior_kill(self, cycle6):
        # backbone {0..4} is a path in the cycle: killing 2 leaves
        # {0,1} and {3,4} disconnected
        assert not survives_node_removal(cycle6, [0, 1, 2, 3, 4], m=1)
        assert survives_node_removal(cycle6, range(6), m=2)

    def test_m2_needs_double_coverage_of_outsiders(self, complete4):
        # K4, backbone {0,1}: kill 0 and the outsiders keep exactly one
        # dominator — enough at m=1, not at m=2
        assert survives_node_removal(complete4, [0, 1], m=1)
        assert not survives_node_removal(complete4, [0, 1], m=2)
