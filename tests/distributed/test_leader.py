"""Unit tests for flood-min leader election."""

import pytest

from repro.distributed import elect_leader
from repro.graphs import Graph
from repro.obs import OBS


class TestLeaderElection:
    def test_min_id_wins(self, path5):
        leader, _ = elect_leader(path5)
        assert leader == 0

    def test_min_id_wins_regardless_of_position(self):
        g = Graph(edges=[(5, 3), (3, 9), (9, 1), (1, 7)])
        leader, _ = elect_leader(g)
        assert leader == 1

    def test_single_node(self):
        leader, metrics = elect_leader(Graph(nodes=[4]))
        assert leader == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            elect_leader(Graph())

    def test_disconnected_detected(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        with OBS.capture() as registry:
            with pytest.raises(ValueError, match="disconnected"):
                elect_leader(g)
        # Rejected before round 1: no simulation ran at all.
        assert registry.counters() == {}

    def test_rounds_bounded_by_diameter_plus_constant(self, path5):
        _, metrics = elect_leader(path5)
        # Information travels one hop per round; the path has diameter 4.
        assert metrics.rounds <= 4 + 2

    def test_message_complexity_reasonable(self, medium_udg):
        from repro.experiments.instances import int_labeled

        _, graph = medium_udg
        g = int_labeled(graph)
        _, metrics = elect_leader(g)
        n = len(g)
        # Every improvement costs one broadcast; worst case O(n * D).
        assert metrics.transmissions <= n * (metrics.rounds + 1)

    def test_works_on_string_ids(self):
        g = Graph(edges=[("b", "a"), ("a", "c")])
        leader, _ = elect_leader(g)
        assert leader == "a"
