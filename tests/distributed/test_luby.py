"""Tests for Luby's randomized distributed MIS."""

from repro.distributed import build_bfs_tree, elect_mis
from repro.distributed.luby import luby_mis
from repro.graphs import Graph, is_maximal_independent_set


def labeled(fixture):
    from repro.experiments.instances import int_labeled

    _, graph = fixture
    return int_labeled(graph)


class TestLuby:
    def test_mis_on_suite(self, udg_suite):
        from repro.experiments.instances import int_labeled

        for seed, (_, graph) in enumerate(udg_suite):
            g = int_labeled(graph)
            mis, _ = luby_mis(g, seed=seed)
            assert is_maximal_independent_set(g, mis)

    def test_many_seeds_on_one_instance(self, small_udg):
        g = labeled(small_udg)
        for seed in range(20):
            mis, _ = luby_mis(g, seed=seed)
            assert is_maximal_independent_set(g, mis)

    def test_deterministic_per_seed(self, small_udg):
        g = labeled(small_udg)
        assert luby_mis(g, seed=3)[0] == luby_mis(g, seed=3)[0]

    def test_seeds_differ(self, medium_udg):
        g = labeled(medium_udg)
        results = {tuple(luby_mis(g, seed=s)[0]) for s in range(8)}
        assert len(results) > 1

    def test_single_node(self):
        mis, _ = luby_mis(Graph(nodes=[0]))
        assert mis == [0]

    def test_chain_round_advantage(self):
        # The selling point: O(log n)-ish rounds on the path, where the
        # rank cascade needs Theta(n).
        g = Graph(edges=[(i, i + 1) for i in range(59)])
        _, luby_metrics = luby_mis(g, seed=1)
        tree, _ = build_bfs_tree(g, 0)
        _, rank_metrics = elect_mis(g, tree)
        assert luby_metrics.rounds < rank_metrics.rounds / 3

    def test_message_cost_higher_than_rank(self, small_udg):
        # The tradeoff's other side: Luby re-broadcasts per phase.
        g = labeled(small_udg)
        _, luby_metrics = luby_mis(g, seed=0)
        tree, _ = build_bfs_tree(g, 0)
        _, rank_metrics = elect_mis(g, tree)
        assert luby_metrics.transmissions >= rank_metrics.transmissions - len(g)

    def test_usable_for_steiner_cds(self, small_udg):
        from repro.cds import steiner_connectors
        from repro.graphs import induced_is_connected

        g = labeled(small_udg)
        mis, _ = luby_mis(g, seed=2)
        connectors = steiner_connectors(g, mis)
        assert induced_is_connected(g, set(mis) | set(connectors))
