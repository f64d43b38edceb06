"""Property-based tests for the distributed protocols.

Over randomized connected topologies (integer ids): leader = min id,
distributed BFS levels = centralized hop distances, the MIS election
equals centralized first-fit in rank order and costs exactly 2n
transmissions, and both pipelines end in valid CDSs.
"""

from hypothesis import given, settings, strategies as st

from repro.distributed import (
    build_bfs_tree,
    distributed_greedy_cds,
    distributed_waf_cds,
    elect_leader,
    elect_mis,
)
from repro.graphs import (
    Graph,
    bfs_tree,
    is_maximal_independent_set,
)
from repro.mis import first_fit_mis_in_order


def connected_graphs():
    """Strategy: small connected integer-labeled graphs.

    Built from a random tree skeleton (guarantees connectivity) plus
    random extra edges.
    """

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=14))
        g = Graph(nodes=range(n))
        for v in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            g.add_edge(v, parent)
        extra = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=10,
            )
        )
        for u, v in extra:
            if u != v:
                g.add_edge(u, v)
        return g

    return build()


class TestDistributedProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_leader_is_min(self, g):
        leader, _ = elect_leader(g)
        assert leader == min(g.nodes())

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_bfs_levels_match_centralized(self, g):
        tree, metrics = build_bfs_tree(g, 0)
        assert tree.level == bfs_tree(g, 0).depth
        assert metrics.transmissions == len(g)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_mis_election_matches_rank_order_first_fit(self, g):
        tree, _ = build_bfs_tree(g, 0)
        mis, metrics = elect_mis(g, tree)
        assert is_maximal_independent_set(g, mis)
        expected = first_fit_mis_in_order(g, sorted(g.nodes(), key=tree.rank))
        assert sorted(mis) == sorted(expected)
        assert metrics.transmissions == 2 * len(g)

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_pipelines_valid(self, g):
        waf_result, _ = distributed_waf_cds(g)
        greedy_result, _ = distributed_greedy_cds(g)
        assert waf_result.is_valid(g)
        assert greedy_result.is_valid(g)

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs())
    def test_pipelines_share_phase_one(self, g):
        waf_result, _ = distributed_waf_cds(g)
        greedy_result, _ = distributed_greedy_cds(g)
        assert set(waf_result.dominators) == set(greedy_result.dominators)
