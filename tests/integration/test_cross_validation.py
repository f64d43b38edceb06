"""Cross-validation: our implementations against networkx and against
each other (centralized vs distributed renditions of the same phases)."""

import networkx as nx

from repro.cds import greedy_connector_cds, waf_cds
from repro.distributed import (
    build_bfs_tree,
    distributed_greedy_cds,
    distributed_waf_cds,
    elect_leader,
)
from repro.experiments.instances import int_labeled
from repro.graphs import (
    bfs_tree,
    is_connected,
)
from tests.nx_bridge import to_networkx


class TestAgainstNetworkx:
    def test_connectivity_agrees(self, udg_suite):
        for _, g in udg_suite:
            assert nx.is_connected(to_networkx(g)) == is_connected(g)

    def test_bfs_depths_agree(self, udg_suite):
        for _, g in udg_suite:
            root = min(g.nodes())
            ours = bfs_tree(g, root).depth
            theirs = nx.single_source_shortest_path_length(to_networkx(g), root)
            assert ours == dict(theirs)

    def test_our_cds_is_nx_dominating_and_connected(self, udg_suite):
        for _, g in udg_suite:
            nxg = to_networkx(g)
            for result in (waf_cds(g), greedy_connector_cds(g)):
                assert nx.is_dominating_set(nxg, set(result.nodes))
                assert nx.is_connected(nxg.subgraph(result.nodes))

    def test_mis_is_nx_maximal_independent(self, udg_suite):
        from repro.mis import first_fit_mis

        for _, g in udg_suite:
            nxg = to_networkx(g)
            mis = set(first_fit_mis(g).nodes)
            # Independent in networkx terms:
            assert all(
                not nxg.has_edge(u, v) for u in mis for v in mis if u != v
            )
            # Maximal: every node in or adjacent.
            assert nx.is_dominating_set(nxg, mis)


class TestDistributedVsCentralized:
    def test_leader_is_min_node(self, udg_suite):
        for _, graph in udg_suite:
            g = int_labeled(graph)
            leader, _ = elect_leader(g)
            assert leader == min(g.nodes())

    def test_tree_levels_match(self, udg_suite):
        for _, graph in udg_suite:
            g = int_labeled(graph)
            distributed, _ = build_bfs_tree(g, 0)
            centralized = bfs_tree(g, 0)
            assert distributed.level == centralized.depth

    def test_pipelines_sizes_comparable(self, udg_suite):
        # Rank order (distributed) vs queue order (centralized) differ,
        # so exact equality is not expected; sizes must stay close and
        # both valid. A gap beyond 30% would indicate a protocol bug.
        for _, graph in udg_suite:
            g = int_labeled(graph)
            d_waf, _ = distributed_waf_cds(g)
            c_waf = waf_cds(g)
            assert d_waf.is_valid(g) and c_waf.is_valid(g)
            assert abs(d_waf.size - c_waf.size) <= max(4, 0.5 * c_waf.size)

    def test_greedy_pipeline_matches_gain_semantics(self, udg_suite):
        from repro.cds import gain_of

        for _, graph in udg_suite[:4]:
            g = int_labeled(graph)
            result, _ = distributed_greedy_cds(g)
            included = set(result.dominators)
            for w in result.connectors:
                # Each winner had the max gain at its selection time.
                best = max(
                    gain_of(g, included, x) for x in g.nodes() if x not in included
                )
                assert gain_of(g, included, w) == best
                included.add(w)
