"""Randomized engine-equivalence suite: batched vs reference, lockstep.

The correctness spine of the batched round engine, in the style of the
kernel-equivalence suites of PRs 2/3/7: every protocol runs on the
batched engine and, inside the ``reference_engine`` fixture's swap, on
the reference oracle over randomized connected topologies, and the
comparison is *per-round* — ``record_rounds=True`` captures the running
(transmissions, receptions) totals after each round, so a divergence
pinpoints the first round where the schedules differ rather than just
the final totals.
"""

import random

import pytest

from repro.distributed import (
    Simulator,
    BatchedSimulator,
    build_bfs_tree,
    distributed_greedy_cds,
    distributed_join,
    distributed_waf_cds,
    elect_leader,
    elect_mis,
    luby_mis,
    run_traffic,
)
from repro.graphs import Graph


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A connected random graph: spanning-tree skeleton plus extras."""
    nodes = list(range(n))
    g = Graph(nodes=nodes)
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    for _ in range(rng.randrange(0, 2 * n)):
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def lockstep(graph, factory, max_rounds: int = 10_000):
    """Run both engines with per-round recording; assert bit-identical
    traces and final metrics; return both simulators."""
    ref = Simulator(graph, factory, record_rounds=True)
    bat = BatchedSimulator(graph, factory, record_rounds=True)
    m_ref = ref.run(max_rounds=max_rounds)
    m_bat = bat.run(max_rounds=max_rounds)
    assert bat.round_log == ref.round_log
    assert m_bat == m_ref
    return ref, bat


SEEDS = range(12)


class TestLockstepProtocols:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_pipelines_bit_identical(self, seed, reference_engine):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randrange(2, 40))

        with reference_engine():
            leader_r, ml_r = elect_leader(g)
        leader_b, ml_b = elect_leader(g)
        assert (leader_r, ml_r) == (leader_b, ml_b)

        with reference_engine():
            tree_r, mt_r = build_bfs_tree(g, leader_r)
        tree_b, mt_b = build_bfs_tree(g, leader_b)
        assert (tree_r.parent, tree_r.level, mt_r) == (
            tree_b.parent,
            tree_b.level,
            mt_b,
        )

        with reference_engine():
            waf_r, mw_r = distributed_waf_cds(g)
        waf_b, mw_b = distributed_waf_cds(g)
        assert waf_r.nodes == waf_b.nodes
        assert waf_r.dominators == waf_b.dominators
        assert sorted(waf_r.connectors) == sorted(waf_b.connectors)
        assert mw_r == mw_b

        with reference_engine():
            greedy_r, mg_r = distributed_greedy_cds(g)
        greedy_b, mg_b = distributed_greedy_cds(g)
        assert greedy_r.nodes == greedy_b.nodes
        assert greedy_r.connectors == greedy_b.connectors
        assert mg_r == mg_b

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("priority", [None, "degree"])
    def test_mis_all_priorities(self, seed, priority, reference_engine):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randrange(2, 40))
        tree, _ = build_bfs_tree(g, 0)
        with reference_engine():
            mis_r, m_r = elect_mis(g, tree, priority=priority)
        mis_b, m_b = elect_mis(g, tree, priority=priority)
        assert (mis_r, m_r) == (mis_b, m_b)

    @pytest.mark.parametrize("seed", range(6))
    def test_luby_bit_identical(self, seed, reference_engine):
        rng = random.Random(1000 + seed)
        g = random_connected_graph(rng, rng.randrange(2, 30))
        with reference_engine():
            reference = luby_mis(g, seed=seed)
        assert reference == luby_mis(g, seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_traffic_bit_identical(self, seed, reference_engine):
        rng = random.Random(2000 + seed)
        n = rng.randrange(4, 25)
        g = random_connected_graph(rng, n)
        backbone, _ = distributed_greedy_cds(g)
        flows = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 8))
        ]
        with reference_engine():
            s_r = run_traffic(g, sorted(backbone.nodes), flows)
        s_b = run_traffic(g, sorted(backbone.nodes), flows)
        assert (s_r.delivered, s_r.mean_delay, s_r.max_delay, s_r.max_queue) == (
            s_b.delivered,
            s_b.mean_delay,
            s_b.max_delay,
            s_b.max_queue,
        )
        assert s_r.metrics == s_b.metrics

    @pytest.mark.parametrize("seed", range(6))
    def test_join_repair_bit_identical(self, seed, reference_engine):
        rng = random.Random(3000 + seed)
        n = rng.randrange(4, 25)
        g = random_connected_graph(rng, n)
        backbone, _ = distributed_greedy_cds(g)
        joiner = n
        g2 = Graph(nodes=list(g.nodes()) + [joiner])
        for u, v in g.edges():
            g2.add_edge(u, v)
        for u in rng.sample(range(n), rng.randrange(1, min(4, n))):
            g2.add_edge(joiner, u)
        with reference_engine():
            out_r = distributed_join(g2, joiner, frozenset(backbone.nodes))
        out_b = distributed_join(g2, joiner, frozenset(backbone.nodes))
        assert out_r == out_b


class TestLockstepTraces:
    """Per-round traces on synthetic protocols built to stress the
    active-set scheduling — not just the shipped protocols."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_gossip_lockstep(self, seed):
        rng = random.Random(4000 + seed)
        g = random_connected_graph(rng, rng.randrange(2, 30))
        fanout = rng.randrange(1, 4)

        class Gossip:
            """Deterministic pseudo-random forwarding."""

            def __new__(cls, node_id):
                from repro.distributed import NodeProcess

                class _G(NodeProcess):
                    def __init__(self, nid):
                        super().__init__(nid)
                        self.budget = 3

                    def on_start(self, ctx):
                        if self.node_id == 0:
                            ctx.broadcast("seed", hops=0)

                    def on_message(self, ctx, message):
                        hops = message.payload["hops"]
                        if self.budget > 0 and hops < fanout:
                            self.budget -= 1
                            ctx.broadcast("seed", hops=hops + 1)

                return _G(node_id)

        lockstep(g, Gossip)

    @pytest.mark.parametrize("seed", range(4))
    def test_timer_protocol_lockstep(self, seed):
        rng = random.Random(5000 + seed)
        g = random_connected_graph(rng, rng.randrange(2, 20))
        from repro.distributed import NodeProcess

        class Countdown(NodeProcess):
            """stay_active-driven timers with a final broadcast."""

            def __init__(self, node_id):
                super().__init__(node_id)
                self.left = node_id % 4

            def on_start(self, ctx):
                if self.left:
                    ctx.stay_active()

            def on_round(self, ctx):
                if self.left:
                    self.left -= 1
                    if self.left:
                        ctx.stay_active()
                    else:
                        ctx.broadcast("done")

        lockstep(g, Countdown)
