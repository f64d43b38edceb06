"""Unit tests for the batched round engine and its scheduling contract."""

import gc

import pytest

from repro.distributed import (
    BatchedSimulator,
    NodeProcess,
    RadioTopology,
    SimMetrics,
    Simulator,
    build_bfs_tree,
    distributed_greedy_cds,
    distributed_join,
    distributed_waf_cds,
    elect_leader,
    elect_mis,
    make_simulator,
    run_traffic,
)
from repro.geometry import Point
from repro.obs import OBS
from repro.graphs import Graph
from repro.graphs.backend import adjacency_rows, build_kernel


class Echo(NodeProcess):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.heard = []

    def on_start(self, ctx):
        ctx.broadcast("hello", origin=self.node_id)

    def on_message(self, ctx, message):
        self.heard.append((message.sender, message.kind))


#: Both engines, for the contract tests that must hold on each.
ENGINE_CLASSES = (BatchedSimulator, Simulator)


def _captured_tree_and_mis(graph):
    with OBS.capture() as registry:
        tree, _ = build_bfs_tree(graph, 0)
        elect_mis(graph, tree)
    return registry.counters()


class TestMakeSimulator:
    def test_engine_selection(self, path5, reference_engine):
        assert isinstance(make_simulator(path5, Echo), BatchedSimulator)
        with reference_engine():
            assert isinstance(make_simulator(path5, Echo), Simulator)
        assert isinstance(make_simulator(path5, Echo), BatchedSimulator)

    def test_oracle_swap_reaches_the_protocols(self, path5, reference_engine):
        # Without the swap the protocols run batched: the batched engine
        # is the only one that records sim.batch.* counters.
        batched = _captured_tree_and_mis(path5)
        assert batched["sim.rounds"] > 0
        assert batched["sim.batch.node_rounds"] > 0
        assert batched["sim.batch.deliver_batches"] > 0
        # Under the swap they run on the reference engine, so a lockstep
        # comparison really compares two engines.
        with reference_engine():
            reference = _captured_tree_and_mis(path5)
        assert reference["sim.rounds"] == batched["sim.rounds"]
        assert not [name for name in reference if name.startswith("sim.batch.")]


class TestBatchDelivery:
    def test_on_messages_receives_whole_inbox(self, star_graph):
        inboxes = []

        class Batch(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("hello")

            def on_messages(self, ctx, messages):
                inboxes.append((self.node_id, [m.sender for m in messages]))

        BatchedSimulator(star_graph, Batch).run()
        by_node = dict(inboxes)
        # The center hears all five leaves in one batch, in id order
        # (the order their broadcasts were enqueued).
        assert by_node[0] == [1, 2, 3, 4, 5]
        assert len(inboxes) == 6  # one batch per receiving node

    def test_fallback_dispatches_per_message(self, star_graph):
        sim = BatchedSimulator(star_graph, Echo)
        sim.run()
        assert sorted(s for s, _ in sim.processes[0].heard) == [1, 2, 3, 4, 5]

    def test_inbox_order_matches_reference(self, complete4):
        orders = {}

        class Order(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                orders[node_id] = []

            def on_start(self, ctx):
                ctx.broadcast("x")

            def on_message(self, ctx, message):
                orders[self.node_id].append(message.sender)

        BatchedSimulator(complete4, Order).run()
        batched = {k: list(v) for k, v in orders.items()}
        for v in orders.values():
            v.clear()
        Simulator(complete4, Order).run()
        assert batched == orders


class TestActiveSet:
    def test_idle_nodes_not_ticked(self, path5):
        ticks = []

        class Tick(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "ping")

            def on_round(self, ctx):
                ticks.append((ctx.round, self.node_id))

        BatchedSimulator(path5, Tick).run()
        # Round 1: only the sender (0) and the receiver (1) tick; nodes
        # 2-4 never run a callback.
        assert ticks == [(1, 0), (1, 1)]

    def test_zero_receiver_broadcast_still_ticks_sender(self):
        ticks = []

        class Lone(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("shout")

            def on_round(self, ctx):
                ticks.append(ctx.round)

        metrics = BatchedSimulator(Graph(nodes=[7]), Lone).run()
        assert ticks == [1]
        assert metrics.transmissions == 1
        assert metrics.receptions == 0

    def test_active_order_is_process_order(self):
        # Insertion order 3,1,2 — the active set must tick in that
        # order, not sorted by label.
        g = Graph(nodes=[3, 1, 2])
        g.add_edge(3, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        order = []

        class Tick(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("x")

            def on_round(self, ctx):
                order.append(self.node_id)

        BatchedSimulator(g, Tick).run()
        assert order[:3] == [3, 1, 2]

    def test_stay_active_in_on_message_survives(self):
        ticks = []

        class Sticky(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "poke")

            def on_message(self, ctx, message):
                ctx.stay_active()

            def on_round(self, ctx):
                ticks.append((ctx.round, self.node_id))

        for engine in ENGINE_CLASSES:
            ticks.clear()
            g = Graph(edges=[(0, 1)])
            engine(g, Sticky).run()
            # Node 1 hears the poke in round 1 and stays active, so it
            # must still get an on_round tick in round 2 even though
            # the round began by re-arming the request set.
            assert (2, 1) in ticks, engine

    def test_round_cap_raises(self, path5):
        class Chatty(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("spam")

            def on_round(self, ctx):
                ctx.broadcast("spam")

        for engine in ENGINE_CLASSES:
            with pytest.raises(RuntimeError, match="did not quiesce"):
                engine(path5, Chatty).run(max_rounds=10)


class Relay(NodeProcess):
    """A flood that relays on reception and never overrides ``on_round``,
    so the batched engine skips its tick pass."""

    def __init__(self, node_id, origin):
        super().__init__(node_id)
        self.seen = node_id == origin

    def on_start(self, ctx):
        if self.seen:
            ctx.broadcast("flood")

    def on_message(self, ctx, message):
        if not self.seen:
            self.seen = True
            ctx.broadcast("flood")


class TickingRelay(Relay):
    """The same flood with a no-op ``on_round`` override."""

    def on_round(self, ctx):
        pass


class DelayedRelay(Relay):
    """Relays in the round tick instead, logging each acting tick."""

    def __init__(self, node_id, origin, log):
        super().__init__(node_id, origin)
        self.log = log
        self.pending = False

    def on_message(self, ctx, message):
        if not self.seen:
            self.seen = self.pending = True

    def on_round(self, ctx):
        if self.pending:
            self.pending = False
            self.log.setdefault(self.node_id, []).append(ctx.round)
            ctx.broadcast("flood")


class TestTickSkip:
    def test_skipped_ticks_still_count_node_rounds(self, small_udg):
        _, g = small_udg
        origin = next(iter(g.nodes()))
        counters = []
        for cls in (Relay, TickingRelay):
            with OBS.capture() as registry:
                BatchedSimulator(g, lambda v: cls(v, origin)).run()
            counters.append(registry.counters())
        skipped, ticked = counters
        assert skipped["sim.batch.node_rounds"] >= len(g)
        assert skipped["sim.batch.node_rounds"] == ticked["sim.batch.node_rounds"]
        assert skipped == ticked

    def test_mixed_factory_matches_reference(self, small_udg):
        _, g = small_udg
        nodes = list(g.nodes())
        origin = nodes[0]
        delayed = set(nodes[1::3])
        runs = {}
        for engine in ENGINE_CLASSES:
            log = {}

            def factory(v, log=log):
                if v in delayed:
                    return DelayedRelay(v, origin, log)
                return Relay(v, origin)

            sim = engine(g, factory, record_rounds=True)
            metrics = sim.run()
            assert all(p.seen for p in sim.processes.values())
            runs[engine] = (metrics, sim.round_log, log)
        batched, reference = runs[BatchedSimulator], runs[Simulator]
        assert batched[2], "no delayed relay ever acted"
        assert batched == reference


class TestNoCyclicGarbage:
    def test_pipelines_leave_no_cyclic_garbage(self, small_udg):
        # Every simulator must be freed by reference counting alone: a
        # simulator <-> context cycle would leave each run's processes,
        # messages and inboxes to the cyclic collector.
        _, g = small_udg
        nodes = list(g.nodes())
        joiner = Point(nodes[0].x + 0.1, nodes[0].y + 0.1)
        g2 = Graph(nodes=nodes + [joiner])
        for u, v in g.edges():
            g2.add_edge(u, v)
        g2.add_edge(joiner, nodes[0])
        flows = [(nodes[0], nodes[-1]), (nodes[1], nodes[-2])]
        gc.collect()
        gc.disable()
        try:
            leader, _ = elect_leader(g)
            build_bfs_tree(g, leader)
            distributed_waf_cds(g)
            greedy, _ = distributed_greedy_cds(g)
            run_traffic(g, sorted(greedy.nodes), flows)
            distributed_join(g2, joiner, frozenset(greedy.nodes))
            del leader, greedy
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCounting:
    def test_round_log_includes_the_rounds_own_sends(self, path5):
        class PingPong(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.pinged = False

            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "ping")

            def on_message(self, ctx, message):
                if message.kind == "ping":
                    self.pinged = True

            def on_round(self, ctx):
                if self.pinged:
                    self.pinged = False
                    ctx.broadcast("pong")

        for engine in ENGINE_CLASSES:
            sim = engine(path5, PingPong, record_rounds=True)
            metrics = sim.run()
            # Round 1 delivers the ping and sends the pong; round 2
            # delivers the pong to nodes 0 and 2.
            assert sim.round_log == [(2, 1), (2, 3)], engine
            assert metrics.by_kind == {"ping": 1, "pong": 1}, engine
            assert list(metrics.by_kind) == ["ping", "pong"], engine


class TestContextReuse:
    def test_one_context_per_node(self, path5):
        seen = {}

        class Grab(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("x")
                seen.setdefault(self.node_id, set()).add(id(ctx))

            def on_message(self, ctx, message):
                seen[self.node_id].add(id(ctx))

            def on_round(self, ctx):
                seen[self.node_id].add(id(ctx))

        BatchedSimulator(path5, Grab).run()
        assert all(len(ids) == 1 for ids in seen.values())

    def test_send_validation_via_kernel(self, path5):
        class Bad(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(4, "ping")

        for engine in ENGINE_CLASSES:
            with pytest.raises(ValueError, match="cannot reach"):
                engine(path5, Bad).run()

    def test_is_neighbor(self, path5):
        probes = {}

        class Probe(NodeProcess):
            def on_start(self, ctx):
                probes[self.node_id] = (ctx.is_neighbor(1), ctx.is_neighbor(4))

        BatchedSimulator(path5, Probe).run()
        assert probes[0] == (True, False)
        assert probes[2] == (True, False)
        assert probes[3] == (False, True)


class TestRadioTopology:
    def test_receivers_match_graph_order(self, path5):
        topo = RadioTopology(path5)
        assert topo.receivers[2] == tuple(path5.neighbors(2))
        assert len(topo) == 5

    def test_shared_topology_across_engines(self, path5):
        topo = RadioTopology(path5)
        m1 = BatchedSimulator(path5, Echo, topology=topo).run()
        m2 = Simulator(path5, Echo, topology=topo).run()
        assert m1 == m2

    def test_can_reach(self, path5):
        topo = RadioTopology(path5)
        assert topo.can_reach(0, 1)
        assert not topo.can_reach(0, 2)
        with pytest.raises(KeyError):
            topo.can_reach(99, 0)

    def test_adjacency_rows_all_kernels(self, small_udg):
        _, g = small_udg
        expected = None
        for kernel in ("indexed", "bitset", "array"):
            view = build_kernel(g, kernel)
            rows = [list(row) for row in adjacency_rows(view)]
            if expected is None:
                expected = rows
            else:
                assert rows == expected, kernel

    def test_adjacency_rows_rejects_plain_graph(self, path5):
        with pytest.raises(TypeError, match="kernel view"):
            adjacency_rows(path5)


class TestMetricsMerge:
    def test_merge_sequential_totals(self):
        a = SimMetrics(rounds=2, transmissions=3, receptions=4)
        a.by_kind["x"] = 3
        b = SimMetrics(rounds=5, transmissions=7, receptions=1)
        b.by_kind["x"] = 2
        b.by_kind["y"] = 7
        m = a.merge(b)
        assert (m.rounds, m.transmissions, m.receptions) == (7, 10, 5)
        assert m.by_kind == {"x": 5, "y": 7}
        # Inputs untouched.
        assert a.rounds == 2 and b.by_kind["y"] == 7
