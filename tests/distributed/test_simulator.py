"""Unit tests for the synchronous message-passing simulator."""

import dataclasses
import pickle

import pytest

from repro.distributed import Message, NodeProcess, SimMetrics, Simulator


class Echo(NodeProcess):
    """Broadcast once at start; count what is heard."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.heard = []

    def on_start(self, ctx):
        ctx.broadcast("hello", origin=self.node_id)

    def on_message(self, ctx, message):
        self.heard.append((message.sender, message.kind))


class TestDelivery:
    def test_broadcast_reaches_all_neighbors(self, star_graph):
        sim = Simulator(star_graph, Echo)
        sim.run()
        center = sim.processes[0]
        assert sorted(s for s, _ in center.heard) == [1, 2, 3, 4, 5]

    def test_messages_delivered_next_round(self, path5):
        rounds_seen = {}

        class Probe(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "ping")

            def on_message(self, ctx, message):
                rounds_seen[self.node_id] = ctx.round

        Simulator(path5, Probe).run()
        assert rounds_seen == {1: 1}

    def test_unicast_to_non_neighbor_rejected(self, path5):
        class Bad(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(4, "ping")  # not a radio neighbor

        with pytest.raises(ValueError):
            Simulator(path5, Bad).run()

    def test_quiesces_with_no_messages(self, path5):
        class Silent(NodeProcess):
            pass

        metrics = Simulator(path5, Silent).run()
        assert metrics.rounds == 0
        assert metrics.transmissions == 0


class TestMetrics:
    def test_transmission_counting(self, star_graph):
        metrics = Simulator(star_graph, Echo).run()
        # One local broadcast per node: 6 transmissions.
        assert metrics.transmissions == 6
        # Receptions = sum of degrees = 10.
        assert metrics.receptions == 10

    def test_by_kind(self, path5):
        metrics = Simulator(path5, Echo).run()
        assert metrics.by_kind["hello"] == 5

    def test_merge(self):
        a = SimMetrics(rounds=2, transmissions=3, receptions=4)
        a.by_kind["x"] = 3
        b = SimMetrics(rounds=1, transmissions=5, receptions=6)
        b.by_kind["x"] = 5
        m = a.merge(b)
        assert (m.rounds, m.transmissions, m.receptions) == (3, 8, 10)
        assert m.by_kind["x"] == 8

    def test_round_cap_raises(self, path5):
        class Chatty(NodeProcess):
            def on_start(self, ctx):
                ctx.broadcast("spam")

            def on_message(self, ctx, message):
                pass

            def on_round(self, ctx):
                ctx.broadcast("spam")

        with pytest.raises(RuntimeError):
            Simulator(path5, Chatty).run(max_rounds=10)

    def test_stay_active_keeps_running(self, path5):
        ticks = []

        class Timer(NodeProcess):
            def on_round(self, ctx):
                if self.node_id == 0 and ctx.round < 5:
                    ticks.append(ctx.round)
                    ctx.stay_active()

        class Timer0(Timer):
            def on_start(self, ctx):
                ctx.stay_active()

        Simulator(path5, Timer0).run()
        assert ticks == [1, 2, 3, 4]


class TestContext:
    def test_neighbors_view(self, path5):
        captured = {}

        class Peek(NodeProcess):
            def on_start(self, ctx):
                captured[self.node_id] = ctx.neighbors

        Simulator(path5, Peek).run()
        assert captured[2] == [1, 3]

    def test_message_fields(self, path5):
        got = []

        class Tagger(NodeProcess):
            def on_start(self, ctx):
                if self.node_id == 1:
                    ctx.send(2, "tag", value=42)

            def on_message(self, ctx, message):
                got.append(message)

        Simulator(path5, Tagger).run()
        assert len(got) == 1
        assert got[0] == Message(sender=1, kind="tag", payload={"value": 42})


class TestMessage:
    def test_frozen(self):
        message = Message(1, "tag", {"value": 42})
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.kind = "other"
        assert not hasattr(message, "__dict__")

    def test_keyword_and_positional_construction_equal(self):
        by_keyword = Message(sender=1, kind="tag", payload={"value": 42})
        by_position = Message(1, "tag", {"value": 42})
        assert by_keyword == by_position
        assert (by_position.sender, by_position.kind, by_position.payload) == (
            1,
            "tag",
            {"value": 42},
        )
        assert by_position != Message(2, "tag", {"value": 42})

    def test_hash_and_repr(self):
        # The generated field-tuple hash; a dict payload stays unhashable.
        assert hash(Message(1, "tag", ())) == hash((1, "tag", ()))
        with pytest.raises(TypeError):
            hash(Message(1, "tag", {"value": 42}))
        assert repr(Message(1, "tag", {"value": 42})) == (
            "Message(sender=1, kind='tag', payload={'value': 42})"
        )

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        message = Message(1, "tag", {"value": 42})
        again = pickle.loads(pickle.dumps(message, protocol=protocol))
        assert again == message
        assert type(again) is Message
