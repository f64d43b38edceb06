"""Leader election by min-id flooding.

Both phases of [10] are initiated by a *leader*; the standard way to
get one in an ad hoc network is flooding the smallest id.  Every node
broadcasts its best-known id whenever it improves; after the flood
quiesces, the unique node whose own id equals its best-known id is the
leader.  Message complexity is ``O(n·D)`` transmissions in the worst
case (each node re-broadcasts at most once per improvement), time is
``O(D)`` rounds — both visible in the reported metrics.
"""

from __future__ import annotations

from typing import Hashable

from ..graphs.graph import Graph
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator

__all__ = ["elect_leader", "LeaderNode"]


class LeaderNode(NodeProcess):
    """Flood-min state machine."""

    def __init__(self, node_id: Hashable):
        super().__init__(node_id)
        self.best: Hashable = node_id
        self._dirty = True

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast("leader-id", best=self.best)
        self._dirty = False

    def on_messages(self, ctx: Context, messages: list) -> None:
        # One pass over the inbox, the same strict-``<`` updates as
        # ``on_message`` applied in arrival order.
        best = self.best
        for message in messages:
            candidate = message.payload["best"]
            if candidate < best:
                best = candidate
                self._dirty = True
        self.best = best

    def on_message(self, ctx: Context, message: Message) -> None:
        candidate = message.payload["best"]
        if candidate < self.best:
            self.best = candidate
            self._dirty = True

    def on_round(self, ctx: Context) -> None:
        if self._dirty:
            ctx.broadcast("leader-id", best=self.best)
            self._dirty = False

    @property
    def is_leader(self) -> bool:
        return self.best == self.node_id


def elect_leader(
    graph: Graph,
    *,
    topology: RadioTopology | None = None,
) -> tuple[Hashable, SimMetrics]:
    """Run flood-min on ``graph``; return the leader and the metrics.

    Raises:
        ValueError: if the graph is empty or disconnected (checked on
            the topology's kernel view before any round runs).
    """
    if len(graph) == 0:
        raise ValueError("cannot elect a leader on an empty graph")
    topo = topology if topology is not None else RadioTopology(graph)
    if not topo.view.is_connected():
        raise ValueError("topology is disconnected: no single leader to elect")
    sim = make_simulator(graph, LeaderNode, topology=topo)
    metrics = sim.run()
    leaders = [p.node_id for p in sim.processes.values() if p.is_leader]  # type: ignore[attr-defined]
    assert len(leaders) == 1, f"{len(leaders)} self-declared leaders"
    return leaders[0], metrics
