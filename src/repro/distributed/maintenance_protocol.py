"""Distributed backbone repair for a joining node.

The message-level counterpart of :meth:`repro.cds.DynamicCDS.add_node`:
when a node powers on inside an existing network with a maintained
backbone, repair is a purely *local* protocol —

1. the joiner broadcasts ``hello``;
2. every neighbor replies with its role (backbone or not) and, if not,
   how many backbone nodes it hears (its promotion fitness);
3. if any neighbor was backbone, the joiner is dominated: done;
4. otherwise the joiner unicast-``promote``s its fittest neighbor,
   which joins the backbone and announces the new role.

Cost: ``1 + deg(joiner) (+2)`` transmissions and three rounds — O(1) in
network size, the point of local repair (a rebuild costs the whole
pipeline).  Correctness matches the centralized repair rule: the
promoted node is dominated by the old backbone, so the backbone stays
connected, and it covers the joiner.
"""

from __future__ import annotations

from typing import Hashable

from ..graphs.graph import Graph
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator

__all__ = ["distributed_join"]


class _JoinNode(NodeProcess):
    """Roles: the joiner, backbone members, and plain members."""

    def __init__(self, node_id: Hashable, joiner: Hashable, backbone: frozenset):
        super().__init__(node_id)
        self.joiner = joiner
        self.in_backbone = node_id in backbone
        self.backbone_view = backbone  # static knowledge from steady state
        self._replies: dict[Hashable, tuple[bool, int]] = {}
        self.promoted = False

    def on_start(self, ctx: Context) -> None:
        if self.node_id == self.joiner:
            ctx.broadcast("hello")

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind == "hello":
            fitness = sum(
                1 for u in ctx.neighbors if u in self.backbone_view
            )
            ctx.send(
                message.sender,
                "hello-reply",
                backbone=self.in_backbone,
                fitness=fitness,
            )
        elif message.kind == "hello-reply" and self.node_id == self.joiner:
            self._replies[message.sender] = (
                message.payload["backbone"],
                message.payload["fitness"],
            )
            if len(self._replies) == len(ctx.neighbors):
                self._decide(ctx)
        elif message.kind == "promote":
            self.promoted = True
            self.in_backbone = True
            ctx.broadcast("role-announce")

    def _decide(self, ctx: Context) -> None:
        if any(is_backbone for is_backbone, _ in self._replies.values()):
            return  # dominated; no repair needed
        best = max(
            self._replies,
            key=lambda u: (self._replies[u][1], _order_key(u)),
        )
        ctx.send(best, "promote")


def _order_key(node):
    try:
        return node
    except TypeError:  # pragma: no cover - defensive
        return repr(node)


def distributed_join(
    graph: Graph,
    joiner: Hashable,
    backbone: frozenset,
    *,
    topology: RadioTopology | None = None,
) -> tuple[frozenset, SimMetrics]:
    """Run the join-repair protocol.

    Args:
        graph: the topology *including* the joiner and its new links.
        joiner: the node that just powered on.
        backbone: the steady-state backbone before the join (must be a
            CDS of the graph without the joiner).

    Returns:
        ``(new_backbone, metrics)``.

    Raises:
        ValueError: if the joiner is unknown or isolated.
    """
    if joiner not in graph:
        raise ValueError(f"joiner {joiner!r} not in graph")
    if not graph.neighbors(joiner):
        raise ValueError("joiner has no radio neighbors")
    sim = make_simulator(
        graph,
        lambda v: _JoinNode(v, joiner, frozenset(backbone)),
        topology=topology,
    )
    metrics = sim.run()
    new_backbone = set(backbone)
    for proc in sim.processes.values():
        assert isinstance(proc, _JoinNode)
        if proc.promoted:
            new_backbone.add(proc.node_id)
    return frozenset(new_backbone), metrics
