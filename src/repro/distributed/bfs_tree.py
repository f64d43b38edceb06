"""Distributed BFS spanning-tree construction.

The leader floods an ``explore`` wave carrying the hop level; each node
adopts the first sender it hears as its tree parent (ties within a
round broken toward the smallest sender id, making the tree — and
therefore the MIS ranks built on it — deterministic).  ``O(n)``
transmissions (each node broadcasts once), ``O(D)`` rounds.
"""

from __future__ import annotations

from typing import Hashable

from ..graphs.graph import Graph
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator

__all__ = ["build_bfs_tree", "BFSNode", "DistributedTree"]


class BFSNode(NodeProcess):
    """Explore-wave state machine."""

    def __init__(self, node_id: Hashable, root: Hashable):
        super().__init__(node_id)
        self.root = root
        self.parent: Hashable | None = None
        self.level: int | None = 0 if node_id == root else None
        self._offers: list[tuple[int, Hashable]] = []

    def on_start(self, ctx: Context) -> None:
        if self.node_id == self.root:
            ctx.broadcast("explore", level=0)

    def on_messages(self, ctx: Context, messages: list) -> None:
        # A node with a level ignores every later wave, so most inboxes
        # (the echoes from its own children) cost one test.
        if self.level is None:
            self._offers += [
                (message.payload["level"], message.sender)
                for message in messages
                if message.kind == "explore"
            ]

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind == "explore" and self.level is None:
            self._offers.append((message.payload["level"], message.sender))

    def on_round(self, ctx: Context) -> None:
        if self.level is None and self._offers:
            level, parent = min(self._offers)
            self.level = level + 1
            self.parent = parent
            ctx.broadcast("explore", level=self.level)
        self._offers.clear()


class DistributedTree:
    """The outcome of the tree phase: parent and level per node."""

    def __init__(self, root: Hashable, parent: dict, level: dict):
        self.root = root
        self.parent = parent
        self.level = level

    def rank(self, node: Hashable) -> tuple[int, Hashable]:
        """The (level, id) rank [10] orders the first-fit MIS by."""
        return (self.level[node], node)

    def children(self) -> dict:
        kids: dict[Hashable, list] = {n: [] for n in self.level}
        for node, par in self.parent.items():
            kids[par].append(node)
        return kids


def build_bfs_tree(
    graph: Graph,
    root: Hashable,
    *,
    topology: RadioTopology | None = None,
) -> tuple[DistributedTree, SimMetrics]:
    """Run the explore wave from ``root``.

    Raises:
        ValueError: if ``root`` is not a node of ``graph``, or the
            topology is disconnected (checked on the topology's kernel
            view before any round runs).
    """
    topo = topology if topology is not None else RadioTopology(graph)
    if root not in topo.view:
        raise ValueError(f"root {root!r} is not a node of the topology")
    if not topo.view.is_connected():
        raise ValueError(
            f"root {root!r} cannot reach every node: topology is disconnected"
        )
    sim = make_simulator(graph, lambda v: BFSNode(v, root), topology=topo)
    metrics = sim.run()
    parent: dict = {}
    level: dict = {}
    for proc in sim.processes.values():
        assert isinstance(proc, BFSNode)
        assert proc.level is not None, f"node {proc.node_id!r} unreachable from root"
        level[proc.node_id] = proc.level
        if proc.parent is not None:
            parent[proc.node_id] = proc.parent
    return DistributedTree(root, parent, level), metrics
