"""Distributed rank-based MIS election — phase 1 of [10].

Every node carries a totally-ordered *rank*; the election cascades:

* a node all of whose lower-ranked neighbors have announced DOMINATEE
  becomes a DOMINATOR (the lowest-ranked node overall starts the
  cascade — it has no lower-ranked neighbor);
* a node hearing any neighbor announce DOMINATOR becomes a DOMINATEE.

Each node broadcasts its rank once and its final color once, so the
protocol uses exactly ``2n`` transmissions; time is ``O(n)`` rounds in
the worst case (a chain).  The result is precisely the first-fit MIS in
rank order.

The rank itself is pluggable (:func:`make_priority`): the paper's
``(level, id)`` BFS rank is the default, and any *level-major* order —
same BFS level first, then any tiebreak, e.g. the ``"degree"`` priority
``(level, -degree, id)`` — preserves both properties phase 2 needs:
adjacent BFS levels guarantee every dominator is within two hops of a
lower-ranked one, and first-fit in a level-major order keeps the MIS
independent with the leader in it.  Custom callables are tie-broken by
the BFS rank so the order stays total; callers picking a
non-level-major order get a valid MIS but forfeit the paper's phase-2
size bounds (see ``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..graphs.graph import Graph
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator
from .bfs_tree import DistributedTree

__all__ = ["PRIORITIES", "elect_mis", "make_priority", "MISNode"]

UNDECIDED = "undecided"
DOMINATOR = "dominator"
DOMINATEE = "dominatee"

#: Named node-priority orders for the MIS election.  Both are
#: level-major, so the paper's phase-2 analyses keep holding.
PRIORITIES = ("bfs-rank", "degree")


def make_priority(
    priority: "str | Callable[[Hashable], object] | None",
    tree: DistributedTree,
    topology: RadioTopology,
) -> dict[Hashable, tuple]:
    """Resolve a priority spec to the per-node rank map.

    ``priority`` is ``None`` / ``"bfs-rank"`` (the paper's
    ``(level, id)`` order), ``"degree"`` (``(level, -degree, id)`` —
    denser nodes win within a BFS level, a common energy/coverage
    heuristic), or a callable mapping a node id to any comparable value
    (swept learned priorities, energy levels, ...).  Callable values
    are suffixed with the BFS rank, which makes the order total even
    when the callable ties — uniqueness is what keeps adjacent nodes
    from electing each other simultaneously.

    Raises:
        ValueError: on an unknown priority name.
    """
    if priority is None or priority == "bfs-rank":
        return {v: tree.rank(v) for v in topology.receivers}
    if priority == "degree":
        return {
            v: (tree.level[v], -len(topology.receivers[v]), v)
            for v in topology.receivers
        }
    if callable(priority):
        return {v: (priority(v), *tree.rank(v)) for v in topology.receivers}
    raise ValueError(
        f"unknown priority {priority!r}; expected one of {PRIORITIES} or a callable"
    )


class MISNode(NodeProcess):
    """Rank-cascade state machine.

    Decision state is two integers maintained incrementally as messages
    arrive — ranks still missing, and lower-ranked neighbors that have
    not yet announced DOMINATEE — so the ``on_round`` check is O(1)
    instead of rescanning the whole neighbor-rank table every round
    (the rescan made the cascade O(Δ²) per node on the old engine).
    """

    __slots__ = (
        "rank",
        "state",
        "_neighbor_rank",
        "_ranks_missing",
        "_lower_pending",
        "_announced",
    )

    def __init__(self, node_id: Hashable, rank: tuple, degree: int):
        super().__init__(node_id)
        self.rank = rank
        self.state = UNDECIDED
        self._neighbor_rank: dict[Hashable, tuple] = {}
        self._ranks_missing = degree
        self._lower_pending = 0
        self._announced = False

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast("rank", rank=self.rank)

    def on_messages(self, ctx: Context, messages: list) -> None:
        # Primary handler: one pass over the round's inbox.  Ranks
        # always precede colors from the same sender (rank lands in
        # round 1, the earliest color in round 2), so the incremental
        # counters never see a color from an unknown-rank neighbor.
        rank = self.rank
        neighbor_rank = self._neighbor_rank
        for message in messages:
            kind = message.kind
            if kind == "rank":
                incoming = tuple(message.payload["rank"])
                neighbor_rank[message.sender] = incoming
                self._ranks_missing -= 1
                if incoming < rank:
                    self._lower_pending += 1
            elif kind == "color":
                color = message.payload["color"]
                if color == DOMINATOR:
                    if self.state == UNDECIDED:
                        self.state = DOMINATEE
                elif neighbor_rank[message.sender] < rank:
                    self._lower_pending -= 1

    def on_message(self, ctx: Context, message: Message) -> None:
        self.on_messages(ctx, [message])

    def on_round(self, ctx: Context) -> None:
        if self.state == UNDECIDED:
            if self._ranks_missing or self._lower_pending:
                return
            self.state = DOMINATOR
        if not self._announced:
            ctx.broadcast("color", color=self.state)
            self._announced = True


def elect_mis(
    graph: Graph,
    tree: DistributedTree,
    *,
    priority: "str | Callable[[Hashable], object] | None" = None,
    topology: RadioTopology | None = None,
) -> tuple[list[Hashable], SimMetrics]:
    """Run the MIS election over an already-built BFS tree.

    Returns the dominators sorted by their rank (the selection order —
    ``(level, id)`` under the default priority) and the run metrics.

    Args:
        graph: the topology.
        tree: the BFS tree whose levels anchor the rank.
        priority: node-priority order — see :func:`make_priority`.
        topology: optional shared :class:`RadioTopology` of ``graph``.

    Raises:
        AssertionError: if any node finishes undecided (cannot happen on
            a connected topology — it would indicate a simulator bug).
    """
    topo = topology if topology is not None else RadioTopology(graph)
    rank_of = make_priority(priority, tree, topo)
    receivers = topo.receivers
    sim = make_simulator(
        graph,
        lambda v: MISNode(v, rank_of[v], len(receivers[v])),
        topology=topo,
    )
    metrics = sim.run()
    dominators = []
    for proc in sim.processes.values():
        assert isinstance(proc, MISNode)
        if proc.state == UNDECIDED:
            raise AssertionError(f"node {proc.node_id!r} finished undecided")
        if proc.state == DOMINATOR:
            dominators.append(proc.node_id)
    dominators.sort(key=rank_of.__getitem__)
    return dominators, metrics
