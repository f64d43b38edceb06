"""Distributed phase-2 protocols and the end-to-end CDS pipelines.

``distributed_waf_cds`` runs the full [10] pipeline — leader election,
BFS tree, rank-based MIS, then the tree-parent connector protocol of
Section III — entirely as message-passing state machines, and reports
the summed message/round metrics.

``distributed_greedy_cds`` runs the same first three phases and then
the Section IV max-gain connector selection as a leader-coordinated
iterative protocol built from three reusable primitives (component
label flooding over the backbone, a convergecast of the maximum gain up
the BFS tree, and a winner-announcement flood).  Each iteration's
messages are counted faithfully; the iteration loop itself is driven by
the test harness the way a real implementation's leader would drive it.

Both pipelines run on the batched round engine
(:mod:`repro.distributed.engine`; the reference engine is a test oracle
only) and intern the topology **once**: a single
:class:`~repro.distributed.simulator.RadioTopology` is threaded through
every phase — and, for the greedy, every iteration — so the O(V+E)
kernel build and receiver-tuple gather are paid once per pipeline
instead of once per simulator.  The same topology's kernel view answers
the connectivity check that rejects a disconnected input before the
first round.  The MIS phase's
node-priority order is pluggable end to end (``priority=``, see
:func:`repro.distributed.mis_protocol.make_priority`).
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..graphs.graph import Graph
from ..cds.base import CDSResult
from ..obs import OBS, trace
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator
from .leader import elect_leader
from .bfs_tree import DistributedTree, build_bfs_tree
from .mis_protocol import elect_mis

__all__ = [
    "distributed_waf_cds",
    "distributed_greedy_cds",
    "flood_min_labels",
    "convergecast_max",
    "flood_value",
]


# ---------------------------------------------------------------------------
# WAF connector phase as a single state machine.
# ---------------------------------------------------------------------------


class _WAFConnectorNode(NodeProcess):
    """State machine for Section III's connector selection.

    Prior knowledge (legitimately retained from earlier phases): the
    node's tree parent and level, whether it is a dominator, and which
    neighbors are dominators (heard during the MIS color broadcasts).
    """

    def __init__(
        self,
        node_id: Hashable,
        tree: DistributedTree,
        dominators: set,
        dominator_count: int,
    ):
        super().__init__(node_id)
        self.tree = tree
        self.is_root = node_id == tree.root
        self.is_dominator = node_id in dominators
        self.dominator_count = dominator_count
        self.is_connector = False
        self.s: Hashable | None = None
        self._replies: dict[Hashable, int] = {}
        self._flooded = False

    def on_start(self, ctx: Context) -> None:
        if self.is_root:
            ctx.broadcast("count-query")

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind == "count-query":
            ctx.send(message.sender, "count-reply", count=self.dominator_count)
        elif message.kind == "count-reply" and self.is_root:
            self._replies[message.sender] = message.payload["count"]
            if len(self._replies) == len(ctx.neighbors):
                best = max(self._replies.values())
                s = min(v for v, c in self._replies.items() if c == best)
                self.s = s
                self._flooded = True
                ctx.broadcast("s-chosen", s=s)
                self._after_s(ctx)
        elif message.kind == "s-chosen":
            if self.s is None:
                self.s = message.payload["s"]
                if not self._flooded:
                    self._flooded = True
                    ctx.broadcast("s-chosen", s=self.s)
                self._after_s(ctx)
        elif message.kind == "join":
            # A dominator child asked this node to become a connector.
            self.is_connector = True

    def _after_s(self, ctx: Context) -> None:
        if self.node_id == self.s:
            self.is_connector = True
        if (
            self.is_dominator
            and not self.is_root
            and not ctx.is_neighbor(self.s)
        ):
            ctx.send(self.tree.parent[self.node_id], "join")


def _waf_connector_phase(
    graph: Graph,
    tree: DistributedTree,
    dominators: list,
    *,
    topology: RadioTopology | None = None,
) -> tuple[list, SimMetrics]:
    topo = topology if topology is not None else RadioTopology(graph)
    dom_set = set(dominators)
    dom_count = {
        v: sum(1 for u in nbrs if u in dom_set)
        for v, nbrs in topo.receivers.items()
    }
    sim = make_simulator(
        graph,
        lambda v: _WAFConnectorNode(v, tree, dom_set, dom_count[v]),
        topology=topo,
    )
    metrics = sim.run()
    connectors = [
        p.node_id
        for p in sim.processes.values()
        if isinstance(p, _WAFConnectorNode) and p.is_connector
    ]
    return connectors, metrics


def distributed_waf_cds(
    graph: Graph,
    *,
    priority: "str | Callable[[Hashable], object] | None" = None,
    topology: RadioTopology | None = None,
) -> tuple[CDSResult, SimMetrics]:
    """The full distributed WAF pipeline.

    Returns the CDS and the merged metrics of all four phases.  One
    :class:`RadioTopology` is shared by every phase; ``priority``
    selects the MIS rank order.

    Raises:
        ValueError: on empty or disconnected input, before any round
            runs.
    """
    if len(graph) == 1:
        only = next(iter(graph))
        return (
            CDSResult(
                algorithm="waf-distributed",
                nodes=frozenset([only]),
                dominators=(only,),
                connectors=(),
            ),
            SimMetrics(),
        )
    topo = topology if topology is not None else RadioTopology(graph)
    with trace("distributed.waf"):
        leader, m1 = elect_leader(graph, topology=topo)
        tree, m2 = build_bfs_tree(graph, leader, topology=topo)
        dominators, m3 = elect_mis(graph, tree, priority=priority, topology=topo)
        connectors, m4 = _waf_connector_phase(graph, tree, dominators, topology=topo)
    metrics = m1.merge(m2).merge(m3).merge(m4)
    result = CDSResult(
        algorithm="waf-distributed",
        nodes=frozenset(dominators) | frozenset(connectors),
        dominators=tuple(dominators),
        connectors=tuple(connectors),
        meta={"leader": leader},
    )
    return result, metrics


# ---------------------------------------------------------------------------
# Primitives for the leader-coordinated greedy connector phase.
# ---------------------------------------------------------------------------


class _LabelNode(NodeProcess):
    """Flood-min labels within the backbone; every improvement is a
    local broadcast heard by backbone and candidate nodes alike."""

    def __init__(self, node_id: Hashable, in_backbone: bool):
        super().__init__(node_id)
        self.in_backbone = in_backbone
        self.label: Hashable | None = node_id if in_backbone else None
        self.heard: dict[Hashable, Hashable] = {}
        self._dirty = in_backbone

    def on_start(self, ctx: Context) -> None:
        if self._dirty:
            ctx.broadcast("label", label=self.label)
            self._dirty = False

    def on_messages(self, ctx: Context, messages: list) -> None:
        # One pass over the inbox: remember the last label heard per
        # neighbor and keep the minimum improvement, if any.
        heard = self.heard
        if self.in_backbone:
            label = self.label
            for message in messages:
                if message.kind != "label":
                    continue
                incoming = message.payload["label"]
                heard[message.sender] = incoming
                if incoming < label:
                    label = incoming
            if label != self.label:
                self.label = label
                self._dirty = True
        else:
            for message in messages:
                if message.kind == "label":
                    heard[message.sender] = message.payload["label"]

    def on_message(self, ctx: Context, message: Message) -> None:
        self.on_messages(ctx, [message])

    def on_round(self, ctx: Context) -> None:
        if self._dirty:
            ctx.broadcast("label", label=self.label)
            self._dirty = False


def flood_min_labels(
    graph: Graph,
    backbone: set,
    *,
    topology: RadioTopology | None = None,
) -> tuple[dict, dict, SimMetrics]:
    """Label the components of ``G[backbone]`` by min-id flooding.

    Labels only propagate along backbone-backbone edges, but every
    broadcast is heard by all radio neighbors, so non-backbone nodes
    finish knowing the final label of each backbone neighbor.

    Returns ``(labels, heard, metrics)``: final label per backbone
    node, and for every node the last label heard from each neighbor.
    """
    sim = make_simulator(
        graph,
        lambda v: _LabelNode(v, v in backbone),
        topology=topology,
    )
    metrics = sim.run()
    labels: dict = {}
    heard: dict = {}
    for p in sim.processes.values():
        assert isinstance(p, _LabelNode)
        if p.in_backbone:
            labels[p.node_id] = p.label
        heard[p.node_id] = dict(p.heard)
    return labels, heard, metrics


class _ConvergecastNode(NodeProcess):
    """Max-convergecast up the BFS tree: leaves report, parents merge."""

    def __init__(
        self,
        node_id: Hashable,
        tree: DistributedTree,
        children: dict,
        value: tuple,
    ):
        super().__init__(node_id)
        self.tree = tree
        self.children = children.get(node_id, [])
        self.best = value
        self._pending = set(self.children)
        self._sent = False

    def _maybe_report(self, ctx: Context) -> None:
        if self._sent or self._pending:
            return
        if self.node_id != self.tree.root:
            ctx.send(self.tree.parent[self.node_id], "report", best=self.best)
        self._sent = True

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind != "report":
            return
        self._pending.discard(message.sender)
        incoming = tuple(message.payload["best"])
        if incoming > self.best:
            self.best = incoming
        self._maybe_report(ctx)

    def on_start(self, ctx: Context) -> None:
        self._maybe_report(ctx)


def convergecast_max(
    graph: Graph,
    tree: DistributedTree,
    values: dict,
    *,
    topology: RadioTopology | None = None,
) -> tuple[tuple, SimMetrics]:
    """Aggregate the maximum of ``values`` up to the root.

    ``values[v]`` must be a comparable tuple; returns the global max as
    seen by the root, with ``n - 1`` transmissions in ``O(depth)`` rounds.
    """
    children = tree.children()
    sim = make_simulator(
        graph,
        lambda v: _ConvergecastNode(v, tree, children, tuple(values[v])),
        topology=topology,
    )
    metrics = sim.run()
    root_proc = sim.processes[tree.root]
    assert isinstance(root_proc, _ConvergecastNode)
    return root_proc.best, metrics


class _FloodNode(NodeProcess):
    """One-shot network-wide flood of a value from an origin."""

    def __init__(self, node_id: Hashable, origin: Hashable, value):
        super().__init__(node_id)
        self.origin = origin
        self.value = value if node_id == origin else None

    def on_start(self, ctx: Context) -> None:
        if self.node_id == self.origin:
            ctx.broadcast("flood", value=self.value)

    def on_messages(self, ctx: Context, messages: list) -> None:
        # Only the first ``flood`` in arrival order counts; a node that
        # already holds the value skips its inbox unread.
        if self.value is None:
            for message in messages:
                if message.kind == "flood":
                    self.on_message(ctx, message)
                    return

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind == "flood" and self.value is None:
            self.value = message.payload["value"]
            ctx.broadcast("flood", value=self.value)


def flood_value(
    graph: Graph,
    origin: Hashable,
    value,
    *,
    topology: RadioTopology | None = None,
) -> SimMetrics:
    """Flood ``value`` from ``origin`` to everyone: n transmissions."""
    sim = make_simulator(
        graph,
        lambda v: _FloodNode(v, origin, value),
        topology=topology,
    )
    return sim.run()


def distributed_greedy_cds(
    graph: Graph,
    *,
    priority: "str | Callable[[Hashable], object] | None" = None,
    topology: RadioTopology | None = None,
) -> tuple[CDSResult, SimMetrics]:
    """The Section IV algorithm as a leader-coordinated protocol.

    Per iteration: flood component labels over the current backbone,
    convergecast each candidate's gain (distinct adjacent labels minus
    one) to the root, and flood the winner, which joins the backbone.
    Repeats until one component remains.  The metrics sum every phase
    and iteration; the shared topology makes each iteration's three
    sub-simulations reuse one interned kernel.

    Raises:
        ValueError: on empty or disconnected input, before any round
            runs.
    """
    if len(graph) == 1:
        only = next(iter(graph))
        return (
            CDSResult(
                algorithm="greedy-distributed",
                nodes=frozenset([only]),
                dominators=(only,),
                connectors=(),
            ),
            SimMetrics(),
        )
    topo = topology if topology is not None else RadioTopology(graph)
    with trace("distributed.greedy.setup"):
        leader, m1 = elect_leader(graph, topology=topo)
        tree, m2 = build_bfs_tree(graph, leader, topology=topo)
        dominators, m3 = elect_mis(graph, tree, priority=priority, topology=topo)
    metrics = m1.merge(m2).merge(m3)

    receivers = topo.receivers
    backbone: set = set(dominators)
    connectors: list = []
    iterations = 0
    while True:
        iterations += 1
        labels, heard, m_label = flood_min_labels(graph, backbone, topology=topo)
        metrics = metrics.merge(m_label)
        if len(set(labels.values())) <= 1:
            break
        # Each candidate's gain from the labels it heard.
        values: dict = {}
        for v, nbrs in receivers.items():
            if v in backbone:
                values[v] = (0, v)
            else:
                seen = {labels[u] for u in nbrs if u in backbone}
                values[v] = (max(0, len(seen) - 1), v)
        (best_gain, winner), m_conv = convergecast_max(
            graph, tree, values, topology=topo
        )
        metrics = metrics.merge(m_conv)
        if best_gain < 1:
            raise AssertionError("no positive gain but backbone disconnected")
        metrics = metrics.merge(
            flood_value(graph, tree.root, winner, topology=topo)
        )
        backbone.add(winner)
        connectors.append(winner)

    if OBS.enabled:
        OBS.incr("distributed.greedy.iterations", iterations)
    result = CDSResult(
        algorithm="greedy-distributed",
        nodes=frozenset(backbone),
        dominators=tuple(dominators),
        connectors=tuple(connectors),
        meta={"leader": leader},
    )
    return result, metrics
