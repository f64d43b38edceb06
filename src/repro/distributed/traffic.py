"""Store-and-forward unicast traffic over a backbone.

The routing module computes paths combinatorially; this protocol
actually *transports* packets on the radio simulator, with the
constraint that a node transmits at most one packet per round
(half-duplex store-and-forward).  Packets queue at relays, so the
measured delivery times include the contention a small backbone
concentrates — the cost side of the CDS tradeoff that the pure
path-length view hides.

Usage::

    stats = run_traffic(graph, backbone, flows)
    stats.delivered, stats.mean_delay, stats.max_queue
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from ..graphs.graph import Graph
from ..routing.backbone import BackboneRouter
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator

__all__ = ["TrafficStats", "run_traffic"]


@dataclass
class TrafficStats:
    """Outcome of one traffic run."""

    delivered: int
    total: int
    mean_delay: float
    max_delay: int
    max_queue: int
    metrics: SimMetrics = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def all_delivered(self) -> bool:
        return self.delivered == self.total


class _RelayNode(NodeProcess):
    """Forward queued packets along precomputed source routes,
    one transmission per round."""

    def __init__(self, node_id: Hashable, initial: list[tuple[int, list]]):
        super().__init__(node_id)
        # Each queue entry: (packet_id, remaining_path) where
        # remaining_path[0] is the next hop.
        self.queue: deque[tuple[int, list]] = deque(initial)
        self.delivered: dict[int, int] = {}
        self.max_queue = len(self.queue)

    def on_start(self, ctx: Context) -> None:
        self._pump(ctx)

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind != "packet":
            return
        packet_id = message.payload["packet_id"]
        remaining = list(message.payload["remaining"])
        if not remaining:
            self.delivered[packet_id] = ctx.round
            return
        self.queue.append((packet_id, remaining))
        self.max_queue = max(self.max_queue, len(self.queue))

    def on_round(self, ctx: Context) -> None:
        self._pump(ctx)

    def _pump(self, ctx: Context) -> None:
        if not self.queue:
            return
        packet_id, remaining = self.queue.popleft()
        next_hop = remaining[0]
        ctx.send(next_hop, "packet", packet_id=packet_id, remaining=remaining[1:])
        if self.queue:
            ctx.stay_active()


def run_traffic(
    graph: Graph,
    backbone: Iterable[Hashable],
    flows: Sequence[tuple[Hashable, Hashable]],
    max_rounds: int = 10_000,
    *,
    topology: RadioTopology | None = None,
) -> TrafficStats:
    """Transport one packet per flow over the backbone.

    Args:
        graph: the topology.
        backbone: a CDS of ``graph`` (routes are backbone-interior).
        flows: (source, target) pairs; one packet each, all injected at
            round 0.

    Returns:
        Delivery statistics plus the raw simulator metrics.

    Raises:
        ValueError: if the backbone is not a CDS (router refuses it).
    """
    router = BackboneRouter(graph, backbone)
    initial: dict[Hashable, list[tuple[int, list]]] = {v: [] for v in graph.nodes()}
    expected_receiver: dict[int, Hashable] = {}
    for packet_id, (source, target) in enumerate(flows):
        path = router.route(source, target)
        if len(path) == 1:
            continue  # self-flow: delivered trivially, excluded below
        initial[source].append((packet_id, path[1:]))
        expected_receiver[packet_id] = target

    sim = make_simulator(
        graph, lambda v: _RelayNode(v, initial[v]), topology=topology
    )
    metrics = sim.run(max_rounds=max_rounds)

    delays: list[int] = []
    max_queue = 0
    for proc in sim.processes.values():
        assert isinstance(proc, _RelayNode)
        max_queue = max(max_queue, proc.max_queue)
        for packet_id, arrival in proc.delivered.items():
            assert expected_receiver[packet_id] == proc.node_id
            delays.append(arrival)
    total = len(expected_receiver)
    return TrafficStats(
        delivered=len(delays),
        total=total,
        mean_delay=(sum(delays) / len(delays)) if delays else 0.0,
        max_delay=max(delays, default=0),
        max_queue=max_queue,
        metrics=metrics,
    )
