"""Luby's randomized distributed MIS.

The rank-based election of [10] (``mis_protocol``) is message-optimal
(2n transmissions) but needs ``O(n)`` rounds on worst-case topologies —
the decision cascades along chains.  Luby's classic algorithm trades
messages for time: in each phase every undecided node draws a random
priority, broadcasts it, and joins the MIS iff it beat all undecided
neighbors; joiners and their neighbors retire.  Expected ``O(log n)``
phases.

Caveats vs phase 1 of the paper: the result is a maximal independent
set (so a dominating set) but has **no 2-hop-separation guarantee and
no prescribed selection order**, so the Theorem 8/10 size analyses do
not apply.  The benchmark contrasts rounds and messages against the
rank cascade; the Steiner connector phase can still build a valid CDS
on top.
"""

from __future__ import annotations

import random
from typing import Hashable

from ..graphs.graph import Graph
from .simulator import Context, Message, NodeProcess, RadioTopology, SimMetrics
from .engine import make_simulator

__all__ = ["luby_mis", "LubyNode"]

UNDECIDED = "undecided"
IN_MIS = "in-mis"
OUT = "out"


class LubyNode(NodeProcess):
    """One Luby participant.

    Each *phase* spans three rounds: draw+broadcast priorities, decide
    and announce joins, retire and announce exits.  Randomness comes
    from a node-seeded ``random.Random`` so runs are reproducible.
    """

    def __init__(self, node_id: Hashable, seed: int):
        super().__init__(node_id)
        self.state = UNDECIDED
        self.rng = random.Random((seed, node_id).__repr__())
        self.active_neighbors: set[Hashable] = set()
        self._priorities: dict[Hashable, float] = {}
        self._my_priority = 0.0
        self._phase_round = 0

    def on_start(self, ctx: Context) -> None:
        self.active_neighbors = set(ctx.neighbors)
        self._begin_phase(ctx)

    def _begin_phase(self, ctx: Context) -> None:
        if self.state != UNDECIDED:
            return
        self._priorities = {}
        self._my_priority = self.rng.random()
        ctx.broadcast("priority", value=self._my_priority)
        self._phase_round = ctx.round

    def on_message(self, ctx: Context, message: Message) -> None:
        if message.kind == "priority":
            self._priorities[message.sender] = message.payload["value"]
        elif message.kind == "joined":
            if self.state == UNDECIDED:
                self.state = OUT
                ctx.broadcast("retired")
            self.active_neighbors.discard(message.sender)
        elif message.kind == "retired":
            self.active_neighbors.discard(message.sender)

    def on_round(self, ctx: Context) -> None:
        if self.state != UNDECIDED:
            return
        ctx.stay_active()
        # Decide once all active neighbors' priorities are in.
        pending = [v for v in self.active_neighbors if v not in self._priorities]
        if not pending:
            relevant = [self._priorities[v] for v in self.active_neighbors]
            if all(self._my_priority > p for p in relevant):
                self.state = IN_MIS
                ctx.broadcast("joined")
            else:
                # Wait one round for joins to propagate, then re-draw.
                self._begin_phase(ctx)


def luby_mis(
    graph: Graph,
    seed: int = 0,
    *,
    topology: RadioTopology | None = None,
) -> tuple[list, SimMetrics]:
    """Run Luby's algorithm; return the MIS (sorted) and run metrics.

    Ties between equal priorities are broken by the draw being from a
    continuous distribution (collisions have probability ~0; a replay
    with another seed resolves the astronomically unlikely tie).
    """
    sim = make_simulator(graph, lambda v: LubyNode(v, seed), topology=topology)
    metrics = sim.run()
    mis = []
    for proc in sim.processes.values():
        assert isinstance(proc, LubyNode)
        if proc.state == IN_MIS:
            mis.append(proc.node_id)
        elif proc.state == UNDECIDED:
            raise AssertionError(f"node {proc.node_id!r} finished undecided")
    # Defense in depth: phase interleaving is subtle, so the result is
    # validated before being returned rather than trusted.
    from ..graphs.properties import is_maximal_independent_set

    if not is_maximal_independent_set(graph, mis):
        raise AssertionError("Luby run produced a non-MIS; protocol bug")
    return sorted(mis), metrics
