"""Synchronous message-passing simulator for wireless ad hoc networks.

The paper's setting is *distributed* CDS construction: [10] and [1] are
analyzed in terms of message and time complexity.  This simulator
provides the standard synchronous model those analyses assume:

* time advances in rounds;
* a message sent in round ``r`` is delivered at the start of round
  ``r + 1``;
* a *local broadcast* is a single transmission heard by every
  neighbor (the wireless medium), while a *unicast* is a single
  transmission with one reception — message complexity counts
  transmissions, matching the radio-energy accounting of the papers.

Protocols subclass :class:`NodeProcess` and react to ``on_start`` /
``on_message`` / ``on_round`` — or the batch callback ``on_messages``,
which receives a node's whole per-round inbox at once (the default
implementation falls back to per-message ``on_message``, so existing
protocols run unchanged on either engine).  Two engines share this
module's contract:

* :class:`~repro.distributed.engine.BatchedSimulator` — the engine
  every protocol runs on (``distributed/engine.py``): per-node inbox
  batching plus an active set so idle nodes cost nothing.
* :class:`Simulator` — the reference engine: delivers message by
  message and ticks ``on_round`` on every node every round.  Simple,
  and kept as the test oracle the lockstep equivalence suite pins the
  batched engine against (bit-identical metrics and protocol outputs).

Both run until quiescence (no messages in flight and no node asked to
stay active) or a round cap, and record :class:`SimMetrics`.  Topology
access goes through :class:`RadioTopology` — an interned kernel view
(:mod:`repro.graphs.backend`) with the per-node receiver tuple cached
once per simulator, so a broadcast costs one queue append instead of a
neighbor-list rebuild plus copy, and ``send()`` validates against O(1)
adjacency membership instead of scanning the base graph.  When
:data:`repro.obs.OBS` is enabled, each completed run also mirrors its
totals into the registry (``sim.rounds``, ``sim.transmissions``,
``sim.receptions``, and one ``sim.msg.<kind>`` counter per message
kind).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Hashable, Mapping, TypeVar

from ..graphs.graph import Graph
from ..obs import OBS

N = TypeVar("N", bound=Hashable)

__all__ = [
    "Message",
    "SimMetrics",
    "NodeProcess",
    "Context",
    "RadioTopology",
    "Simulator",
]


@dataclass(frozen=True, slots=True, init=False)
class Message:
    """A delivered message: who sent it, its kind tag, and its payload.

    Frozen and slotted, with the generated ``==``, ``hash``, ``repr``
    and pickling.  ``__init__`` is hand-written: the engines build one
    message per transmission, and storing through the slot descriptors'
    setters costs about a third of the generated ``__init__``'s
    ``object.__setattr__`` calls.
    """

    sender: Hashable
    kind: str
    payload: Mapping[str, Any]

    def __init__(
        self, sender: Hashable, kind: str, payload: Mapping[str, Any]
    ) -> None:
        _set_sender(self, sender)
        _set_kind(self, kind)
        _set_payload(self, payload)


# The slot descriptors' setters get past the frozen ``__setattr__`` as
# ``object.__setattr__`` does, minus its by-name lookup.
_set_sender = Message.sender.__set__
_set_kind = Message.kind.__set__
_set_payload = Message.payload.__set__


@dataclass
class SimMetrics:
    """Complexity accounting for one simulation run.

    ``transmissions`` is the message complexity in the wireless model
    (one local broadcast = one transmission); ``receptions`` counts
    deliveries; ``rounds`` is the time complexity.
    """

    rounds: int = 0
    transmissions: int = 0
    receptions: int = 0
    by_kind: Counter = field(default_factory=Counter)

    def merge(self, other: "SimMetrics") -> "SimMetrics":
        """Combined metrics of sequentially-composed phases."""
        merged = SimMetrics(
            rounds=self.rounds + other.rounds,
            transmissions=self.transmissions + other.transmissions,
            receptions=self.receptions + other.receptions,
            by_kind=self.by_kind + other.by_kind,
        )
        return merged


class RadioTopology:
    """One topology, interned once, shared by every phase and engine.

    Wraps a kernel view (:class:`~repro.graphs.backend.Backend`) and
    caches what the simulators' hot paths need in *label* space:

    * ``receivers[v]`` — the per-node receiver tuple, gathered from the
      kernel's CSR rows once (adjacency insertion order preserved, so
      delivery order matches the dict-based graph exactly).  A local
      broadcast reuses this tuple; nothing is rebuilt or copied per
      call.
    * ``can_reach(u, v)`` — O(1) amortized adjacency membership for
      ``send()`` validation (per-sender frozensets materialized lazily,
      so broadcast-only protocols never pay for them).
    * ``order_of[v]`` — the dense kernel id, which is also the process
      iteration order; the batched engine sorts its active set by it so
      callback order matches the reference engine's dict order.

    Build one per topology and pass it as ``topology=`` to every
    simulator of a multi-phase pipeline to pay the O(V+E) interning
    once instead of once per phase.
    """

    __slots__ = ("graph", "view", "receivers", "order_of", "_nbr_sets")

    def __init__(self, graph: Graph, view=None):
        from ..graphs.backend import adjacency_rows, build_kernel

        self.graph = graph
        if view is None:
            view = build_kernel(graph, "indexed")
        self.view = view
        nodes = view.nodes
        self.receivers: dict[Hashable, tuple] = {
            nodes[i]: tuple(nodes[j] for j in row)
            for i, row in enumerate(adjacency_rows(view))
        }
        self.order_of: dict[Hashable, int] = {
            node: i for i, node in enumerate(nodes)
        }
        self._nbr_sets: dict[Hashable, frozenset] = {}

    def __len__(self) -> int:
        return len(self.receivers)

    def can_reach(self, sender: Hashable, receiver: Hashable) -> bool:
        """Whether ``receiver`` is in ``sender``'s radio range.

        Raises:
            KeyError: if ``sender`` is not a node of the topology.
        """
        nbrs = self._nbr_sets.get(sender)
        if nbrs is None:
            nbrs = self._nbr_sets[sender] = frozenset(self.receivers[sender])
        return receiver in nbrs


class Context:
    """The API a node process sees during a callback.

    One context per node is created when a run starts and reused for
    every callback of that run — a context is pure plumbing (simulator
    + node id), so per-delivery allocation bought nothing.  The
    simulator does not keep its contexts, so simulator and contexts
    form no reference cycle and are freed as soon as they are dropped.
    """

    __slots__ = ("_sim", "_node_id")

    def __init__(self, sim, node_id: Hashable):
        self._sim = sim
        self._node_id = node_id

    @property
    def node_id(self) -> Hashable:
        return self._node_id

    @property
    def round(self) -> int:
        return self._sim.round

    @property
    def neighbors(self) -> list:
        """Ids of this node's radio neighbors."""
        return list(self._sim.topology.receivers[self._node_id])

    def is_neighbor(self, node: Hashable) -> bool:
        """O(1) membership test against this node's radio neighborhood
        (``node in set(ctx.neighbors)`` without the set build)."""
        return self._sim.topology.can_reach(self._node_id, node)

    def send(self, to: Hashable, kind: str, **payload: Any) -> None:
        """Unicast to a neighbor (delivered next round).

        Raises:
            ValueError: if ``to`` is not a neighbor — radios cannot
                reach beyond the unit disk.
        """
        if not self._sim.topology.can_reach(self._node_id, to):
            raise ValueError(f"{self._node_id!r} cannot reach non-neighbor {to!r}")
        self._sim._queue.append((self._node_id, (to,), kind, payload))

    def broadcast(self, kind: str, **payload: Any) -> None:
        """Local broadcast to all neighbors: one transmission."""
        sim = self._sim
        sim._queue.append(
            (self._node_id, sim.topology.receivers[self._node_id], kind, payload)
        )

    def stay_active(self) -> None:
        """Keep the simulation alive even with no messages in flight.

        Needed by protocols with internal timers (e.g. waiting a known
        number of rounds); quiescence otherwise ends the run.  A
        request made during *any* callback of round ``r`` (including
        ``on_message``) keeps the node active through round ``r + 1``.
        """
        self._sim._active_requests.add(self._node_id)


class NodeProcess:
    """Base class for protocol node state machines.

    Attributes:
        node_id: this node's identifier.
    """

    def __init__(self, node_id: Hashable):
        self.node_id = node_id

    def on_start(self, ctx: Context) -> None:
        """Called once, in round 0, before any delivery."""

    def on_message(self, ctx: Context, message: Message) -> None:
        """Called for each message delivered this round."""

    def on_messages(self, ctx: Context, messages: list) -> None:
        """Batch delivery: this round's whole inbox, in arrival order.

        The batched engine calls this once per receiving node per
        round.  The default implementation dispatches per message, so
        protocols that only implement :meth:`on_message` behave
        identically on both engines; hot protocols override it to
        process the batch in one pass.
        """
        on_message = self.on_message
        for message in messages:
            on_message(ctx, message)

    def on_round(self, ctx: Context) -> None:
        """Called once per round after all deliveries of the round.

        The reference engine ticks every node; the batched engine only
        ticks *active* nodes — those that received or sent a message
        delivered this round, or requested ``stay_active()`` last
        round.  A correct protocol acts in ``on_round`` only on state
        changed by this round's deliveries or under a standing
        ``stay_active()`` request, which makes the two schedules
        indistinguishable.
        """


class Simulator:
    """The reference engine: per-message delivery, every node ticked.

    Args:
        graph: the communication topology; nodes are the process ids.
        factory: builds the :class:`NodeProcess` for each node id.
        topology: an optional prebuilt :class:`RadioTopology` (shared
            across the phases of a pipeline); built from ``graph`` when
            omitted.
        record_rounds: when true, ``round_log`` records per-round
            ``(transmissions, receptions)`` running totals — the
            lockstep trace the engine-equivalence suite compares.
    """

    def __init__(
        self,
        graph: Graph,
        factory: Callable[[Hashable], NodeProcess],
        *,
        topology: RadioTopology | None = None,
        record_rounds: bool = False,
    ):
        self.graph = graph
        self.topology = topology if topology is not None else RadioTopology(graph)
        self.processes: dict[Hashable, NodeProcess] = {
            v: factory(v) for v in graph.nodes()
        }
        self.metrics = SimMetrics()
        self.round = 0
        self.round_log: list[tuple[int, int]] | None = (
            [] if record_rounds else None
        )
        self._queue: deque[tuple[Hashable, tuple, str, Mapping[str, Any]]] = deque()
        self._active_requests: set[Hashable] = set()

    def _count_sent(self) -> None:
        """Count the transmissions of the current round in one step.

        ``Context.send``/``broadcast`` only append ``(sender, receivers,
        kind, payload)`` to ``_queue`` — ``receivers`` is the cached
        receiver tuple or a one-element unicast tuple and ``payload``
        the call's fresh kwargs dict, so neither needs a defensive copy.
        The queue then holds exactly what was sent since the round
        began, so both engines call this after ``on_start`` and at the
        end of each round, before ``round_log`` reads the totals.
        """
        queue = self._queue
        if queue:
            self.metrics.transmissions += len(queue)
            self.metrics.by_kind.update(map(itemgetter(2), queue))

    def _mirror_totals(self) -> None:
        if OBS.enabled:
            OBS.incr("sim.runs")
            OBS.incr("sim.rounds", self.metrics.rounds)
            OBS.incr("sim.transmissions", self.metrics.transmissions)
            OBS.incr("sim.receptions", self.metrics.receptions)
            for kind, count in self.metrics.by_kind.items():
                OBS.incr(f"sim.msg.{kind}", count)

    def run(self, max_rounds: int = 10_000) -> SimMetrics:
        """Execute until quiescence or ``max_rounds``.

        Returns the metrics (also available as ``self.metrics``).

        Raises:
            RuntimeError: if the round cap is hit with work remaining —
                a protocol that fails to quiesce is a bug, not a result.
        """
        contexts = {v: Context(self, v) for v in self.processes}
        for node_id, proc in self.processes.items():
            proc.on_start(contexts[node_id])
        self._count_sent()
        while self._queue or self._active_requests:
            if self.round >= max_rounds:
                raise RuntimeError(
                    f"protocol did not quiesce within {max_rounds} rounds"
                )
            self.round += 1
            self.metrics.rounds = self.round
            self._active_requests.clear()
            inflight = list(self._queue)
            self._queue.clear()
            # Deliver everything sent last round.
            for sender, receivers, kind, payload in inflight:
                msg = Message(sender, kind, payload)
                for r in receivers:
                    self.metrics.receptions += 1
                    self.processes[r].on_message(contexts[r], msg)
            # Round tick.
            for node_id, proc in self.processes.items():
                proc.on_round(contexts[node_id])
            self._count_sent()
            if self.round_log is not None:
                self.round_log.append(
                    (self.metrics.transmissions, self.metrics.receptions)
                )
        self._mirror_totals()
        return self.metrics
