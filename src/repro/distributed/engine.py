"""The round engine every protocol runs on: batched, active-set.

The reference :class:`~repro.distributed.simulator.Simulator` is the
semantic baseline but pays three per-round taxes that dominate at
scale: a fresh ``Context`` and a Python call per *delivery*, a
``dict``/``list`` copy per *transmission*, and an ``on_round`` tick on
all ``n`` nodes every round even when almost all of them are idle —
the rank cascade of [10] keeps only a moving frontier busy, so at
``n = 10⁴`` upwards of 99% of those ticks are no-ops.

:class:`BatchedSimulator` removes all three while keeping
:class:`~repro.distributed.simulator.SimMetrics` and protocol outputs
bit-identical (pinned by the randomized lockstep suite in
``tests/distributed/test_engine_equivalence.py``):

* **Per-node inboxes.**  Each round's in-flight messages are grouped
  by receiver in one pass and handed over through the batch callback
  :meth:`~repro.distributed.simulator.NodeProcess.on_messages` — one
  Python call per *receiving node* instead of one per delivery, with
  each inbox in exactly the reference engine's arrival order.
* **Active set.**  Only nodes that received a message, sent one of the
  messages delivered this round, or requested ``stay_active()`` last
  round get their ``on_round`` tick, iterated in dense-id order (the
  reference engine's dict order restricted to the active nodes).
  Senders are included so a transmission nobody hears — a lone node
  broadcasting into the void — still wakes its own round tick, exactly
  as the tick-everyone engine would.  When no process class of the run
  overrides :meth:`~repro.distributed.simulator.NodeProcess.on_round`
  (flooding, convergecast, the WAF connector phase), the tick pass and
  its sort are skipped outright; the active set is still counted.
* **Kernel-backed topology.**  Neighbor lookup and ``send()``
  validation run on the shared
  :class:`~repro.distributed.simulator.RadioTopology` (interned
  :mod:`repro.graphs.backend` kernel, cached receiver tuples, O(1)
  adjacency membership), and one ``Context`` per node per run is
  reused for every callback of that run.

:func:`make_simulator` is the protocols' one construction point.  It
always builds a :class:`BatchedSimulator`; the reference engine is a
test oracle only, which the lockstep suite reaches by swapping this
module's ``BatchedSimulator`` name for ``Simulator``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Hashable

from ..graphs.graph import Graph
from ..obs import OBS
from .simulator import (
    Context,
    Message,
    NodeProcess,
    RadioTopology,
    SimMetrics,
    Simulator,
)

__all__ = ["BatchedSimulator", "make_simulator"]


class BatchedSimulator(Simulator):
    """Run one protocol over a fixed topology, batched per round.

    Drop-in for :class:`~repro.distributed.simulator.Simulator`: it
    inherits the constructor and the ``metrics`` / ``processes`` /
    ``round`` surface and overrides only :meth:`run`, with
    bit-identical results.  See the module docstring for what is
    different inside the loop.
    """

    def run(self, max_rounds: int = 10_000) -> SimMetrics:
        """Execute until quiescence or ``max_rounds``.

        Returns the metrics (also available as ``self.metrics``).

        Raises:
            RuntimeError: if the round cap is hit with work remaining —
                a protocol that fails to quiesce is a bug, not a result.
        """
        processes = self.processes
        contexts = {v: Context(self, v) for v in processes}
        metrics = self.metrics
        order_of = self.topology.order_of
        ordered = list(processes)  # dense-id order == dict order
        # The tick pass runs only if some process class overrides the
        # no-op ``on_round``; the active set is counted either way.
        ticking = any(
            cls.on_round is not NodeProcess.on_round
            for cls in set(map(type, processes.values()))
        )
        node_rounds = 0
        deliver_batches = 0
        for node_id, proc in processes.items():
            proc.on_start(contexts[node_id])
        self._count_sent()
        queue = self._queue
        while queue or self._active_requests:
            if self.round >= max_rounds:
                raise RuntimeError(
                    f"protocol did not quiesce within {max_rounds} rounds"
                )
            self.round += 1
            metrics.rounds = self.round
            # Requests made during last round's callbacks (including
            # on_message) define this round's standing activity; the
            # set is re-armed before any delivery, so a stay_active()
            # from inside on_messages lands in the *next* round's set.
            requested = self._active_requests
            self._active_requests = set()
            inflight = queue
            self._queue = queue = deque()
            # Group this round's deliveries into per-node inboxes, in
            # global queue order — each inbox ends up in exactly the
            # arrival order the per-message engine would produce.
            inboxes: defaultdict[Hashable, list[Message]] = defaultdict(list)
            senders: set[Hashable] = set()
            receptions = 0
            for sender, receivers, kind, payload in inflight:
                senders.add(sender)
                msg = Message(sender, kind, payload)
                receptions += len(receivers)
                for r in receivers:
                    inboxes[r].append(msg)
            metrics.receptions += receptions
            deliver_batches += len(inboxes)
            for node_id, box in inboxes.items():
                processes[node_id].on_messages(contexts[node_id], box)
            # Round tick, active nodes only, in reference dict order.
            if requested:
                senders.update(requested)
            senders.update(inboxes)
            node_rounds += len(senders)
            if ticking:
                if len(senders) == len(ordered):
                    active = ordered
                else:
                    active = sorted(senders, key=order_of.__getitem__)
                for node_id in active:
                    processes[node_id].on_round(contexts[node_id])
            self._count_sent()
            if self.round_log is not None:
                self.round_log.append(
                    (metrics.transmissions, metrics.receptions)
                )
        self._mirror_totals()
        if OBS.enabled:
            OBS.incr("sim.batch.node_rounds", node_rounds)
            OBS.incr("sim.batch.deliver_batches", deliver_batches)
        return metrics


def make_simulator(
    graph: Graph,
    factory: Callable[[Hashable], NodeProcess],
    *,
    topology: RadioTopology | None = None,
    record_rounds: bool = False,
) -> BatchedSimulator:
    """Build the round engine over ``graph`` — the protocols' seam.

    Every protocol entry point constructs its simulator here.  The
    class is looked up at call time, so a test can substitute the
    reference :class:`~repro.distributed.simulator.Simulator` and run
    the same pipelines on the oracle.
    """
    return BatchedSimulator(
        graph, factory, topology=topology, record_rounds=record_rounds
    )
