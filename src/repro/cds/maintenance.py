"""Dynamic CDS maintenance under topology churn.

The paper constructs a CDS once, but its setting — wireless *ad hoc*
networks — is defined by churn: nodes join, die, and move.  This
extension maintains a valid CDS across single-node joins and leaves
with local repairs, falling back to a full rebuild only when churn has
eroded the backbone's quality.

Repair rules (each preserves the CDS invariant, proven in the
docstrings and enforced by validation in tests):

* **join, dominated** — the new node hears a backbone node: nothing to do.
* **join, undominated** — every neighbor of the new node is a dominatee,
  hence adjacent to the backbone; *promoting* any such neighbor both
  dominates the new node and attaches to the existing backbone, keeping
  it connected.  We promote the neighbor with the most backbone
  neighbors (best-connected repair).
* **leave, non-backbone** — nothing to do.
* **leave, backbone** — re-dominate any orphaned nodes by promoting
  them, then reconnect the backbone fragments with shortest-path
  connectors (:func:`repro.cds.steiner.steiner_connectors`).

Local repairs only ever *add* nodes, so the backbone degrades over
time; :meth:`DynamicCDS.maybe_rebuild` (or ``rebuild_factor``) triggers
a fresh two-phased construction when the maintained backbone exceeds
the given multiple of a freshly built one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, TypeVar

from ..graphs.graph import Graph
from ..graphs.traversal import connected_components, is_connected
from ..graphs.properties import is_connected_dominating_set, undominated_nodes
from .base import CDSResult
from .greedy_connector import greedy_connector_cds
from .steiner import steiner_connectors

N = TypeVar("N", bound=Hashable)

__all__ = ["RepairStats", "DynamicCDS"]


@dataclass(frozen=True)
class RepairStats:
    """What one update did to the backbone.

    Attributes:
        action: ``"none"``, ``"seeded"``, ``"promoted"``,
            ``"reconnected"``, or ``"rebuilt"``.
        promoted: nodes added to the backbone by this repair.
        demoted: nodes removed from the backbone (only on rebuild/leave).
    """

    action: str
    promoted: tuple = ()
    demoted: tuple = ()


class DynamicCDS:
    """A connected dominating set maintained across topology updates.

    Args:
        graph: initial connected topology (may be empty).
        algorithm: the construction used for initial build and rebuilds;
            defaults to the paper's Section IV algorithm.
        rebuild_factor: automatically rebuild after an update leaves the
            backbone larger than ``rebuild_factor`` times a fresh
            construction.  ``None`` disables automatic rebuilds.
    """

    def __init__(
        self,
        graph: Graph[N] | None = None,
        algorithm: Callable[[Graph[N]], CDSResult] = greedy_connector_cds,
        rebuild_factor: float | None = None,
    ):
        self._graph: Graph[N] = graph.copy() if graph is not None else Graph()
        self._algorithm = algorithm
        self._rebuild_factor = rebuild_factor
        self._backbone: set[N] = set()
        self.rebuild_count = 0
        self.repair_count = 0
        if len(self._graph) > 0:
            if not is_connected(self._graph):
                raise ValueError("initial topology must be connected")
            self._backbone = set(self._algorithm(self._graph).nodes)

    # -- views ----------------------------------------------------------------

    @property
    def graph(self) -> Graph[N]:
        """The current topology (a live view; do not mutate)."""
        return self._graph

    @property
    def backbone(self) -> frozenset:
        """The maintained CDS."""
        return frozenset(self._backbone)

    @property
    def size(self) -> int:
        return len(self._backbone)

    def is_valid(self) -> bool:
        """Whether the maintained set is currently a CDS."""
        if len(self._graph) == 0:
            return len(self._backbone) == 0
        return is_connected_dominating_set(self._graph, self._backbone)

    # -- updates ----------------------------------------------------------------

    def add_node(self, node: N, neighbors: Iterable[N]) -> RepairStats:
        """A node joins with radio links to ``neighbors``.

        Raises:
            ValueError: if the node already exists, a neighbor is
                unknown, or the join would leave the graph disconnected
                (a non-empty graph requires at least one neighbor).
        """
        if node in self._graph:
            raise ValueError(f"node {node!r} already present")
        nbrs = list(dict.fromkeys(neighbors))
        for u in nbrs:
            if u not in self._graph:
                raise ValueError(f"unknown neighbor {u!r}")
        if len(self._graph) > 0 and not nbrs:
            raise ValueError("joining an existing network requires a neighbor")

        self._graph.add_node(node)
        for u in nbrs:
            self._graph.add_edge(node, u)

        if len(self._graph) == 1:
            self._backbone = {node}
            return RepairStats(action="seeded", promoted=(node,))

        if any(u in self._backbone for u in nbrs):
            return self._after_update(RepairStats(action="none"))

        # Every neighbor is a dominatee (the old graph was dominated), so
        # promoting the best-connected one dominates `node` and stays
        # attached to the backbone.
        best = max(
            nbrs,
            key=lambda u: sum(1 for w in self._graph.neighbors(u) if w in self._backbone),
        )
        self._backbone.add(best)
        self.repair_count += 1
        return self._after_update(RepairStats(action="promoted", promoted=(best,)))

    def remove_node(self, node: N) -> RepairStats:
        """A node leaves (or dies).

        Raises:
            ValueError: if removing it disconnects the remaining
                topology (a CDS is undefined there) or it is unknown.
        """
        if node not in self._graph:
            raise ValueError(f"unknown node {node!r}")
        candidate = self._graph.copy()
        candidate.remove_node(node)
        if len(candidate) > 0 and not is_connected(candidate):
            raise ValueError("removal would disconnect the network")
        self._graph = candidate

        if len(self._graph) == 0:
            self._backbone = set()
            return RepairStats(action="none", demoted=(node,))

        if node not in self._backbone:
            return self._after_update(RepairStats(action="none"))

        self._backbone.discard(node)
        self.repair_count += 1
        promoted: list[N] = []

        if not self._backbone:
            seed = min(self._graph.nodes())
            self._backbone.add(seed)
            promoted.append(seed)

        # Re-dominate orphans by promoting them directly: each orphan
        # gains domination of itself; connectivity is restored next.
        for orphan in undominated_nodes(self._graph, self._backbone):
            self._backbone.add(orphan)
            promoted.append(orphan)

        # Reconnect backbone fragments along shortest paths.
        fragments = connected_components(self._graph.subgraph(self._backbone))
        if len(fragments) > 1:
            connectors = steiner_connectors(self._graph, self._backbone)
            self._backbone.update(connectors)
            promoted.extend(connectors)

        action = "reconnected" if promoted else "none"
        return self._after_update(
            RepairStats(action=action, promoted=tuple(promoted), demoted=(node,))
        )

    def rebuild(self) -> RepairStats:
        """Discard the maintained backbone and rebuild from scratch."""
        old = self._backbone
        if len(self._graph) == 0:
            self._backbone = set()
        else:
            self._backbone = set(self._algorithm(self._graph).nodes)
        self.rebuild_count += 1
        return RepairStats(
            action="rebuilt",
            promoted=tuple(self._backbone - old),
            demoted=tuple(old - self._backbone),
        )

    def maybe_rebuild(self) -> RepairStats | None:
        """Rebuild if the maintained backbone exceeds the configured
        factor of a fresh construction; otherwise do nothing."""
        if self._rebuild_factor is None or len(self._graph) == 0:
            return None
        fresh = self._algorithm(self._graph).size
        if len(self._backbone) > self._rebuild_factor * fresh:
            return self.rebuild()
        return None

    def _after_update(self, stats: RepairStats) -> RepairStats:
        auto = self.maybe_rebuild()
        return auto if auto is not None else stats
