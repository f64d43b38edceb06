"""Routing over a CDS backbone.

The original motivation for minimum CDS in ad hoc networks ([2] in the
paper) is routing: keep routing state only on backbone nodes and route
every packet *via* the backbone — source to an adjacent dominator,
along the backbone, and one final hop to the target.  A smaller
backbone means less routing state and fewer control messages.

:class:`BackboneRouter` implements that scheme over any CDS; BCAST's
traffic run (:func:`repro.distributed.traffic.run_traffic`) routes every
packet through it.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, TypeVar

from ..graphs.graph import Graph
from ..graphs.properties import is_connected_dominating_set

N = TypeVar("N", bound=Hashable)

__all__ = ["BackboneRouter"]


class BackboneRouter:
    """Shortest-path routing constrained to a CDS backbone.

    Args:
        graph: the communication topology.
        backbone: a CDS of ``graph`` (validated at construction).

    Raises:
        ValueError: if ``backbone`` is not a CDS of ``graph``.
    """

    def __init__(self, graph: Graph[N], backbone: Iterable[N]):
        self._graph = graph
        self._backbone = frozenset(backbone)
        if not is_connected_dominating_set(graph, self._backbone):
            raise ValueError("backbone is not a connected dominating set")

    @property
    def backbone(self) -> frozenset:
        return self._backbone

    def route(self, source: N, target: N) -> list[N]:
        """A source-to-target path using only backbone intermediates.

        The returned path starts at ``source`` and ends at ``target``;
        every interior node is a backbone node.  Direct delivery is used
        when the endpoints are adjacent (no backbone detour).

        Raises:
            KeyError: if either endpoint is not in the graph.
        """
        if source not in self._graph:
            raise KeyError(f"unknown source {source!r}")
        if target not in self._graph:
            raise KeyError(f"unknown target {target!r}")
        if source == target:
            return [source]
        if self._graph.has_edge(source, target):
            return [source, target]
        interior = self._shortest_via_backbone(source, target)
        if interior is None:
            raise AssertionError("backbone routing failed on a valid CDS")
        return interior

    def _shortest_via_backbone(self, source: N, target: N) -> list[N] | None:
        """BFS where interior hops are restricted to backbone nodes."""
        parent: dict[N, N] = {}
        seen = {source}
        queue: deque[N] = deque([source])
        while queue:
            u = queue.popleft()
            # Only the source and backbone nodes may forward.
            if u != source and u not in self._backbone:
                continue
            for v in self._graph.neighbors(u):
                if v in seen:
                    continue
                seen.add(v)
                parent[v] = u
                if v == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(v)
        return None
