"""The gain function ``Δ_w q(U)`` and its incremental tracker.

Section IV defines, for the phase-1 MIS ``I`` and a connector set
``U ⊆ V \\ I``, the quantity ``q(U)`` = number of connected components
of ``G[I ∪ U]``, and the *gain* of a node ``w``:

    ``Δ_w q(U) = q(U) − q(U ∪ {w})``.

For ``w ∉ I ∪ U`` the gain is one less than the number of components of
``G[I ∪ U]`` adjacent to ``w`` (every such ``w`` is adjacent to at least
one component because ``I`` is maximal, hence dominating); for
``w ∈ I ∪ U`` it is zero.

:class:`GainTracker` maintains the components with a union-find so the
greedy phase costs ``O(Σ deg)`` per selection instead of recomputing
components from scratch — the ablation benchmark
``bench_gain_incremental`` measures exactly this design choice.

When :data:`repro.obs.OBS` is enabled, the tracker reports
``gain.evaluations`` (gain computations per :meth:`GainTracker.best_connector`
scan — the per-selection work Theorem 10's analysis charges) and
``gain.dsu_unions`` (union-find merges per :meth:`GainTracker.add`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from ..graphs.components import UnionFind
from ..graphs.graph import Graph
from ..obs import OBS

N = TypeVar("N", bound=Hashable)

__all__ = ["GainTracker", "component_count", "gain_of"]


def component_count(graph: Graph[N], included: Iterable[N]) -> int:
    """``q(U)`` computed from scratch: components of ``G[included]``.

    The reference implementation the tracker is tested against.
    """
    from ..graphs.traversal import connected_components

    return len(connected_components(graph.subgraph(included)))


def gain_of(graph: Graph[N], included: set[N], w: N) -> int:
    """``Δ_w q(U)`` computed from scratch (reference implementation)."""
    if w in included:
        return 0
    before = component_count(graph, included)
    after = component_count(graph, included | {w})
    return before - after


class GainTracker:
    """Incremental components of ``G[I ∪ U]`` as connectors are added.

    Args:
        graph: the full communication topology ``G``.
        dominators: the phase-1 MIS ``I``.  Because ``I`` is
            independent, ``G[I]`` starts as ``|I|`` singleton
            components, i.e. ``q(∅) = |I|``.
    """

    def __init__(self, graph: Graph[N], dominators: Iterable[N]):
        self._graph = graph
        self._included: set[N] = set()
        self._dsu: UnionFind[N] = UnionFind()
        for d in dominators:
            if d not in graph:
                raise KeyError(f"dominator {d!r} not in graph")
            self._dsu.add(d)
            self._included.add(d)
        self._dominators = frozenset(self._included)
        if not self._dominators:
            raise ValueError("dominator set must be non-empty")
        # I is independent, so no initial unions are needed; still, be
        # permissive: if a caller passes a non-independent dominating
        # set (some baselines do), merge adjacent pairs.
        doms = list(self._dominators)
        for v in doms:
            for u in self._graph.neighbors(v):
                if u in self._included:
                    self._dsu.union(u, v)

    @property
    def included(self) -> frozenset:
        """``I ∪ U`` so far."""
        return frozenset(self._included)

    @property
    def dominators(self) -> frozenset:
        return self._dominators

    @property
    def component_count(self) -> int:
        """``q(U)`` for the current ``U``."""
        return self._dsu.set_count

    def adjacent_components(self, w: N) -> set:
        """Roots of the components of ``G[I ∪ U]`` adjacent to ``w``."""
        return {
            self._dsu.find(u)
            for u in self._graph.neighbors(w)
            if u in self._included
        }

    def gain(self, w: N) -> int:
        """``Δ_w q(U)`` for the current ``U``."""
        if w in self._included:
            return 0
        roots = self.adjacent_components(w)
        return max(0, len(roots) - 1)

    def add(self, w: N) -> int:
        """Add ``w`` to ``U`` and return the gain it realized.

        Raises:
            ValueError: if ``w`` is already included.
        """
        if w in self._included:
            raise ValueError(f"{w!r} already included")
        roots = self.adjacent_components(w)
        self._included.add(w)
        self._dsu.add(w)
        for r in roots:
            self._dsu.union(w, r)
        if OBS.enabled:
            OBS.incr("gain.dsu_unions", len(roots))
        return max(0, len(roots) - 1)

    def best_connector(self, tie_break: str = "min") -> tuple[N, int]:
        """The not-yet-included node of maximum gain.

        Args:
            tie_break: how to resolve equal gains — ``"min"`` (smallest
                node id, the library default), ``"max"`` (largest id),
                or ``"degree"`` (highest degree, then smallest id).
                The paper leaves tie-breaking unspecified; the ablation
                benchmark compares these.

        Raises ``ValueError`` when ``q(U) == 1`` (the greedy loop should
        have stopped) or when no node has positive gain while
        ``q(U) > 1`` (impossible for a 2-hop separated MIS by Lemma 9 —
        so reaching it means the inputs were invalid, e.g. a
        disconnected graph).
        """
        if tie_break not in ("min", "max", "degree"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if self.component_count <= 1:
            raise ValueError("already connected; no connector needed")
        best_node: N | None = None
        best_gain = 0
        evaluations = 0
        for w in self._graph:
            if w in self._included:
                continue
            g = self.gain(w)
            evaluations += 1
            if g > best_gain or (
                g == best_gain > 0 and self._wins_tie(w, best_node, tie_break)
            ):
                best_node, best_gain = w, g
        if OBS.enabled:
            OBS.incr("gain.evaluations", evaluations)
        if best_node is None or best_gain < 1:
            raise ValueError(
                "no node with positive gain: dominators lack 2-hop separation "
                "or the graph is disconnected"
            )
        return best_node, best_gain

    def _wins_tie(self, challenger: N, incumbent: N | None, tie_break: str) -> bool:
        if incumbent is None:
            return True
        if tie_break == "min":
            return _smaller(challenger, incumbent)
        if tie_break == "max":
            return _smaller(incumbent, challenger)
        ca, cb = self._graph.degree(challenger), self._graph.degree(incumbent)
        if ca != cb:
            return ca > cb
        return _smaller(challenger, incumbent)


def _smaller(a, b) -> bool:
    """Deterministic tie-break helper tolerant of unorderable mixes."""
    if b is None:
        return True
    try:
        return a < b
    except TypeError:
        return repr(a) < repr(b)


def _least(nodes):
    """The least of ``nodes`` by :func:`_smaller`, scanning in order and
    keeping the incumbent unless a node is smaller: ``min(nodes)`` on
    orderable nodes, and still defined on unorderable mixes."""
    best = None
    for v in nodes:
        if _smaller(v, best):
            best = v
    return best
