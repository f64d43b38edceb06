"""Validators for the set properties the paper manipulates.

Dominating sets, independent sets, maximal independent sets with the
2-hop separation property, and connected dominating sets.  Every
algorithm in :mod:`repro.cds` and :mod:`repro.baselines` is checked
against these in tests — a CDS algorithm that returns a non-CDS should
never pass silently.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from .graph import Graph
from .indexed import IndexedGraph
from .traversal import induced_is_connected

N = TypeVar("N", bound=Hashable)

__all__ = [
    "is_dominating_set",
    "is_independent_set",
    "is_maximal_independent_set",
    "has_two_hop_separation",
    "is_connected_dominating_set",
    "is_m_dominating_set",
    "is_m_fold_cds",
    "m_deficient_nodes",
    "survives_node_removal",
    "undominated_nodes",
]


def undominated_nodes(graph: Graph[N], candidate: Iterable[N]) -> list[N]:
    """Nodes not in ``candidate`` and with no neighbor in it."""
    chosen = set(candidate)
    missing: list[N] = []
    for v in graph:
        if v in chosen:
            continue
        if not any(u in chosen for u in graph.neighbors(v)):
            missing.append(v)
    return missing


def is_dominating_set(graph: Graph[N], candidate: Iterable[N]) -> bool:
    """Every node is in ``candidate`` or adjacent to a member of it."""
    chosen = set(candidate)
    if not chosen <= set(graph.nodes()):
        return False
    return not undominated_nodes(graph, chosen)


def is_independent_set(graph: Graph[N], candidate: Iterable[N]) -> bool:
    """No two members of ``candidate`` are adjacent."""
    chosen = list(dict.fromkeys(candidate))
    chosen_set = set(chosen)
    if not chosen_set <= set(graph.nodes()):
        return False
    for v in chosen:
        if any(u in chosen_set for u in graph.neighbors(v)):
            return False
    return True


def is_maximal_independent_set(graph: Graph[N], candidate: Iterable[N]) -> bool:
    """Independent and inextensible.

    For an independent set, maximality is equivalent to domination —
    the fact that makes phase 1 of the two-phased framework produce a
    dominating set in the first place.
    """
    chosen = set(candidate)
    return is_independent_set(graph, chosen) and is_dominating_set(graph, chosen)


def has_two_hop_separation(graph: Graph[N], independent: Iterable[N]) -> bool:
    """Whether the members of ``independent`` are connected by steps
    of at most two hops (sets of size <= 1 pass trivially).

    This is the "2-hop separation property" of the MIS chosen in [10]
    (and inherited by both of the paper's algorithms): the graph over
    the members that joins each pair within two hops is connected, so
    every split of the members into two groups has a pair exactly two
    hops apart, which is what guarantees a single connector can merge
    two dominator components (Lemma 9).
    """
    chosen = set(independent)
    if len(chosen) <= 1:
        return True
    start = next(iter(chosen))
    reached = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            for w in (u, *graph.neighbors(u)):
                if w in chosen and w not in reached:
                    reached.add(w)
                    stack.append(w)
    return len(reached) == len(chosen)


def m_deficient_nodes(
    graph: Graph[N], candidate: Iterable[N], m: int
) -> list[N]:
    """Nodes outside ``candidate`` with fewer than ``m`` neighbors in it.

    The m-fold analogue of :func:`undominated_nodes`: the nodes whose
    coverage demand an m-fold dominating set has not yet met.  Members
    of ``candidate`` have no demand (the Zhang et al. convention — see
    :func:`is_m_dominating_set`).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    chosen = set(candidate)
    missing: list[N] = []
    for v in graph:
        if v in chosen:
            continue
        covered = sum(1 for u in graph.neighbors(v) if u in chosen)
        if covered < m:
            missing.append(v)
    return missing


def is_m_dominating_set(
    graph: Graph[N], candidate: Iterable[N], m: int
) -> bool:
    """Every node outside ``candidate`` has at least ``m`` neighbors in it.

    The m-fold dominating set of Zhang et al. (arXiv:1510.05886):
    members cover themselves by membership, non-members need ``m``
    distinct dominators.  ``m=1`` coincides with
    :func:`is_dominating_set` (pinned by tests).

    Raises:
        ValueError: for ``m < 1``.
    """
    chosen = set(candidate)
    if not chosen <= set(graph.nodes()):
        return False
    return not m_deficient_nodes(graph, chosen, m)


def is_m_fold_cds(graph: Graph[N], candidate: Iterable[N], m: int) -> bool:
    """A ``(1, m)``-CDS: m-fold dominating and inducing a connected
    subgraph (the single-node convention of
    :func:`is_connected_dominating_set` carries over).
    """
    chosen = set(candidate)
    if not chosen:
        return False
    if not is_m_dominating_set(graph, chosen, m):
        return False
    if len(chosen) == 1:
        return True
    return induced_is_connected(graph, chosen)


def survives_node_removal(
    graph: Graph[N], candidate: Iterable[N], m: int = 1
) -> bool:
    """Whether the backbone outlives any single member's death.

    True iff for **every** ``v`` in ``candidate``, the survivor set
    ``candidate - {v}`` is still a connected m-fold dominating set of
    the *full* graph — the dead node itself included among the nodes
    that must stay dominated.  This is the operational meaning of a
    ``(2, m+1)``-CDS and the acceptance property of
    :func:`repro.cds.mfold.mfold_2conn_cds`: kill any one backbone
    node and broadcast still reaches everyone.

    A singleton backbone never survives (its only member's death leaves
    nothing), except in the degenerate single-node graph, where there
    is no surviving network to serve either — we return ``False`` there
    too, matching the "non-empty CDS" convention.
    """
    chosen = set(candidate)
    if not chosen:
        return False
    for v in chosen:
        if not is_m_fold_cds(graph, chosen - {v}, m):
            return False
    return True


def is_connected_dominating_set(graph: Graph[N], candidate: Iterable[N]) -> bool:
    """Dominating and inducing a connected subgraph.

    Single-node graphs are special: the paper's convention is that a
    single node dominates itself, and ``G[{v}]`` is (trivially)
    connected, so ``{v}`` is a CDS of the one-node graph.  A candidate
    naming a node outside the graph is not a CDS.

    Runs on the graph's memoized kernel view: domination marks the
    members' CSR rows in a byte mask, and connectivity is a BFS over
    member ids that only steps onto members.  The dict composition
    ``is_dominating_set(S) and (|S| == 1 or induced_is_connected(S))``
    is the test oracle it is held to.
    """
    index = IndexedGraph.from_graph(graph)
    ids = index._ids  # noqa: SLF001 - same-package fast path
    indptr, indices = index.indptr, index.indices
    # state: 0 = outside the set, 1 = member not yet reached, 2 = reached.
    state = bytearray(len(index))
    members: list[int] = []
    for node in candidate:
        i = ids.get(node)
        if i is None:
            return False
        if not state[i]:
            state[i] = 1
            members.append(i)
    if not members:
        return False
    covered = bytearray(len(index))
    for i in members:
        covered[i] = 1
        for j in indices[indptr[i] : indptr[i + 1]]:
            covered[j] = 1
    if 0 in covered:
        return False
    state[members[0]] = 2
    reached = [members[0]]
    for u in reached:
        for v in indices[indptr[u] : indptr[u + 1]]:
            if state[v] == 1:
                state[v] = 2
                reached.append(v)
    return len(reached) == len(members)
