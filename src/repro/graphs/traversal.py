"""Graph traversals: BFS orders, BFS trees, components.

Phase 1 of both two-phased algorithms selects the MIS "in the first-fit
manner in the breadth-first-search ordering" of a rooted spanning tree
(Section III), and the WAF connector phase uses the *parents* of that
tree — so rooted BFS trees with explicit parent maps are first-class
objects here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Hashable, Iterable, TypeVar

from .graph import Graph
from .indexed import IndexedGraph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "BFSTree",
    "bfs_order",
    "bfs_tree",
    "dfs_tree",
    "connected_components",
    "is_connected",
    "induced_is_connected",
]


@dataclass(frozen=True)
class BFSTree(Generic[N]):
    """A rooted BFS spanning tree of (one component of) a graph.

    Attributes:
        root: the root node.
        order: nodes in BFS visit order (root first).  Ties within a
            level are broken by the parent's adjacency order, so the
            order is deterministic for a fixed graph construction.
        parent: maps each non-root node to its tree parent.
        depth: maps each node to its hop distance from the root.
    """

    root: N
    order: tuple[N, ...]
    parent: dict[N, N] = field(repr=False)
    depth: dict[N, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.order)

    def children(self) -> dict[N, list[N]]:
        """Child lists per node, in BFS order."""
        kids: dict[N, list[N]] = {n: [] for n in self.order}
        for child in self.order:
            if child != self.root:
                kids[self.parent[child]].append(child)
        return kids


def bfs_order(graph: Graph[N], root: N) -> list[N]:
    """Nodes of ``root``'s component in BFS order."""
    return list(bfs_tree(graph, root).order)


def bfs_tree(graph: Graph[N], root: N) -> BFSTree[N]:
    """BFS spanning tree of the component containing ``root``.

    Raises:
        KeyError: if ``root`` is not in the graph.
    """
    if root not in graph:
        raise KeyError(f"root {root!r} not in graph")
    parent: dict[N, N] = {}
    depth: dict[N, int] = {root: 0}
    order: list[N] = [root]
    queue: deque[N] = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
                queue.append(v)
    return BFSTree(root=root, order=tuple(order), parent=parent, depth=depth)


def dfs_tree(graph: Graph[N], root: N) -> BFSTree[N]:
    """DFS (preorder) spanning tree of the component containing ``root``.

    Returned in the same container as :func:`bfs_tree`; ``order`` is the
    preorder, ``depth`` the tree depth (not the hop distance).  Section
    III allows an *arbitrary* rooted spanning tree for the WAF
    algorithm; the ablation benchmarks compare BFS against DFS trees.

    Raises:
        KeyError: if ``root`` is not in the graph.
    """
    if root not in graph:
        raise KeyError(f"root {root!r} not in graph")
    parent: dict[N, N] = {}
    depth: dict[N, int] = {root: 0}
    order: list[N] = []
    stack: list[N] = [root]
    seen: set[N] = {root}
    while stack:
        u = stack.pop()
        order.append(u)
        # Reverse so the first-listed neighbor is explored first.
        for v in reversed(graph.neighbors(u)):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    return BFSTree(root=root, order=tuple(order), parent=parent, depth=depth)


def connected_components(graph: Graph[N]) -> list[list[N]]:
    """Connected components, each in BFS order, in first-node order."""
    seen: set[N] = set()
    comps: list[list[N]] = []
    for start in graph:
        if start in seen:
            continue
        comp = bfs_order(graph, start)
        seen.update(comp)
        comps.append(comp)
    return comps


def is_connected(graph: Graph[N]) -> bool:
    """Whether the graph is connected.  The empty graph is not.

    Runs on the graph's memoized kernel view
    (:meth:`IndexedGraph.from_graph`), so a solver or validator that
    runs next reuses the interning this check paid for.
    """
    return IndexedGraph.from_graph(graph).is_connected()


def induced_is_connected(graph: Graph[N], nodes: Iterable[N]) -> bool:
    """Whether ``G[nodes]`` is connected (empty set: False)."""
    return is_connected(graph.subgraph(nodes))
