"""The indexed graph kernel: interned nodes over CSR adjacency arrays.

:class:`Graph` stores adjacency as dict-of-dicts keyed by arbitrary
hashable nodes — ideal for construction and set-algebra, but every
neighborhood scan pays a hash lookup per step.  The algorithms that
dominate the profile (BFS phase 1, the WAF coverage scan, the greedy
connector phase) only ever *read* a frozen topology, so they can run on
a flat, integer-indexed view instead:

* ``nodes[i]`` interns each node to a dense integer id ``i`` in the
  graph's (deterministic, insertion-order) iteration order;
* ``indptr`` / ``indices`` are CSR-style flat arrays: the neighbors of
  node ``i`` are ``indices[indptr[i]:indptr[i+1]]``, preserving the
  adjacency insertion order of the source graph so every traversal
  visits neighbors in exactly the order the dict-based code would.

:meth:`IndexedGraph.from_graph` is ``O(V + E)`` once per graph: the
view is memoized on the source :class:`Graph`, so the connectivity
check, every solver phase and result validation share one interning
pass (the vectorized UDG builder even seeds the memo straight from its
CSR rows).  Because the view preserves iteration and adjacency order,
algorithms on it are bit-identical to their dict-based counterparts,
just cheaper per step.  The view is a snapshot — mutating the source
:class:`Graph` afterwards clears the memo but does not update a view
already handed out — and it is shared, so callers must treat its
arrays as read-only.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Generic, Hashable, Iterator, TypeVar

from .graph import Graph

N = TypeVar("N", bound=Hashable)

__all__ = ["IndexedGraph"]


class IndexedGraph(Generic[N]):
    """A frozen CSR view of a :class:`Graph` with interned integer ids.

    All per-id methods take and return dense integers in
    ``range(len(self))``; :attr:`nodes` and :meth:`id_of` translate at
    the boundary.  The flat arrays are exposed read-only so hot loops
    can bind them to locals instead of calling methods per step.
    """

    __slots__ = ("_nodes", "_ids", "_indptr", "_indices")

    def __init__(
        self,
        nodes: tuple,
        ids: dict,
        indptr: list[int],
        indices: list[int],
    ):
        self._nodes = nodes
        self._ids = ids
        self._indptr = indptr
        self._indices = indices

    @classmethod
    def from_graph(cls, graph: Graph[N]) -> "IndexedGraph[N]":
        """The CSR view of ``graph``, interned once per graph.

        Returns the view memoized on ``graph`` when there is one, and
        otherwise builds it (``O(V + E)``) and memoizes it; any mutation
        of ``graph`` clears the memo.

        Neighbor ids are resolved through an ``id(object)`` map first:
        builders that reuse node objects (every UDG builder does) then
        intern each neighbor with one C-level identity lookup instead
        of hashing the node value per adjacency entry.  A graph whose
        adjacency holds equal-but-distinct objects falls back to the
        equality-based map; the resulting view is identical.
        """
        memo = graph._index  # noqa: SLF001 - same-package memo
        if memo is not None:
            return memo
        adj = graph._adj  # noqa: SLF001 - same-package fast path
        nodes = tuple(adj)
        ids = {node: i for i, node in enumerate(nodes)}
        by_identity = {id(node): i for i, node in enumerate(nodes)}
        rows = adj.values()
        indptr = [0, *accumulate(map(len, rows))]
        get = by_identity.__getitem__
        try:
            indices = list(map(get, map(id, chain.from_iterable(rows))))
        except KeyError:
            # Some neighbor entry is an equal-but-distinct object; redo
            # the whole scan through the equality map.
            get = ids.__getitem__
            indices = list(map(get, chain.from_iterable(rows)))
        view = graph._index = cls(nodes, ids, indptr, indices)  # noqa: SLF001
        return view

    # -- boundary translation -------------------------------------------------

    @property
    def nodes(self) -> tuple:
        """Original node objects; ``nodes[i]`` is the node with id ``i``."""
        return self._nodes

    def id_of(self, node: N) -> int:
        """The dense id of ``node``.

        Raises:
            KeyError: if the node was not in the source graph.
        """
        return self._ids[node]

    def node_at(self, i: int) -> N:
        return self._nodes[i]

    def __contains__(self, node: N) -> bool:
        return node in self._ids

    # -- flat arrays ----------------------------------------------------------

    @property
    def indptr(self) -> list[int]:
        """CSR row pointers; neighbors of ``i`` span ``indptr[i]:indptr[i+1]``."""
        return self._indptr

    @property
    def indices(self) -> list[int]:
        """CSR column indices: all neighbor ids, flat."""
        return self._indices

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._nodes)))

    def degree(self, i: int) -> int:
        return self._indptr[i + 1] - self._indptr[i]

    def neighbors(self, i: int) -> list[int]:
        """Neighbor ids of ``i``, in source adjacency insertion order."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    def edge_count(self) -> int:
        return len(self._indices) // 2

    # -- traversal primitives -------------------------------------------------

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int]]:
        """BFS over ``root``'s component, entirely on dense ids.

        Returns ``(order, parent, depth)`` where ``order`` lists the
        visited ids, and ``parent`` / ``depth`` are dense arrays with
        ``-1`` for unvisited ids (``parent[root]`` is also ``-1``).
        Neighbors are expanded in adjacency insertion order, so
        ``order`` matches :func:`repro.graphs.traversal.bfs_tree` on the
        source graph node-for-node.
        """
        n = len(self._nodes)
        indptr, indices = self._indptr, self._indices
        parent = [-1] * n
        depth = [-1] * n
        depth[root] = 0
        order = [root]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            du = depth[u] + 1
            for v in indices[indptr[u] : indptr[u + 1]]:
                if depth[v] < 0:
                    depth[v] = du
                    parent[v] = u
                    order.append(v)
        return order, parent, depth

    def bfs_order(self, root: int) -> list[int]:
        """Just the BFS visit order of ``root``'s component.

        Same order as :meth:`bfs` without materializing the parent and
        depth arrays — the visited check is one byte read.
        """
        indptr, indices = self._indptr, self._indices
        seen = bytearray(len(self._nodes))
        seen[root] = 1
        order = [root]
        append = order.append
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    append(v)
        return order

    def connected_components(self) -> list[list[int]]:
        """Components as id lists, each in BFS order, in first-id order.

        Mirrors :func:`repro.graphs.traversal.connected_components` on
        the source graph (same components, same orders, as ids).
        """
        n = len(self._nodes)
        indptr, indices = self._indptr, self._indices
        seen = bytearray(n)
        comps: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = 1
            order = [start]
            head = 0
            while head < len(order):
                u = order[head]
                head += 1
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if not seen[v]:
                        seen[v] = 1
                        order.append(v)
            comps.append(order)
        return comps

    def is_connected(self) -> bool:
        """Whether the view is connected.  The empty graph is not."""
        if not self._nodes:
            return False
        return len(self.bfs_order(0)) == len(self._nodes)

    def __repr__(self) -> str:
        return f"IndexedGraph(|V|={len(self)}, |E|={self.edge_count()})"
