"""A small, dependency-free undirected graph.

All algorithms in this reproduction run on this adjacency-set graph
rather than on networkx: the point is to *implement* the paper's
machinery, and the tests cross-validate against networkx where it
overlaps.  Nodes may be any hashable values — the UDG builders use
:class:`repro.geometry.Point` nodes, the distributed simulator uses
integer ids.

The structure is deliberately minimal: no attributes, no multi-edges,
no directed edges.  Everything the CDS algorithms need is neighborhood
queries, induced subgraphs and iteration in deterministic order.

A graph also memoizes one kernel view of itself: the
:class:`~repro.graphs.indexed.IndexedGraph` that
:meth:`IndexedGraph.from_graph` builds is kept in the ``_index`` slot,
so the connectivity check, the solver's kernel build and result
validation all share one interning pass.  The invalidation contract:
every mutator clears the memo, and copies and pickles never carry it.

:func:`repro.graphs.udg.unit_disk_graph` builds only that view
(:meth:`Graph._from_index`): ``_adj`` is ``None`` until a read needs
the dicts, and :meth:`Graph._dicts` builds them from the view.  Until
then ``len``, iteration, ``in``, ``nodes``, ``edges``, ``neighbors``,
``degree`` and ``edge_count`` answer from the view, and ``subgraph``
restricts the view into a new one
(:meth:`~repro.graphs.indexed.IndexedGraph.subgraph`), so the solve
path never builds them; every mutator builds them before it clears
the memo.  Graphs derived from a view or an edge list in bulk — the
distributed solvers' integer relabel, induced subgraphs, the solve
daemon's inline-edge instances — start out the same way.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Iterator, TypeVar

N = TypeVar("N", bound=Hashable)

__all__ = ["Graph"]


class Graph(Generic[N]):
    """An undirected simple graph over hashable nodes.

    Insertion order of nodes is preserved (adjacency is stored in
    dicts), which keeps every algorithm in the library deterministic
    for a given construction sequence.
    """

    __slots__ = ("_adj", "_index")

    def __init__(self, edges: Iterable[tuple[N, N]] = (), nodes: Iterable[N] = ()):
        self._adj: dict[N, dict[N, None]] | None = {}
        # The memoized IndexedGraph view (see the module docstring).
        self._index = None
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def _from_index(cls, view) -> "Graph[N]":
        """The graph whose memoized view is ``view``, with no adjacency
        dicts yet (see the module docstring).

        The bulk path for same-package builders: the caller guarantees
        that ``view`` is symmetric and loop-free.
        """
        graph = cls.__new__(cls)
        graph._adj = None
        graph._index = view
        return graph

    def _dicts(self) -> dict[N, dict[N, None]]:
        """The adjacency dicts, built from the view on first use.

        Hot paths inline this as ``self._adj or self._dicts()`` (an
        empty graph's ``{}`` takes the call and comes back unchanged).
        """
        if self._adj is None:
            self._adj = _adjacency(self._index)
        return self._adj

    # -- copies and pickles never carry the memoized view -----------------

    def __getstate__(self):
        # A 1-tuple, never falsy: protocols 0 and 1 drop a falsy state
        # (an empty graph's ``{}``) and would skip ``__setstate__``.
        return (self._dicts(),)

    def __setstate__(self, state) -> None:
        (self._adj,) = state
        self._index = None

    def __copy__(self) -> "Graph[N]":
        # A shallow copy sharing ``_adj`` would let a mutation through
        # the copy leave the original's memoized view stale.
        return self.copy()

    # -- construction --------------------------------------------------------

    def add_node(self, node: N) -> None:
        """Add a node (no-op if already present)."""
        adj = self._adj or self._dicts()
        if node not in adj:
            adj[node] = {}
            self._index = None

    def add_edge(self, u: N, v: N) -> None:
        """Add an undirected edge, creating endpoints as needed.

        Self-loops are rejected: a UDG in this paper's model never has
        them and allowing them would silently corrupt domination checks.
        """
        if u == v:
            raise ValueError(f"self-loop at {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._index = None

    def remove_node(self, node: N) -> None:
        """Remove a node and its incident edges.

        Raises:
            KeyError: if the node is absent.
        """
        adj = self._dicts()
        for neighbor in adj[node]:
            del adj[neighbor][node]
        del adj[node]
        self._index = None

    # -- queries --------------------------------------------------------------

    def __contains__(self, node: N) -> bool:
        return node in (self._adj if self._adj is not None else self._index)

    def __len__(self) -> int:
        return len(self._adj if self._adj is not None else self._index)

    def __iter__(self) -> Iterator[N]:
        return iter(self._adj if self._adj is not None else self._index.nodes)

    def nodes(self) -> list[N]:
        """All nodes, in insertion order."""
        return list(self._adj if self._adj is not None else self._index.nodes)

    def edges(self) -> list[tuple[N, N]]:
        """Each undirected edge once, as ``(u, v)`` in first-seen order."""
        if self._adj is None:
            # First seen at the earlier endpoint: the (i, j > i) entries.
            view = self._index
            nodes, indptr, indices = view.nodes, view.indptr, view.indices
            return [
                (nodes[i], nodes[j])
                for i in range(len(nodes))
                for j in indices[indptr[i] : indptr[i + 1]]
                if j > i
            ]
        seen: set[N] = set()
        result: list[tuple[N, N]] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    result.append((u, v))
            seen.add(u)
        return result

    def edge_count(self) -> int:
        if self._index is not None:
            return self._index.edge_count()
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: N, v: N) -> bool:
        adj = self._adj or self._dicts()
        return u in adj and v in adj[u]

    def neighbors(self, node: N) -> list[N]:
        """Neighbors of a node, in insertion order.

        Raises:
            KeyError: if the node is absent.
        """
        if self._adj is not None:
            return list(self._adj[node])
        view = self._index
        nodes = view.nodes
        return [nodes[i] for i in view.neighbors(view.id_of(node))]

    def neighbor_set(self, node: N) -> set[N]:
        return set((self._adj or self._dicts())[node])

    def degree(self, node: N) -> int:
        if self._adj is not None:
            return len(self._adj[node])
        return self._index.degree(self._index.id_of(node))

    def closed_neighborhood(self, node: N) -> set[N]:
        """The node together with its neighbors (``N[v]``)."""
        closed = set((self._adj or self._dicts())[node])
        closed.add(node)
        return closed

    def max_degree(self) -> int:
        """Maximum degree; 0 for the empty graph."""
        return max((len(nbrs) for nbrs in self._dicts().values()), default=0)

    # -- derived graphs --------------------------------------------------------

    def subgraph(self, nodes: Iterable[N]) -> "Graph[N]":
        """The induced subgraph ``G[nodes]``.

        Unknown nodes are ignored, matching the set-algebra style the
        CDS algorithms use (``G[I ∪ C]`` with ``C`` still growing).
        """
        if self._adj is None:
            return self._index.subgraph(nodes)
        adj = self._adj
        keep = {n for n in nodes if n in adj}
        sub: Graph[N] = Graph()
        for n in adj:
            if n in keep:
                sub.add_node(n)
        for u in sub._adj:
            for v in adj[u]:
                if v in keep:
                    sub._adj[u][v] = None
        return sub

    def copy(self) -> "Graph[N]":
        dup: Graph[N] = Graph()
        for n, nbrs in self._dicts().items():
            dup._adj[n] = dict(nbrs)
        return dup

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self)}, |E|={self.edge_count()})"


def _adjacency(view) -> dict:
    """The adjacency dicts of ``view``'s graph: nodes and each neighbor
    row in the view's order, every entry the view's own node object."""
    nodes, indptr = view.nodes, view.indptr
    flat = [nodes[i] for i in view.indices]
    fromkeys = dict.fromkeys
    return {
        node: fromkeys(flat[a:b]) for node, a, b in zip(nodes, indptr, indptr[1:])
    }
