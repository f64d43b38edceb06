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
pass.  :func:`repro.graphs.udg.unit_disk_graph` builds its graph as
this view alone, straight from its CSR rows: on a UDG the view comes
first, and the adjacency dicts are derived from it on first use (see
:mod:`repro.graphs.graph`).  Because the view preserves iteration and
adjacency order, algorithms on it are bit-identical to their
dict-based counterparts, just cheaper per step.  The view is a
snapshot — mutating the source :class:`Graph` afterwards clears the
memo but does not update a view already handed out — and it is
shared, so callers must treat its arrays as read-only.

Whatever a solve derives from the instance alone is derived here, once
per view, and memoized on it: the CSR as numpy ``int64`` arrays
(:meth:`IndexedGraph.arrays`, which the UDG builder hands over instead
of discarding), the node value order (:meth:`IndexedGraph.value_order`,
which fixes the default root and every tie-break rank) and, from the
numpy CSR, the connectivity test (:meth:`IndexedGraph.is_connected`).
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Generic, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..geometry.point import Point
from .graph import Graph

N = TypeVar("N", bound=Hashable)

#: Marks a memo slot not computed yet (``None`` is a computed value).
_UNSET = object()

__all__ = ["IndexedGraph", "gather_rows"]


class IndexedGraph(Generic[N]):
    """A frozen CSR view of a :class:`Graph` with interned integer ids.

    All per-id methods take and return dense integers in
    ``range(len(self))``; :attr:`nodes` and :meth:`id_of` translate at
    the boundary.  The flat arrays are exposed read-only so hot loops
    can bind them to locals instead of calling methods per step.
    """

    __slots__ = (
        "_nodes",
        "_ids",
        "_indptr",
        "_indices",
        "_arrays",
        "_coords",
        "_value_order",
    )

    def __init__(
        self,
        nodes: tuple,
        ids: dict,
        indptr: list[int],
        indices: list[int],
        arrays: tuple[np.ndarray, np.ndarray] | None = None,
        coords: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """``arrays`` are ``indptr``/``indices`` as read-only ``int64``
        arrays, and ``coords`` every node's ``x`` and ``y`` as float
        arrays, when the caller already has them."""
        self._nodes = nodes
        self._ids = ids
        self._indptr = indptr
        self._indices = indices
        self._arrays = arrays
        self._coords = coords
        self._value_order = _UNSET

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

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` as read-only ``int64`` arrays.

        A UDG-built view holds the builder's own arrays; any other view
        converts its lists on the first call.  Memoized, so every numpy
        consumer of the view (the heap gain tracker, the connectivity
        test) shares one copy.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = (
                np.array(self._indptr, dtype=np.int64),
                np.array(self._indices, dtype=np.int64),
            )
            for a in arrays:
                a.flags.writeable = False
        return arrays

    def value_order(self) -> list[int] | None:
        """Every id, in ascending order of its node's value: the rank
        table (``value_order()[r]`` is the id of rank ``r``).

        ``sorted(range(n), key=nodes.__getitem__)``, computed once per
        view.  Nodes that are all :class:`~repro.geometry.point.Point`
        with finite coordinates are ranked by a numpy sort of their
        coordinates, which is the same order (``Point`` compares by
        ``(x, y)``, and distinct finite points never tie).  ``None``
        when the nodes are not mutually orderable.
        """
        order = self._value_order
        if order is _UNSET:
            order = self._value_order = _value_order(self._nodes, self._coords)
        return order

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
        """Whether the view is connected.  The empty graph is not.

        A BFS over :meth:`arrays`, each level expanded in Python or in
        numpy, whichever is cheaper (:func:`_spans_all`); no counters.
        """
        if not self._nodes:
            return False
        return _spans_all(*self.arrays())

    # -- derived graphs -------------------------------------------------------

    def subgraph(self, nodes: Iterable[N]) -> Graph[N]:
        """The induced subgraph on ``nodes`` (unknown ones ignored), as
        :meth:`Graph.subgraph` builds it: kept nodes in id order, each
        row restricted to kept ids in its order.

        Built in bulk from the restricted CSR (:func:`_bulk_graph`), with
        the kept nodes' coordinates when the view has them.
        """
        ids = self._ids
        n = len(self._nodes)
        keep = np.zeros(n, dtype=bool)
        keep[[ids[v] for v in nodes if v in ids]] = True
        indptr, indices = self.arrays()
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        inside = keep[src] & keep[indices]
        kept = np.flatnonzero(keep)
        sub_indptr = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[inside], minlength=n)[kept], out=sub_indptr[1:])
        new_id = np.cumsum(keep) - 1
        coords = self._coords
        if coords is not None:
            coords = (coords[0][kept], coords[1][kept])
        return _bulk_graph(
            [self._nodes[i] for i in kept.tolist()],
            sub_indptr,
            new_id[indices[inside]],
            coords,
        )

    def __repr__(self) -> str:
        return f"IndexedGraph(|V|={len(self)}, |E|={self.edge_count()})"


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows for ``ids``, plus each row's length.

    Returns ``(flat, counts)`` where ``flat`` is the neighbor ids of
    every ``ids[k]`` laid out row after row (each row in adjacency
    insertion order, rows in ``ids`` order) and ``counts[k]`` is the
    k-th row's length — the gather of the connectivity test's wide
    frontiers and of the heap gain tracker's frontier batch.
    """
    counts = indptr[ids + 1] - indptr[ids]
    total = int(counts.sum())
    if total == 0:
        return indices[:0], counts
    starts = indptr[ids]
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return indices[flat], counts


def _neighbor_rows(
    left: np.ndarray, right: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the graph ``add_edge(left[k], right[k])`` for ``k`` in
    order would build over ids ``range(n)`` (no self-loops, no repeated
    edges): ``(indptr, nbr)`` with node ``i``'s neighbor ids, in
    adjacency insertion order, at ``nbr[indptr[i]:indptr[i + 1]]``.

    Each edge appends to both endpoints' rows, so emitting ``(left,
    right)`` and ``(right, left)`` interleaved per edge and stably
    sorting by source keeps every row in emission order.
    """
    entries = 2 * left.size
    src = np.empty(entries, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = left
    src[1::2] = right
    dst[0::2] = right
    dst[1::2] = left
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # The stable sort by source, as a plain sort of unique keys (about
    # four times faster than a stable argsort here).
    key = src * entries + np.arange(entries, dtype=np.int64)
    key.sort()
    return indptr, dst[key % entries]


def _bulk_graph(
    nodes: Sequence,
    indptr: np.ndarray,
    nbr: np.ndarray,
    coords: tuple[np.ndarray, np.ndarray] | None = None,
) -> Graph:
    """The :class:`Graph` over ``nodes`` with CSR rows ``(indptr, nbr)``
    (symmetric and loop-free, as :func:`_neighbor_rows` makes them),
    built as its memoized kernel view alone
    (:meth:`Graph._from_index`; the adjacency dicts follow on first
    use).  The view keeps the rows, made read-only, as its
    :meth:`IndexedGraph.arrays`, and ``coords`` (every node's ``x`` and
    ``y``, when the nodes are points) for its value order.

    The one constructor of every graph built from CSR rows: the UDG
    builder's, and the relabeled, induced and inline-edge graphs
    derived from a view or an edge list.

    An object-array gather keeps every neighbor id the one ``int``
    object of ``list(range(n))`` that the view interns it to
    (``nbr.tolist()`` would allocate a fresh ``int`` per adjacency
    entry).
    """
    n = len(nodes)
    ids = list(range(n))
    indices = np.fromiter(ids, dtype=object, count=n)[nbr].tolist()
    indptr.flags.writeable = nbr.flags.writeable = False
    index = IndexedGraph(
        tuple(nodes),
        dict(zip(nodes, ids)),
        indptr.tolist(),
        indices,
        arrays=(indptr, nbr),
        coords=coords,
    )
    return Graph._from_index(index)  # noqa: SLF001 - same-package bulk path


#: Frontiers narrower than this are expanded node by node in Python,
#: wider ones with one :func:`gather_rows`.  A numpy pass costs ~20 µs
#: however few nodes it expands, a node in Python ~1 µs at UDG fixture
#: degrees.  Measured per connectivity test (2-vCPU VM, median of 7),
#: one numpy pass per level against this split: ``chain_points(1000)``
#: 18.8 → 0.9 ms, a uniform n = 2·10⁴ view 9.3 → 8.4 ms, and the
#: sampler's draws 0.20 → 0.03 ms at n = 60 and 0.74 → 0.60 ms at
#: 1000.  On those n = 1000 draws 16, 32 and 64 took 0.83, 0.77 and
#: 1.09 ms in one run.
NARROW_FRONTIER = 32


def _spans_all(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether a BFS from node 0 over the CSR rows reaches every node
    (``n >= 1``).

    Each level is expanded where it is cheaper: a frontier narrower than
    :data:`NARROW_FRONTIER` entry by entry, reading the rows through
    ``memoryview``s (Python ints, nothing converted), a wider one with
    one :func:`gather_rows`.  Both mark one byte buffer of seen flags.
    """
    n = indptr.size - 1
    seen = bytearray(n)
    seen_mask = np.frombuffer(seen, dtype=np.bool_)
    seen[0] = 1
    ptr, idx = memoryview(indptr), memoryview(indices)
    frontier: list[int] | np.ndarray = [0]
    reached = 1
    while len(frontier):
        if len(frontier) < NARROW_FRONTIER:
            level: list[int] = []
            append = level.append
            for u in frontier:
                for v in idx[ptr[u] : ptr[u + 1]]:
                    if not seen[v]:
                        seen[v] = 1
                        append(v)
            frontier = level
        else:
            flat, _ = gather_rows(indptr, indices, np.asarray(frontier))
            # Deduplicated by hand: a bare np.unique imports numpy.ma on
            # first use, ~20 ms and ~1 MiB in every forked sweep worker.
            fresh = np.sort(flat[~seen_mask[flat]])
            first = np.ones(fresh.size, dtype=bool)
            first[1:] = fresh[1:] != fresh[:-1]
            frontier = fresh[first]
            seen_mask[frontier] = True
            if frontier.size < NARROW_FRONTIER:
                frontier = frontier.tolist()
        reached += len(frontier)
    return reached == n


def _value_order(nodes: tuple, coords) -> list[int] | None:
    """:meth:`IndexedGraph.value_order` of ``nodes`` (``coords`` as
    given to the view)."""
    if nodes and set(map(type, nodes)) == {Point}:
        if coords is None:
            n = len(nodes)
            coords = (
                np.fromiter((p.x for p in nodes), dtype=np.float64, count=n),
                np.fromiter((p.y for p in nodes), dtype=np.float64, count=n),
            )
        order = _coordinate_order(*coords)
        if order is not None:
            return order
    try:
        return sorted(range(len(nodes)), key=nodes.__getitem__)
    except TypeError:
        return None


def _coordinate_order(xs: np.ndarray, ys: np.ndarray) -> list[int] | None:
    """Ids by ascending ``(x, y)``, or ``None`` if a coordinate is not
    finite or two points tie.

    Exact for any coordinates rounded to ``float64``: rounding keeps
    every strict order or makes a tie, and a tie returns ``None``.
    """
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return None
    # Random deployments almost never share an x: sort by x alone (a
    # twentieth of a lexsort's time at n = 2·10⁴), and by (x, y) only
    # when some x repeats.
    order = np.argsort(xs)
    ox = xs[order]
    if (ox[1:] == ox[:-1]).any():
        order = np.lexsort((ys, xs))
        ox, oy = xs[order], ys[order]
        if ((ox[1:] == ox[:-1]) & (oy[1:] == oy[:-1])).any():
            return None
    return order.tolist()
