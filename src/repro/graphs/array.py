"""The array graph kernel: CSR adjacency as numpy arrays.

The third kernel tier.  :class:`~repro.graphs.indexed.IndexedGraph`
(PR 2) removed hashing from the hot loops and
:class:`~repro.graphs.bitset.BitsetGraph` (PR 3) made membership-heavy
scans word-parallel — but both still pay an *interpreted step per node
touched* (the CSR kernel per adjacency entry, the bitset kernel per
``⌈n/64⌉``-word mask op, and mask sets cost ``n²/8`` bytes, which at
``n = 10⁶`` would be 125 GB).  For the 10⁵–10⁶-node decade the
per-element work has to leave the interpreter entirely:
:class:`ArrayGraph` stores the same CSR arrays as contiguous numpy
``int64`` buffers, so whole frontiers are gathered, filtered, and
deduplicated with a constant number of C-level vector calls per BFS
level instead of a Python loop iteration per edge.

Like the bitset kernel, the array view *wraps* an
:class:`IndexedGraph` (same dense ids, same node interning — the views
are interchangeable at every ``index=`` seam) and is a read-only
snapshot.  Traversals are **bit-identical** to the CSR kernel's: the
level-synchronous BFS gathers each frontier's neighbor lists in
frontier order (which equals the reference's dequeue order) and keeps
the first occurrence of every newly seen id (which equals the
reference's append order), so ``order``/``parent``/``depth`` match
:meth:`IndexedGraph.bfs` element for element.

Memory: two ``int64`` arrays of ``n+1`` and ``2|E|`` entries — ~80 MB
at ``n = 10⁶`` and UDG-typical densities, versus the bitset kernel's
quadratic masks.  When :data:`repro.obs.OBS` is enabled the vector hot
paths report ``array.gather_elements`` (CSR entries gathered) and
``array.bfs_levels`` (frontier expansions); see
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

import numpy as np

from ..obs import OBS
from .graph import Graph
from .indexed import IndexedGraph

N = TypeVar("N", bound=Hashable)

__all__ = ["ArrayGraph", "gather_rows"]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows for ``ids``, plus each row's length.

    Returns ``(flat, counts)`` where ``flat`` is the neighbor ids of
    every ``ids[k]`` laid out row after row (each row in adjacency
    insertion order, rows in ``ids`` order) and ``counts[k]`` is the
    k-th row's length — the shared gather primitive of every vectorized
    hot path (BFS frontiers, gain re-scoring, coverage counting).
    """
    counts = indptr[ids + 1] - indptr[ids]
    total = int(counts.sum())
    if total == 0:
        return indices[:0], counts
    starts = indptr[ids]
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return indices[flat], counts


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


class ArrayGraph(Generic[N]):
    """A numpy-CSR view layered on an :class:`IndexedGraph`.

    Shares the underlying view's dense ids and node interning, so the
    kernels are interchangeable wherever an ``index=`` argument is
    accepted.  The numpy buffers are the view's own
    (:meth:`IndexedGraph.arrays`, no copy) and read-only; hot loops bind
    them to locals and stay inside numpy for whole frontiers/batches at
    a time.
    """

    __slots__ = ("indexed", "_indptr", "_indices", "_degrees")

    def __init__(self, indexed: IndexedGraph[N]):
        self.indexed = indexed
        self._indptr, self._indices = indexed.arrays()
        self._degrees: np.ndarray | None = None

    @classmethod
    def from_indexed(cls, index: IndexedGraph[N]) -> "ArrayGraph[N]":
        """Wrap an existing CSR view."""
        return cls(index)

    @classmethod
    def from_graph(cls, graph: Graph[N]) -> "ArrayGraph[N]":
        return cls(IndexedGraph.from_graph(graph))

    # -- flat arrays ----------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers (``int64``); neighbors of ``i`` span
        ``indices[indptr[i]:indptr[i+1]]``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (``int64``): all neighbor ids, flat, in
        source adjacency insertion order per row."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """All node degrees as one ``int64`` array (computed once)."""
        degs = self._degrees
        if degs is None:
            degs = self._degrees = np.diff(self._indptr)
        return degs

    # -- delegation to the CSR view -------------------------------------------

    @property
    def nodes(self) -> tuple:
        return self.indexed.nodes

    def id_of(self, node: N) -> int:
        return self.indexed.id_of(node)

    def node_at(self, i: int) -> N:
        return self.indexed.node_at(i)

    def __contains__(self, node: N) -> bool:
        return node in self.indexed

    def __len__(self) -> int:
        return len(self.indexed)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indexed)

    def degree(self, i: int) -> int:
        return self.indexed.degree(i)

    def edge_count(self) -> int:
        return self.indexed.edge_count()

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbor ids of ``i`` as an ``int64`` array view (source
        adjacency insertion order, like :meth:`IndexedGraph.neighbors`)."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    # -- traversal primitives ---------------------------------------------------

    def _bfs_levels(
        self, root: int, parent: np.ndarray | None, seen: np.ndarray
    ) -> list[np.ndarray]:
        """Level-synchronous BFS core: one numpy pass per level.

        Appends each level's newly discovered ids (in the reference
        BFS's append order — see the module docstring) to the returned
        chunk list, marking ``seen`` and filling ``parent`` when given.
        ``seen[root]`` must already be set by the caller.
        """
        indptr, indices = self._indptr, self._indices
        frontier = np.array([root], dtype=np.int64)
        chunks = [frontier]
        levels = 0
        gathered = 0
        while frontier.size:
            cand, counts = gather_rows(indptr, indices, frontier)
            gathered += cand.size
            fresh = ~seen[cand]
            cand = cand[fresh]
            if cand.size == 0:
                break
            src = np.repeat(frontier, counts)[fresh]
            # First occurrence per id, in candidate order == reference
            # append order (np.unique's return_index is the first hit).
            uniq, first = np.unique(cand, return_index=True)
            first.sort()
            frontier = cand[first]
            seen[uniq] = True
            if parent is not None:
                parent[frontier] = src[first]
            chunks.append(frontier)
            levels += 1
        if OBS.enabled:
            OBS.incr("array.bfs_levels", levels)
            OBS.incr("array.gather_elements", gathered)
        return chunks

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int]]:
        """BFS over ``root``'s component — same ``(order, parent,
        depth)`` contract and bit-identical output to
        :meth:`IndexedGraph.bfs`, computed a frontier at a time."""
        n = len(self.indexed)
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        parent = np.full(n, -1, dtype=np.int64)
        chunks = self._bfs_levels(root, parent, seen)
        depth = np.full(n, -1, dtype=np.int64)
        for d, chunk in enumerate(chunks):
            depth[chunk] = d
        order = np.concatenate(chunks)
        return order.tolist(), parent.tolist(), depth.tolist()

    def bfs_order(self, root: int) -> list[int]:
        """Just the BFS visit order of ``root``'s component (matches
        :meth:`IndexedGraph.bfs_order`)."""
        seen = np.zeros(len(self.indexed), dtype=bool)
        seen[root] = True
        return np.concatenate(self._bfs_levels(root, None, seen)).tolist()

    def connected_components(self) -> list[list[int]]:
        """Components as id lists, each in BFS order, in first-id order
        (matches :meth:`IndexedGraph.connected_components`)."""
        n = len(self.indexed)
        seen = np.zeros(n, dtype=bool)
        comps: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            comps.append(
                np.concatenate(self._bfs_levels(start, None, seen)).tolist()
            )
        return comps

    def is_connected(self) -> bool:
        """Whether the view is connected (:meth:`IndexedGraph.is_connected`,
        on the same arrays).  The empty graph is not."""
        return self.indexed.is_connected()

    def __repr__(self) -> str:
        return f"ArrayGraph(|V|={len(self)}, |E|={self.edge_count()})"
