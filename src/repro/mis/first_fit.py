"""Phase 1 of the two-phased framework: BFS first-fit MIS.

Both the WAF algorithm [10] (Section III) and the paper's new algorithm
(Section IV) select the dominating set the same way: fix an arbitrary
rooted spanning tree ``T`` of ``G`` and pick a maximal independent set
in the *first-fit manner in the breadth-first-search ordering* of ``T``.

The MIS produced this way has the 2-hop separation property: every
selected node (after the first) is exactly two hops from some earlier
selected node.  That property is what Lemma 9 leans on — while the
dominators induce more than one component, some single node is adjacent
to at least two of those components.
"""

from __future__ import annotations

from typing import Hashable, Sequence, TypeVar

from ..graphs.bitset import BitsetGraph
from ..graphs.graph import Graph
from ..graphs.indexed import IndexedGraph
from ..graphs.traversal import BFSTree, bfs_tree, dfs_tree
from ..obs import OBS, trace

N = TypeVar("N", bound=Hashable)

__all__ = [
    "FirstFitMIS",
    "first_fit_mis",
    "first_fit_mis_in_order",
    "first_fit_mis_nodes",
]


class FirstFitMIS(Sequence):
    """The MIS selected by phase 1, with its provenance.

    Attributes:
        nodes: selected independent nodes, in selection order.
        tree: the rooted BFS tree whose ordering drove the selection
            (also the tree the WAF connector phase takes parents from).

    A kernel run keeps the tree as the kernel's id lists and builds the
    node-keyed :class:`~repro.graphs.traversal.BFSTree` only when
    :attr:`tree` is read; :attr:`root` and :meth:`parents` answer from
    the id lists without it.  Equality and pickling go through
    :attr:`tree`, so both forms of one selection compare equal.
    """

    __slots__ = ("nodes", "_tree", "_root", "_ids")

    def __init__(self, nodes: tuple, tree: BFSTree):
        self.nodes = nodes
        self._tree = tree
        self._root = tree.root
        self._ids = None

    @classmethod
    def _from_kernel(
        cls,
        csr: IndexedGraph,
        root: Hashable,
        chosen_ids: list[int],
        order_ids: list[int],
        parent_ids: list[int],
        depth_ids: list[int],
    ) -> "FirstFitMIS":
        """The selection ``chosen_ids`` over ``csr`` whose BFS tree from
        ``root`` is given by a kernel's ``(order, parent, depth)`` id
        lists."""
        mis = cls.__new__(cls)
        nodes = csr.nodes
        mis.nodes = tuple(nodes[v] for v in chosen_ids)
        mis._tree = None
        mis._root = root
        mis._ids = (csr, chosen_ids, order_ids, parent_ids, depth_ids)
        return mis

    @property
    def root(self):
        """The tree root (the leader); always the first selected node."""
        return self._root

    @property
    def tree(self) -> BFSTree:
        tree = self._tree
        if tree is None:
            csr, _, order_ids, parent_ids, depth_ids = self._ids
            nodes = csr.nodes
            tree = self._tree = BFSTree(
                root=self._root,
                order=tuple(nodes[v] for v in order_ids),
                parent={
                    nodes[v]: nodes[parent_ids[v]]
                    for v in order_ids
                    if parent_ids[v] >= 0
                },
                depth={nodes[v]: depth_ids[v] for v in order_ids},
            )
        return tree

    def parents(self) -> list:
        """The tree parent of every selected node, aligned with
        :attr:`nodes`; ``None`` for the root.

        Raises:
            KeyError: if a selected non-root node is not in the tree.
        """
        if self._ids is None:
            parent, root = self._tree.parent, self._root
            return [None if v == root else parent[v] for v in self.nodes]
        csr, chosen_ids, _, parent_ids, _ = self._ids
        nodes = csr.nodes
        return [
            nodes[p] if (p := parent_ids[v]) >= 0 else None for v in chosen_ids
        ]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes and self.tree == other.tree

    __hash__ = None  # type: ignore[assignment] - the tree's dicts are unhashable

    def __reduce__(self):
        return (FirstFitMIS, (self.nodes, self.tree))

    def __repr__(self) -> str:
        return f"FirstFitMIS(nodes={self.nodes!r}, tree={self.tree!r})"

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index):
        return self.nodes[index]

    def __contains__(self, node) -> bool:
        return node in set(self.nodes)

    def as_set(self) -> set:
        return set(self.nodes)


def first_fit_mis_in_order(graph: Graph[N], order: Sequence[N]) -> list[N]:
    """First-fit MIS over an explicit node ordering.

    Scans ``order`` and keeps each node none of whose neighbors was
    already kept.  ``order`` must cover every node of the graph for the
    result to be maximal (the callers guarantee this).
    """
    chosen: list[N] = []
    chosen_set: set[N] = set()
    for v in order:
        if any(u in chosen_set for u in graph.neighbors(v)):
            continue
        chosen.append(v)
        chosen_set.add(v)
    if OBS.enabled:
        OBS.incr("mis.nodes_scanned", len(order))
        OBS.incr("mis.selected", len(chosen))
    return chosen


def _scan(csr: IndexedGraph[N], order_ids: list[int]) -> list[int]:
    """First-fit selection over ``order_ids`` on the CSR view.

    A node is selectable exactly when no earlier selection covered it:
    coverage is via closed neighborhoods of chosen nodes and a covered
    node is never chosen, so "uncovered" and "no chosen neighbor"
    coincide.  Each selection marks ``v`` and its row covered, and the
    per-node test is one byte read.  Selects exactly
    :func:`first_fit_mis_in_order`'s nodes (the view preserves
    iteration and adjacency order).
    """
    indptr, indices = csr.indptr, csr.indices
    covered = bytearray(len(csr))
    chosen_ids: list[int] = []
    append = chosen_ids.append
    for v in order_ids:
        if not covered[v]:
            append(v)
            covered[v] = 1
            for u in indices[indptr[v] : indptr[v + 1]]:
                covered[u] = 1
    if OBS.enabled:
        OBS.incr("mis.nodes_scanned", len(order_ids))
        OBS.incr("mis.selected", len(chosen_ids))
    return chosen_ids


def _bfs_scan_bitset(bitset: BitsetGraph[N], root: int) -> tuple[list[int], int]:
    """Fused BFS + first-fit selection on the bitset kernel.

    One pass instead of BFS-then-scan: when a node is dequeued, every
    node earlier in BFS order has already been dequeued and had its
    selection applied, so deciding "still uncovered?" at dequeue time
    selects exactly the nodes the two-pass pipeline would.  Returns
    ``(chosen_ids, visited_count)``; the caller checks connectivity.
    """
    csr = bitset.indexed
    indptr, indices = csr.indptr, csr.indices
    masks = bitset.neighbor_masks
    n = len(csr)
    uncovered = bitset.full_mask
    covered = bytearray(n)
    seen = bytearray(n)
    seen[root] = 1
    order = [root]
    append = order.append
    chosen_ids: list[int] = []
    choose = chosen_ids.append
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        if not covered[v]:
            choose(v)
            # Flag exactly the newly covered ids (each node is drained
            # once over the run).
            newly = uncovered & (masks[v] | (1 << v))
            uncovered &= ~newly
            while newly:
                lsb = newly & -newly
                covered[lsb.bit_length() - 1] = 1
                newly ^= lsb
        for u in indices[indptr[v] : indptr[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                append(u)
    if OBS.enabled:
        OBS.incr("mis.nodes_scanned", len(order))
        OBS.incr("mis.selected", len(chosen_ids))
        OBS.incr("bitset.word_ops", len(chosen_ids) * bitset.words * 3)
    return chosen_ids, len(order)


def _first_fit_mis_kernel(
    index: IndexedGraph[N] | BitsetGraph[N], root: N
) -> FirstFitMIS:
    """The BFS + first-fit pipeline on a kernel view's CSR lists, tree
    included (as id lists; see :class:`FirstFitMIS`)."""
    csr = getattr(index, "indexed", index)
    order_ids, parent_ids, depth_ids = csr.bfs(csr.id_of(root))
    if len(order_ids) != len(csr):
        raise ValueError("graph must be connected for the two-phased framework")
    return FirstFitMIS._from_kernel(
        csr, root, _scan(csr, order_ids), order_ids, parent_ids, depth_ids
    )


def first_fit_mis_nodes(
    graph: Graph[N],
    root: N | None = None,
    *,
    index: IndexedGraph[N] | BitsetGraph[N] | None = None,
) -> tuple:
    """The phase-1 dominator tuple alone — no spanning-tree assembly.

    Selects exactly :func:`first_fit_mis`'s BFS-order MIS (same root
    defaulting, same counters) but skips materializing the
    :class:`~repro.graphs.traversal.BFSTree` parent/depth maps, which
    solvers that never read tree parents — the Section IV greedy —
    otherwise pay for at every node of the graph.

    Raises:
        ValueError: if the graph is empty or not connected.
    """
    if len(graph) == 0:
        raise ValueError("first_fit_mis requires a non-empty graph")
    if root is None:
        root = _smallest_node(graph)
    with trace("mis.first_fit"):
        if index is None:
            tree = bfs_tree(graph, root)
            if len(tree.order) != len(graph):
                raise ValueError(
                    "graph must be connected for the two-phased framework"
                )
            return tuple(first_fit_mis_in_order(graph, tree.order))
        if isinstance(index, BitsetGraph):
            csr = index.indexed
            chosen_ids, visited = _bfs_scan_bitset(index, csr.id_of(root))
        else:
            csr = index
            order_ids = csr.bfs_order(csr.id_of(root))
            visited = len(order_ids)
            chosen_ids = _scan(csr, order_ids)
        if visited != len(csr):
            raise ValueError(
                "graph must be connected for the two-phased framework"
            )
        nodes = csr.nodes
        return tuple(nodes[v] for v in chosen_ids)


def _smallest_node(graph: Graph[N]) -> N:
    """The deterministic default root: the smallest node by value.

    Read off the rank table of the graph's memoized view
    (:meth:`~repro.graphs.indexed.IndexedGraph.value_order`).  Nodes
    that are not mutually orderable have none; their root is the least
    node by the gain trackers' tie-break comparison instead.

    Raises:
        ValueError: if the graph is empty.
    """
    view = IndexedGraph.from_graph(graph)
    if not len(view):
        raise ValueError("an empty graph has no default root")
    order = view.value_order()
    if order is None:
        from ..cds.gain import _least  # the cds layer sits above this one

        return _least(view.nodes)
    return view.nodes[order[0]]


def first_fit_mis(
    graph: Graph[N],
    root: N | None = None,
    tree_kind: str = "bfs",
    *,
    index: IndexedGraph[N] | BitsetGraph[N] | None = None,
) -> FirstFitMIS:
    """Tree-order first-fit MIS of a connected graph.

    ``root`` defaults to the smallest node (a deterministic "leader").
    The root is always selected (it is first in its own traversal
    order), so the returned MIS contains the leader — matching [10],
    where the leader initiates both phases.

    ``tree_kind`` selects the spanning tree whose visit order drives
    the first fit: ``"bfs"`` (the choice of [10]'s distributed
    implementation and the default everywhere) or ``"dfs"`` (Section
    III only requires an *arbitrary* rooted spanning tree; the ablation
    benchmarks compare the two).  Either order guarantees that every
    non-root node's parent is visited earlier, which is what the WAF
    connector correctness argument needs.

    ``index`` optionally supplies a prebuilt kernel view of ``graph``
    (:func:`~repro.graphs.backend.build_kernel`); the BFS and the
    first-fit scan then run on its CSR lists (bit-identical selection,
    cheaper per step).  Callers that run several phases on one topology
    build the view once and thread it through — building it costs as
    much as one BFS, so a one-shot caller gains nothing.  The view must
    describe ``graph``; it is ignored for ``"dfs"``.

    Raises:
        ValueError: if the graph is empty or not connected (the
            two-phased framework is defined on connected topologies),
            or on an unknown ``tree_kind``.
    """
    if len(graph) == 0:
        raise ValueError("first_fit_mis requires a non-empty graph")
    if tree_kind not in ("bfs", "dfs"):
        raise ValueError(f"unknown tree_kind {tree_kind!r}")
    if root is None:
        root = _smallest_node(graph)
    with trace("mis.first_fit"):
        if index is not None and tree_kind == "bfs":
            return _first_fit_mis_kernel(index, root)
        builder = bfs_tree if tree_kind == "bfs" else dfs_tree
        tree = builder(graph, root)
        if len(tree.order) != len(graph):
            raise ValueError("graph must be connected for the two-phased framework")
        nodes = first_fit_mis_in_order(graph, tree.order)
    return FirstFitMIS(nodes=tuple(nodes), tree=tree)
