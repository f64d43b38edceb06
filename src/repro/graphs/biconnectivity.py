"""Biconnectivity: cut vertices, blocks, and ``is_k_connected`` (k ≤ 2).

The paper's backbone is a plain CDS — one node failure can sever it.
The fault-tolerant variants in :mod:`repro.cds.mfold` need the classic
structural machinery: which backbone nodes are *cut vertices* of the
induced backbone subgraph, and which maximal 2-connected *blocks* they
stitch together.  This module implements the Hopcroft–Tarjan lowpoint
algorithm iteratively (no recursion limit at 10⁵-node scale) over the
same kernel seam every solver phase uses: any :class:`Backend` view —
:class:`~repro.graphs.indexed.IndexedGraph` (the ``"indexed"`` and
``"array"`` kernels) or :class:`~repro.graphs.bitset.BitsetGraph`,
both read through their CSR rows — or a plain dict-based
:class:`Graph`, which is interned on the fly.

Results are expressed in original node labels and are deterministic:
DFS roots follow the view's id order (the source graph's insertion
order) and children follow adjacency order, so every kernel reports
bit-identical cut sets and block lists.

Conventions (documented because the small cases matter to validators):

* ``cut_vertices``: nodes whose removal increases the number of
  connected components.  Defined for disconnected graphs too (each
  component is scanned).
* ``blocks``: maximal sets of nodes with no internal cut vertex — the
  biconnected components, as node lists.  A bridge contributes a
  2-node block; an isolated node a 1-node block.
* ``is_biconnected``: connected with no cut vertex.  ``K1`` and ``K2``
  count as biconnected under this convention (it is exactly the
  "survives any single node deletion while non-empty" property the
  augmentation pass targets).
* ``is_k_connected``: the strict textbook notion — ``|V| > k`` and no
  set of ``k-1`` vertices disconnects.  So ``K2`` is 1-connected but
  *not* 2-connected.  Only ``k ∈ {1, 2}`` is implemented.
"""

from __future__ import annotations

from typing import Hashable, Sequence, TypeVar

from ..obs import OBS
from .backend import Backend, adjacency_rows
from .graph import Graph
from .indexed import IndexedGraph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "articulation_ids",
    "blocks",
    "cut_vertices",
    "is_biconnected",
    "is_k_connected",
]


def _as_rows(graph: "Graph[N] | Backend") -> tuple[Sequence, tuple]:
    """``(adjacency rows, node tuple)`` for a Graph or any kernel view."""
    if isinstance(graph, Graph):
        view: Backend = IndexedGraph.from_graph(graph)
    else:
        view = graph
    return adjacency_rows(view), view.nodes


def articulation_ids(rows: Sequence) -> list[int]:
    """Dense ids of the cut vertices, given adjacency rows.

    The iterative Hopcroft–Tarjan lowpoint scan: one DFS per component
    (roots in id order, children in adjacency order), a non-root is an
    articulation point iff some DFS child ``c`` has ``low[c] >=
    disc[v]``, a root iff it has two or more DFS children.  Runs in
    ``O(n + m)`` and touches no node objects — callers intern once and
    reuse the rows across phases.
    """
    n = len(rows)
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        # Stack frames: (node, parent, iterator position into rows[node]).
        disc[root] = low[root] = timer = timer + 1
        stack = [(root, -1, 0)]
        while stack:
            v, parent, i = stack[-1]
            row = rows[v]
            if i < len(row):
                stack[-1] = (v, parent, i + 1)
                u = row[i]
                if disc[u] == -1:
                    if v == root:
                        root_children += 1
                    timer += 1
                    disc[u] = low[u] = timer
                    stack.append((u, v, 0))
                elif u != parent:
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if pv != root and low[v] >= disc[pv] and not _seen(out, pv):
                        out.append(pv)
        if root_children >= 2 and not _seen(out, root):
            out.append(root)
    if OBS.enabled:
        OBS.incr("biconn.dfs_nodes", n)
        OBS.incr("biconn.cut_vertices", len(out))
    return sorted(out)


def _seen(out: list[int], v: int) -> bool:
    # Articulation points can be re-discovered once per child subtree;
    # the list stays tiny (<= n), and a membership scan on it beats
    # allocating a bytearray per call at the sizes the augmentation
    # loop hits this with (induced backbones).
    return v in out


def cut_vertices(graph: "Graph[N] | Backend") -> set:
    """The cut vertices of ``graph``, as original node objects.

    Accepts a dict-based :class:`Graph` or any kernel view; components
    are handled independently, so the input need not be connected.
    """
    rows, nodes = _as_rows(graph)
    return {nodes[i] for i in articulation_ids(rows)}


def blocks(graph: "Graph[N] | Backend") -> list[list]:
    """The biconnected components (blocks), as lists of original nodes.

    Each block is a maximal vertex set inducing a subgraph with no
    internal cut vertex; cut vertices appear in every block they join.
    Isolated nodes form singleton blocks.  Output order is
    deterministic: blocks are emitted as the DFS finishes them, nodes
    within a block in ascending dense-id order.
    """
    rows, nodes = _as_rows(graph)
    n = len(rows)
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    out: list[list] = []

    def pop_block(v: int, u: int) -> None:
        members: set[int] = set()
        while edge_stack:
            a, b = edge_stack[-1]
            members.add(a)
            members.add(b)
            edge_stack.pop()
            if (a, b) == (v, u):
                break
        out.append([nodes[i] for i in sorted(members)])

    for root in range(n):
        if disc[root] != -1:
            continue
        if not len(rows[root]):
            out.append([nodes[root]])
            disc[root] = timer = timer + 1
            continue
        disc[root] = low[root] = timer = timer + 1
        stack = [(root, -1, 0)]
        while stack:
            v, parent, i = stack[-1]
            row = rows[v]
            if i < len(row):
                stack[-1] = (v, parent, i + 1)
                u = row[i]
                if disc[u] == -1:
                    edge_stack.append((v, u))
                    timer += 1
                    disc[u] = low[u] = timer
                    stack.append((u, v, 0))
                elif u != parent and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        pop_block(pv, v)
    return out


def is_biconnected(graph: "Graph[N] | Backend") -> bool:
    """Connected with no cut vertex (``K1``/``K2`` count as biconnected).

    This is the exact property
    :func:`repro.cds.mfold.augment_biconnected` establishes on the
    backbone: the induced subgraph stays connected (or becomes empty)
    after deleting any single node.
    """
    rows, _ = _as_rows(graph)
    n = len(rows)
    if n == 0:
        return False
    if n == 1:
        return True
    if not _rows_connected(rows):
        return False
    return not articulation_ids(rows)


def is_k_connected(graph: "Graph[N] | Backend", k: int) -> bool:
    """Strict vertex connectivity test for ``k ∈ {1, 2}``.

    ``k=1`` is plain connectivity (of a non-empty graph); ``k=2``
    requires ``|V| >= 3``, connectivity, and no cut vertex.  Higher
    ``k`` would need a flow computation this codebase has no use for
    yet, so it raises.

    Raises:
        ValueError: for ``k`` outside ``{1, 2}``.
    """
    if k not in (1, 2):
        raise ValueError(f"is_k_connected implements k in {{1, 2}}, got {k}")
    rows, _ = _as_rows(graph)
    n = len(rows)
    if n == 0 or (k == 2 and n < 3):
        return False
    if not _rows_connected(rows):
        return False
    return k == 1 or not articulation_ids(rows)


def _rows_connected(rows: Sequence) -> bool:
    """BFS reachability from id 0 over adjacency rows."""
    n = len(rows)
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for u in rows[v]:
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    nxt.append(u)
        frontier = nxt
    return count == n
