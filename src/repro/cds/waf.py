"""The WAF two-phased algorithm [10], as analyzed in Section III.

Phase 1: fix a rooted spanning tree ``T`` (we use the BFS tree, the
choice of [10]'s distributed implementation) and select the MIS ``I``
first-fit in BFS order.  Phase 2: let ``s`` be the neighbor of the root
adjacent to the largest number of nodes of ``I``; the connector set is

    ``C = {s} ∪ { parent_T(v) : v ∈ I \\ I(s) }``

where ``I(s) = I ∩ N[s]``.  Section III proves ``|I ∪ C| ≤ 7⅓ γ_c``
(Theorem 8), improving the earlier ``8 γ_c − 1`` of [10] and
``7.6 γ_c + 1.4`` of [12].

Correctness sketch (why ``I ∪ C`` is connected): the root is in ``I``
and in ``I(s)``; every other ``v ∈ I`` lies at tree depth ≥ 2, and its
parent — adjacent to ``v`` — was dominated at selection time by some
MIS node of strictly smaller depth, so induction on depth connects
every dominator to the root through ``C``.
"""

from __future__ import annotations

from typing import Hashable, TypeVar

from ..graphs.backend import build_kernel
from ..graphs.bitset import BitsetGraph
from ..graphs.graph import Graph
from ..graphs.indexed import IndexedGraph
from ..mis.first_fit import FirstFitMIS, first_fit_mis
from ..obs import OBS, trace
from .base import CDSResult
from .gain import _least

N = TypeVar("N", bound=Hashable)

__all__ = ["waf_cds", "waf_connectors"]


def waf_connectors(
    graph: Graph[N],
    mis: FirstFitMIS,
    index: IndexedGraph[N] | BitsetGraph[N] | None = None,
) -> list[N]:
    """Phase 2 of WAF: ``{s}`` plus tree parents of ``I \\ I(s)``.

    Returns the connectors in a deterministic order (``s`` first, then
    parents in MIS selection order, deduplicated).  The coverage scan
    runs on the CSR lists of ``index`` (any kernel view of ``graph``;
    the graph's memoized CSR view when absent) with a byte-mask MIS
    membership test.  Each candidate's coverage is computed exactly
    once, so ``waf.coverage_evaluations`` equals the root's degree.
    """
    root = mis.root
    mis_set = mis.as_set()
    root_neighbors = graph.neighbors(root)
    if not root_neighbors:
        return []
    # s: the root's neighbor adjacent to the most MIS nodes; ties to the
    # smallest node for determinism (by the gain trackers' comparison,
    # which also orders unorderable mixes).
    if index is None:
        index = IndexedGraph.from_graph(graph)
    csr = getattr(index, "indexed", index)
    id_of = csr.id_of
    indptr, indices = csr.indptr, csr.indices
    in_mis = bytearray(len(csr))
    for v in mis_set:
        in_mis[id_of(v)] = 1
    coverages = []
    for u in root_neighbors:
        ui = id_of(u)
        cov = 0
        for w in indices[indptr[ui] : indptr[ui + 1]]:
            cov += in_mis[w]
        coverages.append(cov)
    evaluations = len(root_neighbors)
    best = max(coverages)
    s = _least(u for u, cov in zip(root_neighbors, coverages) if cov == best)
    covered_by_s = {w for w in graph.neighbors(s) if w in mis_set}

    connectors: list[N] = [s]
    seen: set[N] = {s}
    for v, p in zip(mis.nodes, mis.parents()):
        if v in covered_by_s or v == root:
            continue
        if p not in seen and p not in mis_set:
            connectors.append(p)
            seen.add(p)
    if OBS.enabled:
        OBS.incr("waf.coverage_evaluations", evaluations)
        OBS.incr("waf.connectors_chosen", len(connectors))
    return connectors


def waf_cds(
    graph: Graph[N],
    root: N | None = None,
    tree_kind: str = "bfs",
    kernel: str = "auto",
) -> CDSResult:
    """Run the full WAF two-phased algorithm.

    Args:
        graph: a connected topology (UDG for the guarantees to apply).
        root: tree root / leader; defaults to the smallest node.
        tree_kind: spanning tree driving phase 1 ("bfs" per [10], or
            "dfs" — Section III allows an arbitrary rooted tree).
        kernel: graph-kernel selection for the hot loops — one of
            :data:`~repro.graphs.backend.KERNELS`.  ``"auto"`` (default)
            resolves to the CSR kernel at every size.  Both phases run
            on the CSR lists under every kernel (WAF has no greedy
            phase 2 for a kernel to speed up), so every kernel gives
            the same result, counters included.

    Returns:
        A validated-shape :class:`CDSResult` with ``dominators`` the
        phase-1 MIS and ``connectors`` the phase-2 set.

    Raises:
        ValueError: if the graph is empty or disconnected, or on an
            unknown ``kernel``.
    """
    if len(graph) == 1:
        only = next(iter(graph))
        return CDSResult(
            algorithm="waf", nodes=frozenset([only]), dominators=(only,), connectors=()
        )
    # Both phases read the CSR lists, so "auto" builds no bitset masks.
    index = build_kernel(graph, "indexed" if kernel == "auto" else kernel)
    with trace("waf.phase1"):
        mis = first_fit_mis(graph, root, tree_kind, index=index)
    with trace("waf.phase2"):
        connectors = waf_connectors(graph, mis, index)
    nodes = frozenset(mis.nodes) | frozenset(connectors)
    return CDSResult(
        algorithm="waf",
        nodes=nodes,
        dominators=tuple(mis.nodes),
        connectors=tuple(connectors),
        meta={"root": mis.root, "s": connectors[0] if connectors else None},
    )

