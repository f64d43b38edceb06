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

import numpy as np

from ..graphs.array import ArrayGraph, gather_rows
from ..graphs.backend import build_kernel
from ..graphs.bitset import BitsetGraph, mask_of
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
    index: IndexedGraph[N] | BitsetGraph[N] | ArrayGraph[N] | None = None,
) -> list[N]:
    """Phase 2 of WAF: ``{s}`` plus tree parents of ``I \\ I(s)``.

    Returns the connectors in a deterministic order (``s`` first, then
    parents in MIS selection order, deduplicated).  ``index`` optionally
    supplies a prebuilt kernel view of ``graph`` so the coverage scan
    runs on flat arrays with a byte-mask MIS membership test — on the
    bitset kernel, as one AND-plus-popcount per candidate against the
    MIS mask; on the array kernel, as one gather-plus-bincount over all
    candidates at once; the selected ``s`` (and hence the connectors)
    is identical every way.  Each candidate's coverage is computed
    exactly once, so ``waf.coverage_evaluations`` equals the root's
    degree.
    """
    root = mis.root
    mis_set = mis.as_set()
    root_neighbors = graph.neighbors(root)
    if not root_neighbors:
        return []
    # s: the root's neighbor adjacent to the most MIS nodes; ties to the
    # smallest node for determinism (by the gain trackers' comparison,
    # which also orders unorderable mixes).
    if isinstance(index, BitsetGraph):
        id_of = index.id_of
        mis_mask = mask_of((id_of(v) for v in mis_set), len(index))
        nbr = index.neighbor_mask
        coverages = [(nbr(id_of(u)) & mis_mask).bit_count() for u in root_neighbors]
        if OBS.enabled:
            OBS.incr("bitset.word_ops", len(root_neighbors) * index.words)
            OBS.incr("bitset.popcounts", len(root_neighbors))
    elif isinstance(index, ArrayGraph):
        id_of = index.id_of
        in_mis = np.zeros(len(index), dtype=bool)
        in_mis[np.fromiter((id_of(v) for v in mis_set), dtype=np.int64)] = True
        ids = np.fromiter((id_of(u) for u in root_neighbors), dtype=np.int64)
        nbrs, counts = gather_rows(index.indptr, index.indices, ids)
        hits = in_mis[nbrs]
        owners = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
        coverages = np.bincount(owners[hits], minlength=ids.size).tolist()
        if OBS.enabled:
            OBS.incr("array.gather_elements", int(nbrs.size))
    elif index is not None:
        indptr, indices = index.indptr, index.indices
        in_mis = bytearray(len(index))
        for v in mis_set:
            in_mis[index.id_of(v)] = 1
        coverages = []
        for u in root_neighbors:
            ui = index.id_of(u)
            cov = 0
            for w in indices[indptr[ui] : indptr[ui + 1]]:
                cov += in_mis[w]
            coverages.append(cov)
    else:
        coverages = [
            sum(1 for w in graph.neighbors(u) if w in mis_set)
            for u in root_neighbors
        ]
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
            resolves to the CSR kernel at every size: WAF's coverage
            scan walks short adjacency rows and is not mask-bound, so
            neither accelerated kernel's build pays for itself here
            (see ``docs/performance.md`` §large-n).  Pass ``"bitset"``
            or ``"array"`` explicitly to exercise the mask-based or
            vectorized coverage scan; the result is identical under
            every kernel.

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
    index = build_kernel(graph, kernel, auto_bitset=False)
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

