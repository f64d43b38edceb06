"""The paper's new two-phased algorithm (Section IV).

Phase 1 is identical to WAF: the BFS first-fit MIS ``I``.  Phase 2
selects connectors *greedily by gain*: while ``G[I ∪ C]`` has more than
one component, add the node ``w ∈ V \\ (I ∪ C)`` whose addition merges
the most components (maximum ``Δ_w q(C)``).  Lemma 9 guarantees such a
node always exists with gain ≥ 1 (indeed ≥ ⌈q/γ_c⌉ − 1 for some node of
the optimum), so the loop terminates with a CDS.

Theorem 10 bounds the output by ``6 7/18 γ_c`` via the C1/C2/C3 prefix
decomposition; the recorded ``gain_history`` and ``q_history`` in the
result's ``meta`` let the analysis module re-derive that decomposition
on concrete runs (see :func:`repro.analysis.bounds_check.prefix_decomposition`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from ..graphs.backend import build_kernel, choose_kernel, gain_tracker
from ..graphs.bitset import BitsetGraph
from ..graphs.graph import Graph
from ..graphs.indexed import IndexedGraph
from ..mis.first_fit import _smallest_node, first_fit_mis_nodes
from ..obs import OBS, trace
from .base import CDSResult

N = TypeVar("N", bound=Hashable)

__all__ = ["greedy_connector_cds", "greedy_connectors"]


def greedy_connectors(
    graph: Graph[N],
    dominators: Iterable[N],
    tie_break: str = "min",
    index: IndexedGraph[N] | BitsetGraph[N] | None = None,
    kernel: str | None = None,
) -> tuple[list[N], list[int], list[int]]:
    """Run the greedy phase 2 on an already-chosen dominating set.

    Selection runs on the gain tracker for ``index`` and ``kernel``
    (:func:`repro.graphs.backend.gain_tracker`:
    :class:`~repro.cds.bitset_gain.BitsetGainTracker` on the bitset
    view, :class:`~repro.cds.array_gain.ArrayGainTracker` on the CSR
    view under ``"array"``, :class:`~repro.cds.lazy_gain.LazyGainTracker`
    otherwise) — all candidate-restricted, lazily re-scoring, and
    bit-identical to the reference :class:`~repro.cds.gain.GainTracker`
    rescan under every tie-break mode (the randomized suites in
    ``tests/cds/test_lazy_gain.py``, ``tests/cds/test_bitset.py`` and
    ``tests/cds/test_array_gain.py`` hold the trackers to the same
    ``(node, gain)`` sequence).

    Args:
        graph: the connected topology.
        dominators: the phase-1 MIS (any dominating set with the 2-hop
            separation property works; Lemma 9 needs it).
        tie_break: gain tie resolution ("min" / "max" / "degree"),
            forwarded to the tracker's ``best_connector``.
        index: optional prebuilt kernel view of ``graph``; a CSR view
            is built here when absent (callers running several phases
            should build one kernel once and thread it through).
        kernel: the resolved kernel name
            (:func:`~repro.graphs.backend.choose_kernel`'s) that built
            ``index``; ``None`` names the view's own kernel.

    Returns:
        ``(connectors, gain_history, q_history)`` where ``q_history[i]``
        is ``q`` *before* the i-th selection (so ``q_history[0] = |I|``)
        plus a final entry of 1.
    """
    if index is None:
        index = IndexedGraph.from_graph(graph)
    tracker = gain_tracker(index, dominators, kernel)
    connectors: list[N] = []
    gains: list[int] = []
    q_values: list[int] = [tracker.component_count]
    while tracker.component_count > 1:
        w, g = tracker.best_connector(tie_break)
        realized = tracker.add(w)
        assert realized == g
        connectors.append(w)
        gains.append(g)
        q_values.append(tracker.component_count)
    if OBS.enabled:
        OBS.incr("greedy.connectors_chosen", len(connectors))
    return connectors, gains, q_values


def greedy_connector_cds(
    graph: Graph[N],
    root: N | None = None,
    tie_break: str = "min",
    kernel: str = "auto",
) -> CDSResult:
    """Run the full Section IV algorithm.

    Args:
        graph: a connected topology (UDG for the guarantee to apply).
        root: phase-1 tree root / leader; defaults to the smallest node.
        tie_break: gain tie resolution ("min" / "max" / "degree").
        kernel: graph-kernel selection for the hot loops — one of
            :data:`~repro.graphs.backend.KERNELS`.  ``"auto"`` (default)
            picks by instance size (the three-way table in
            :func:`~repro.graphs.backend.choose_kernel`); the result is
            identical under every kernel.

    Returns:
        :class:`CDSResult` with ``meta['gain_history']`` and
        ``meta['q_history']`` recording the greedy trajectory.

    Raises:
        ValueError: if the graph is empty or disconnected, or on an
            unknown ``kernel``.
    """
    if len(graph) == 1:
        only = next(iter(graph))
        return CDSResult(
            algorithm="greedy-connector",
            nodes=frozenset([only]),
            dominators=(only,),
            connectors=(),
        )
    kernel = choose_kernel(len(graph), kernel)
    index = build_kernel(graph, kernel)
    if isinstance(index, BitsetGraph):
        # The gain tracker touches essentially every row; forcing the
        # bulk mask build up front lets the MIS cover scan share the
        # flat list instead of warming per-row cache entries it would
        # immediately supersede.
        index.neighbor_masks
    if root is None:
        root = _smallest_node(graph)
    with trace("greedy.phase1"):
        # The greedy never reads tree parents, so phase 1 skips the
        # spanning-tree assembly the WAF connector phase needs.
        mis_nodes = first_fit_mis_nodes(graph, root, index=index)
    with trace("greedy.phase2"):
        connectors, gains, q_values = greedy_connectors(
            graph, mis_nodes, tie_break, index, kernel
        )
    nodes = frozenset(mis_nodes) | frozenset(connectors)
    return CDSResult(
        algorithm="greedy-connector",
        nodes=nodes,
        dominators=mis_nodes,
        connectors=tuple(connectors),
        meta={
            "root": root,
            "gain_history": tuple(gains),
            "q_history": tuple(q_values),
        },
    )
