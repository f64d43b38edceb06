"""CLI-facing adapters: run the distributed pipelines as CDS solvers.

The solver registry (``repro.cli``) calls every algorithm as
``solver(graph) -> CDSResult`` on a Point-labeled UDG.  The distributed
pipelines want compact, orderable ids (every protocol breaks ties by
node id), so these adapters relabel to sorted-order integer ids
(:func:`int_relabeled`, which
:func:`repro.experiments.instances.int_labeled` also uses), run
the message-passing pipeline on the batched engine, and relabel the
result back — ``CDSResult.is_valid`` and the downstream analyses see
the caller's own node labels.  The simulation's complexity accounting
lands in ``result.meta`` (``sim_rounds``, ``sim_transmissions``,
``sim_receptions``), which is how sweeps surface the paper's
message/time-complexity columns next to the CDS sizes.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from ..cds.base import CDSResult
from ..graphs.graph import Graph
from ..graphs.indexed import IndexedGraph, _bulk_graph, _neighbor_rows
from .cds_protocol import distributed_greedy_cds, distributed_waf_cds

__all__ = [
    "DISTRIBUTED_SOLVERS",
    "int_relabeled",
    "waf_dist_cds",
    "waf_dist_degree_cds",
    "greedy_dist_cds",
    "greedy_dist_degree_cds",
]


def int_relabeled(graph: Graph) -> tuple[Graph[int], dict[int, Hashable]]:
    """Relabel to sorted-order integer ids; return the graph and the
    id → original-label map.

    Node ``v`` becomes its rank in ``sorted(graph.nodes())``.  Node and
    edge order (:meth:`Graph.edges`) follow ``graph``'s.  The adjacency
    rows are the ones adding those edges in that order builds: each row
    lists its earlier neighbors in node order, then its later neighbors
    in ``graph``'s row order.  The protocols break ties in row order,
    so the ``sim_*`` counts depend on this rule.

    Built from ``graph``'s kernel view: the ranks from
    :meth:`~repro.graphs.indexed.IndexedGraph.value_order`, the rows
    from the view's ``(i, j > i)`` entries, the graph as a view alone
    (no adjacency dicts, no per-edge ``add_edge``).

    Raises:
        TypeError: if the nodes are not mutually orderable, as
            ``sorted`` raises it.
    """
    view = IndexedGraph.from_graph(graph)
    nodes = view.nodes
    n = len(nodes)
    order = view.value_order()
    if order is None:  # unorderable: sorted's own TypeError
        order = sorted(range(n), key=nodes.__getitem__)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    indptr, indices = view.arrays()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    later = indices > src
    rows = _neighbor_rows(src[later], indices[later], n)
    back = {r: nodes[i] for r, i in enumerate(order)}
    return _bulk_graph(rank.tolist(), *rows), back


def _run_pipeline(
    graph: Graph,
    pipeline: Callable,
    algorithm: str,
    priority: "str | None",
) -> CDSResult:
    relabeled, back = int_relabeled(graph)
    result, metrics = pipeline(relabeled, priority=priority)
    meta = dict(result.meta)
    if "leader" in meta:
        meta["leader"] = back[meta["leader"]]
    meta.update(
        sim_rounds=metrics.rounds,
        sim_transmissions=metrics.transmissions,
        sim_receptions=metrics.receptions,
        priority=priority or "bfs-rank",
    )
    return CDSResult(
        algorithm=algorithm,
        nodes=frozenset(back[v] for v in result.nodes),
        dominators=tuple(back[v] for v in result.dominators),
        connectors=tuple(back[v] for v in result.connectors),
        meta=meta,
    )


def waf_dist_cds(graph: Graph) -> CDSResult:
    """The full distributed WAF pipeline as a registry solver."""
    return _run_pipeline(graph, distributed_waf_cds, "waf-dist", None)


def waf_dist_degree_cds(graph: Graph) -> CDSResult:
    """Distributed WAF under the ``"degree"`` MIS priority."""
    return _run_pipeline(graph, distributed_waf_cds, "waf-dist-degree", "degree")


def greedy_dist_cds(graph: Graph) -> CDSResult:
    """The leader-coordinated greedy pipeline as a registry solver."""
    return _run_pipeline(graph, distributed_greedy_cds, "greedy-dist", None)


def greedy_dist_degree_cds(graph: Graph) -> CDSResult:
    """Distributed greedy under the ``"degree"`` MIS priority."""
    return _run_pipeline(
        graph, distributed_greedy_cds, "greedy-dist-degree", "degree"
    )


#: Registry entries merged into the CLI solver table: the protocol
#: variants ``sweep --algorithm`` can now run cell-parallel.
DISTRIBUTED_SOLVERS: dict[str, Callable[[Graph], CDSResult]] = {
    "waf-dist": waf_dist_cds,
    "waf-dist-degree": waf_dist_degree_cds,
    "greedy-dist": greedy_dist_cds,
    "greedy-dist-degree": greedy_dist_degree_cds,
}
