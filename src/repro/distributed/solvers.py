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

from ..cds.base import CDSResult
from ..graphs.graph import Graph
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

    Node and edge order follow ``graph``'s, so the relabeled graph is
    the same for the same input.
    """
    ids = {v: i for i, v in enumerate(sorted(graph.nodes()))}
    relabeled: Graph[int] = Graph()
    for v in graph.nodes():
        relabeled.add_node(ids[v])
    for u, v in graph.edges():
        relabeled.add_edge(ids[u], ids[v])
    return relabeled, {i: v for v, i in ids.items()}


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
