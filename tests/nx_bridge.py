"""networkx bridge for the tests that use networkx as an oracle.

The library's algorithms run on :class:`repro.graphs.Graph`; these two
conversions let a test cross-check connectivity, domination,
independence and distances against networkx.
"""

from __future__ import annotations

from typing import Any, Hashable, TypeVar

from repro.graphs import Graph

N = TypeVar("N", bound=Hashable)


def to_networkx(graph: Graph[N]) -> Any:
    """Convert to ``networkx.Graph`` (nodes and edges only)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    return g


def from_networkx(nx_graph: Any) -> Graph[Any]:
    """Convert from any undirected ``networkx`` graph.

    Edge data is discarded; multi-edges collapse; self-loops are
    rejected (the UDG model has none).
    """
    graph: Graph[Any] = Graph()
    for node in nx_graph.nodes():
        graph.add_node(node)
    for u, v in nx_graph.edges():
        graph.add_edge(u, v)
    return graph
