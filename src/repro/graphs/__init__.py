"""Graph substrate: graphs, UDG builders, generators, validators."""

from .graph import Graph
from .components import IntUnionFind, UnionFind
from .indexed import IndexedGraph, gather_rows
from .backend import (
    ARRAY_AUTO_N,
    BITSET_AUTO_N,
    KERNELS,
    Backend,
    build_kernel,
    choose_kernel,
    gain_tracker,
)
from .biconnectivity import (
    blocks,
    cut_vertices,
    is_biconnected,
    is_k_connected,
)
from .bitset import (
    BitsetGraph,
    bit_indices,
    iter_bits,
    mask_of,
    popcount,
)
from .traversal import (
    BFSTree,
    bfs_order,
    bfs_tree,
    dfs_tree,
    connected_components,
    induced_is_connected,
    is_connected,
    shortest_path_lengths,
)
from .udg import (
    quasi_unit_disk_graph,
    unit_disk_graph,
    unit_disk_graph_naive,
)
from .generators import (
    chain_points,
    clustered_points,
    corridor_points,
    largest_component_udg,
    random_connected_udg,
    uniform_points,
)
from .properties import (
    has_two_hop_separation,
    is_connected_dominating_set,
    is_dominating_set,
    is_independent_set,
    is_m_dominating_set,
    is_m_fold_cds,
    is_maximal_independent_set,
    m_deficient_nodes,
    survives_node_removal,
    undominated_nodes,
)
from .metrics import TopologyStats, clustering_coefficient, graph_diameter, topology_stats

__all__ = [
    "Graph",
    "IndexedGraph",
    "IntUnionFind",
    "UnionFind",
    "ARRAY_AUTO_N",
    "BITSET_AUTO_N",
    "KERNELS",
    "Backend",
    "BitsetGraph",
    "bit_indices",
    "build_kernel",
    "choose_kernel",
    "gain_tracker",
    "gather_rows",
    "iter_bits",
    "mask_of",
    "popcount",
    "BFSTree",
    "bfs_order",
    "bfs_tree",
    "dfs_tree",
    "connected_components",
    "induced_is_connected",
    "is_connected",
    "shortest_path_lengths",
    "quasi_unit_disk_graph",
    "unit_disk_graph",
    "unit_disk_graph_naive",
    "chain_points",
    "clustered_points",
    "corridor_points",
    "largest_component_udg",
    "random_connected_udg",
    "uniform_points",
    "blocks",
    "cut_vertices",
    "is_biconnected",
    "is_k_connected",
    "has_two_hop_separation",
    "is_connected_dominating_set",
    "is_dominating_set",
    "is_independent_set",
    "is_m_dominating_set",
    "is_m_fold_cds",
    "is_maximal_independent_set",
    "m_deficient_nodes",
    "survives_node_removal",
    "undominated_nodes",
    "TopologyStats",
    "clustering_coefficient",
    "graph_diameter",
    "topology_stats",
]
