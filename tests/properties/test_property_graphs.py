"""Property-based tests (hypothesis) for the graph substrate."""

from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.graphs import (
    Graph,
    UnionFind,
    bfs_tree,
    connected_components,
    is_dominating_set,
    is_maximal_independent_set,
    unit_disk_graph,
    unit_disk_graph_naive,
)
from repro.mis import first_fit_mis_in_order

node_ids = st.integers(min_value=0, max_value=24)
edge_lists = st.lists(st.tuples(node_ids, node_ids), max_size=60).map(
    lambda pairs: [(u, v) for u, v in pairs if u != v]
)

coords = st.floats(min_value=0.0, max_value=6.0, allow_nan=False)
point_lists = st.lists(st.builds(Point, coords, coords), max_size=40, unique=True)


class TestGraphInvariants:
    @given(edge_lists)
    def test_handshake_lemma(self, edges):
        g = Graph(edges=edges)
        assert sum(g.degree(v) for v in g) == 2 * g.edge_count()

    @given(edge_lists)
    def test_adjacency_symmetric(self, edges):
        g = Graph(edges=edges)
        for u in g:
            for v in g.neighbors(u):
                assert g.has_edge(v, u)

    @given(edge_lists)
    def test_components_partition_nodes(self, edges):
        g = Graph(edges=edges)
        comps = connected_components(g)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == sorted(g.nodes())
        assert len(flat) == len(set(flat))

    @given(edge_lists, node_ids)
    def test_subgraph_edges_subset(self, edges, k):
        g = Graph(edges=edges)
        keep = [v for v in g.nodes() if v <= k]
        sub = g.subgraph(keep)
        for u, v in sub.edges():
            assert g.has_edge(u, v)

    @given(edge_lists)
    def test_bfs_tree_depths_are_shortest_paths(self, edges):
        g = Graph(edges=edges)
        if len(g) == 0:
            return
        root = next(iter(g))
        tree = bfs_tree(g, root)
        # BFS depth of any node <= depth(parent) + 1 for every edge.
        for u, v in g.edges():
            if u in tree.depth and v in tree.depth:
                assert abs(tree.depth[u] - tree.depth[v]) <= 1


class TestUDGProperties:
    @settings(max_examples=40)
    @given(point_lists)
    def test_fast_equals_naive(self, pts):
        fast = unit_disk_graph(pts)
        slow = unit_disk_graph_naive(pts)
        assert {frozenset(e) for e in fast.edges()} == {
            frozenset(e) for e in slow.edges()
        }

    @settings(max_examples=40)
    @given(point_lists, st.floats(min_value=0.25, max_value=2.5, allow_nan=False))
    def test_fast_equals_naive_any_radius(self, pts, radius):
        # The bucket side tracks the radius, so agreement must hold for
        # non-unit radii too, not just the paper's normalized model.
        fast = unit_disk_graph(pts, radius=radius)
        slow = unit_disk_graph_naive(pts, radius=radius)
        assert {frozenset(e) for e in fast.edges()} == {
            frozenset(e) for e in slow.edges()
        }

    @settings(max_examples=40)
    @given(point_lists)
    def test_edges_match_distance_predicate(self, pts):
        g = unit_disk_graph(pts)
        for u, v in g.edges():
            assert u.distance_to(v) <= 1.0 + 1e-9


class TestMISProperties:
    @given(edge_lists)
    def test_first_fit_always_mis_on_any_order(self, edges):
        g = Graph(edges=edges)
        if len(g) == 0:
            return
        order = sorted(g.nodes())
        mis = first_fit_mis_in_order(g, order)
        assert is_maximal_independent_set(g, mis)

    @given(edge_lists)
    def test_mis_dominates(self, edges):
        g = Graph(edges=edges)
        if len(g) == 0:
            return
        mis = first_fit_mis_in_order(g, sorted(g.nodes()))
        assert is_dominating_set(g, mis)


class TestUnionFindProperties:
    @given(st.lists(st.tuples(node_ids, node_ids), max_size=50))
    def test_set_count_conservation(self, unions):
        uf = UnionFind(range(25))
        merges = 0
        for a, b in unions:
            if uf.union(a, b):
                merges += 1
        assert uf.set_count == 25 - merges

    @given(st.lists(st.tuples(node_ids, node_ids), max_size=50))
    def test_matches_component_structure(self, unions):
        uf = UnionFind(range(25))
        g = Graph(nodes=range(25))
        for a, b in unions:
            uf.union(a, b)
            if a != b:
                g.add_edge(a, b)
        comps = connected_components(g)
        assert len(comps) == uf.set_count
        for comp in comps:
            for v in comp[1:]:
                assert uf.connected(comp[0], v)
