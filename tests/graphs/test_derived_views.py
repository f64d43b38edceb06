"""Graphs derived in bulk must equal the ones the dict loops build.

Three builders make a graph from another graph's kernel view or from an
edge list, as a view alone (no adjacency dicts, no ``add_edge`` per
edge): the distributed solvers' integer relabel
(:func:`~repro.distributed.solvers.int_relabeled`), ``Graph.subgraph``
on a view-backed graph (and so ``largest_component_udg``), and the
solve daemon's inline-edge instances.  Each is held here to the dict
loop it replaced, kept below as the oracle: same node order, same
order in every adjacency row, same ``edges()``, same ``edge_count``.
"""

import random

import pytest

from repro.distributed.cds_protocol import distributed_greedy_cds, distributed_waf_cds
from repro.distributed.solvers import int_relabeled
from repro.experiments.instances import int_labeled
from repro.geometry import Point
from repro.graphs.generators import (
    chain_points,
    largest_component_udg,
    random_connected_udg,
    uniform_points,
)
from repro.graphs.graph import Graph, _adjacency
from repro.graphs.indexed import IndexedGraph
from repro.graphs.traversal import connected_components
from repro.graphs.udg import unit_disk_graph
from repro.serve.protocol import normalize_request, solve_request
from repro.serve.server import _edge_graph


def dict_relabeled(graph):
    """The relabel as a dict loop: ranks from ``sorted``, then every
    node and edge re-added in ``graph``'s order."""
    ids = {v: i for i, v in enumerate(sorted(graph.nodes()))}
    relabeled = Graph()
    for v in graph.nodes():
        relabeled.add_node(ids[v])
    for u, v in graph.edges():
        relabeled.add_edge(ids[u], ids[v])
    return relabeled, {i: v for v, i in ids.items()}


def dict_copy(graph):
    """A copy of ``graph`` with adjacency dicts and no view memo, so
    every query on it takes the dict path; ``graph`` itself is left
    as it was (``Graph.copy`` would build its dicts)."""
    adj = graph._adj
    if adj is None:
        adj = _adjacency(graph._index)
    dup = Graph()
    dup._adj = {v: dict(row) for v, row in adj.items()}
    return dup


def assert_same_graph(got, expected):
    """Same nodes, rows, edges and edge count, query by query; ``got``
    answers from its view without building dicts."""
    assert got._adj is None
    assert got.nodes() == expected.nodes()
    for v in expected.nodes():
        assert got.neighbors(v) == expected.neighbors(v), v
    assert got.edges() == expected.edges()
    assert got.edge_count() == expected.edge_count()
    view, oracle = IndexedGraph.from_graph(got), IndexedGraph.from_graph(expected)
    assert (view.indptr, view.indices) == (oracle.indptr, oracle.indices)
    assert [a.tolist() for a in view.arrays()] == [oracle.indptr, oracle.indices]
    assert got._adj is None


def random_dict_graph(rng, labels):
    """A dict-built graph over ``labels`` with nodes and edges added in
    a random order; some nodes only ever come in through an edge."""
    labels = list(labels)
    rng.shuffle(labels)
    graph = Graph(nodes=labels[: len(labels) // 2])
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    rng.shuffle(pairs)
    for u, v in pairs[: rng.randint(0, 3 * len(labels))]:
        graph.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
    for v in labels:
        graph.add_node(v)
    return graph


def assert_relabel_matches(graph):
    expected, expected_back = dict_relabeled(dict_copy(graph))
    got, back = int_relabeled(graph)
    assert_same_graph(got, expected)
    assert list(back.items()) == list(expected_back.items())


class TestIntRelabeled:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dict_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        kind = seed % 4
        if kind == 0:
            labels = rng.sample(range(1000), n)
        elif kind == 1:
            labels = {Point(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)}
        elif kind == 2:
            labels = {Point(rng.random() * 5, rng.random() * 5) for _ in range(n)}
        else:  # ints and floats mixed, all mutually orderable
            labels = {rng.choice((rng.randint(0, 50), rng.random() * 50))
                      for _ in range(n)}
        assert_relabel_matches(random_dict_graph(rng, labels))

    @pytest.mark.parametrize("n,side,seed", [(32, 4.0, 0), (60, 6.2, 1),
                                             (150, 8.0, 2), (500, 12.7, 3)])
    def test_grid_size_udgs(self, n, side, seed):
        _, graph = random_connected_udg(n, side, seed=seed)
        assert graph._adj is None
        assert_relabel_matches(graph)
        assert graph._adj is None  # the relabel reads only the view

    def test_disconnected_and_repeated_x_udgs(self):
        # A sparse deployment (several components), and one whose x
        # coordinates repeat (the rank table's lexsort branch).
        assert_relabel_matches(unit_disk_graph(uniform_points(80, 20.0, seed=4)))
        lattice = [Point(x, y) for x in range(8) for y in range(6)]
        random.Random(5).shuffle(lattice)
        assert_relabel_matches(unit_disk_graph(lattice))

    def test_dict_graph_of_points(self):
        graph = dict_copy(unit_disk_graph(uniform_points(40, 5.0, seed=6)))
        assert_relabel_matches(graph)

    def test_unorderable_mix_raises_sorteds_error(self):
        graph = Graph([(Point(0.0, 0.0), 1), (1, "a")])
        with pytest.raises(TypeError) as expected:
            sorted(graph.nodes())
        with pytest.raises(TypeError) as got:
            int_relabeled(graph)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("graph", [Graph(), Graph(nodes=[Point(1.0, 2.0)]),
                                       unit_disk_graph([])])
    def test_empty_and_one_node(self, graph):
        relabeled, back = int_relabeled(graph)
        assert relabeled.nodes() == list(range(len(graph)))
        assert relabeled.edges() == [] and relabeled.edge_count() == 0
        assert back == dict(enumerate(graph.nodes()))
        assert_relabel_matches(graph)

    def test_pinned_row_reorder(self):
        # Node 2's row lists 1 before 0; re-adding the edges in edges()
        # order puts its earlier neighbors in node order.
        graph = Graph(nodes=[0, 1, 2])
        graph.add_edge(2, 1)
        graph.add_edge(2, 0)
        assert graph.neighbors(2) == [1, 0]
        relabeled, back = int_relabeled(graph)
        assert relabeled.neighbors(2) == [0, 1]
        assert relabeled.edges() == graph.edges() == [(0, 2), (1, 2)]
        assert back == {0: 0, 1: 1, 2: 2}
        assert_relabel_matches(graph)

    def test_pinned_rank_order(self):
        # Nodes keep their order and take their sorted rank; row 10
        # keeps (earlier) 30 before (later) 20.
        graph = Graph(nodes=[30, 10, 20])
        graph.add_edge(10, 30)
        graph.add_edge(10, 20)
        relabeled, back = int_relabeled(graph)
        assert relabeled.nodes() == [2, 0, 1]
        assert [relabeled.neighbors(v) for v in (2, 0, 1)] == [[0], [2, 1], [0]]
        assert back == {0: 10, 1: 20, 2: 30}


class TestViewSubgraph:
    @pytest.fixture(scope="class")
    def udg(self):
        return unit_disk_graph(uniform_points(300, 12.0, seed=7))

    def check(self, graph, keep):
        got = graph.subgraph(keep)
        assert_same_graph(got, dict_copy(graph).subgraph(keep))
        assert graph._adj is None
        # The kept nodes' coordinates ride along, so the value order is
        # the same numpy sort as a fresh view's.
        view = got._index
        assert view.value_order() == IndexedGraph.from_graph(
            dict_copy(got)).value_order()
        return got

    def test_empty_and_full(self, udg):
        assert len(self.check(udg, [])) == 0
        assert len(self.check(udg, udg.nodes())) == len(udg)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_keep_sets(self, udg, seed):
        rng = random.Random(seed)
        keep = rng.sample(udg.nodes(), rng.randint(1, len(udg)))
        keep.append(Point(-100.0, -100.0))  # unknown nodes are ignored
        keep += keep[:5]  # and so are repeats
        self.check(udg, keep)

    def test_chain_and_small_graphs(self):
        chain = unit_disk_graph(chain_points(50))
        self.check(chain, chain.nodes()[::2])
        self.check(chain, chain.nodes()[10:30])
        small = unit_disk_graph(uniform_points(20, 3.0, seed=8))  # all-pairs rows
        self.check(small, small.nodes()[3:15])

    def test_subgraph_of_a_subgraph(self, udg):
        first = udg.subgraph(udg.nodes()[::3])
        self.check(first, first.nodes()[::2])

    @pytest.mark.parametrize("n,side,seed", [(200, 25.0, 0), (400, 30.0, 1),
                                             (100, 14.0, 2)])
    def test_largest_component_udg(self, n, side, seed):
        points = uniform_points(n, side, seed=seed)
        full = dict_copy(unit_disk_graph(points))
        comps = connected_components(full)
        assert len(comps) > 1
        biggest = set(max(comps, key=len))
        kept, graph = largest_component_udg(points)
        assert kept == [p for p in points if p in biggest]
        assert_same_graph(graph, full.subgraph(kept))


class TestServedEdgeInstance:
    def served(self, nodes, edges):
        request = normalize_request(solve_request("x", edges=edges))
        instance = request["instance"]
        assert instance["nodes"] == nodes
        return instance["edges"]

    def add_edge_graph(self, nodes, edges):
        graph = Graph()
        for node in range(nodes):
            graph.add_node(node)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_add_edge(self, seed):
        rng = random.Random(seed)
        n, side = rng.choice(((20, 3.0), (60, 6.2), (150, 8.0)))
        _, udg = random_connected_udg(n, side, seed=seed)
        relabeled = int_labeled(udg)
        raw = [[v, u] if rng.random() < 0.5 else [u, v]
               for u, v in relabeled.edges()]
        rng.shuffle(raw)
        edges = self.served(len(udg), raw + raw[:3])
        assert_same_graph(_edge_graph(len(udg), edges),
                          self.add_edge_graph(len(udg), edges))

    def test_isolated_tail_and_no_edges(self):
        assert_same_graph(_edge_graph(5, [[0, 1], [1, 2]]),
                          self.add_edge_graph(5, [[0, 1], [1, 2]]))
        assert_same_graph(_edge_graph(1, []), self.add_edge_graph(1, []))

    def test_self_loop_raises_add_edges_error(self):
        with pytest.raises(ValueError) as expected:
            self.add_edge_graph(4, [[0, 1], [2, 2]])
        with pytest.raises(ValueError) as got:
            _edge_graph(4, [[0, 1], [2, 2]])
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("edges", [[[1, 0]], [[0, 1], [0, 1]],
                                       [[1, 2], [0, 1]], [[0, 4]], [[-1, 2]]])
    def test_unnormalized_lists_are_refused(self, edges):
        with pytest.raises(ValueError, match="not normalized"):
            _edge_graph(4, edges)


class TestSimPipelinesStayOnTheView:
    @pytest.mark.parametrize("pipeline", [distributed_waf_cds, distributed_greedy_cds])
    def test_no_dict_build_in_the_run(self, pipeline):
        # A dict build deferred from the relabel into the protocol run
        # would move setup time into the timed operation.
        _, udg = random_connected_udg(200, 10.0, seed=3)
        graph = int_labeled(udg)
        result, metrics = pipeline(graph)
        assert graph._adj is None
        expected, expected_metrics = pipeline(dict_relabeled(dict_copy(udg))[0])
        assert (result.dominators, result.connectors) == (
            expected.dominators, expected.connectors)
        assert (metrics.rounds, metrics.transmissions, metrics.receptions) == (
            expected_metrics.rounds, expected_metrics.transmissions,
            expected_metrics.receptions)
