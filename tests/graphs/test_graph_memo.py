"""The memoized kernel view on :class:`Graph` must never go stale.

``IndexedGraph.from_graph`` stores the view it builds in the graph's
``_index`` slot and returns it on later calls; every mutator clears it,
and copies and pickles never carry it.  The state machine interleaves
mutations with the view's consumers (``is_connected``, ``build_kernel``)
and after every step holds the memo to a fresh view of a memo-free copy.
"""

import copy
import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.graphs import Graph, IndexedGraph
from repro.graphs.backend import build_kernel
from repro.graphs.generators import uniform_points
from repro.graphs.traversal import bfs_order, is_connected
from repro.graphs.udg import unit_disk_graph

node_ids = st.integers(min_value=0, max_value=11)


def same_view(a, b):
    assert a.nodes == b.nodes
    assert list(a._ids.items()) == list(b._ids.items())
    assert a.indptr == b.indptr
    assert a.indices == b.indices


def fresh_view(graph):
    """A newly built view: ``Graph.copy`` carries no memo."""
    dup = graph.copy()
    assert dup._index is None
    return IndexedGraph.from_graph(dup)


def dict_is_connected(graph):
    """The pre-view connectivity check, on the adjacency dicts."""
    if len(graph) == 0:
        return False
    return len(bfs_order(graph, next(iter(graph)))) == len(graph)


def same_graph(a, b):
    assert a.nodes() == b.nodes()
    for v in a:
        assert a.neighbors(v) == b.neighbors(v)


class MemoMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph: Graph[int] = Graph()

    @rule(node=node_ids)
    def add_node(self, node):
        self.graph.add_node(node)

    @rule(u=node_ids, v=node_ids)
    def add_edge(self, u, v):
        if u != v:
            self.graph.add_edge(u, v)

    @precondition(lambda self: len(self.graph) > 0)
    @rule(data=st.data())
    def remove_node(self, data):
        self.graph.remove_node(data.draw(st.sampled_from(self.graph.nodes())))

    @precondition(lambda self: self.graph.edge_count() > 0)
    @rule(data=st.data())
    def remove_edge(self, data):
        u, v = data.draw(st.sampled_from(self.graph.edges()))
        self.graph.remove_edge(u, v)

    @rule()
    def check_connected(self):
        assert is_connected(self.graph) == dict_is_connected(self.graph)
        assert self.graph._index is not None

    @rule(kernel=st.sampled_from(("auto", "indexed", "bitset", "array")))
    def kernel(self, kernel):
        view = build_kernel(self.graph, kernel)
        assert getattr(view, "indexed", view) is self.graph._index

    @rule()
    def pickle_roundtrip(self):
        clone = pickle.loads(pickle.dumps(self.graph))
        assert clone._index is None
        same_graph(clone, self.graph)

    @rule()
    def copy_roundtrip(self):
        for clone in (copy.copy(self.graph), copy.deepcopy(self.graph)):
            assert clone._index is None
            same_graph(clone, self.graph)

    @invariant()
    def memo_is_current(self):
        memo = self.graph._index
        if memo is not None:
            same_view(memo, fresh_view(self.graph))


MemoMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestMemoMachine = MemoMachine.TestCase


class TestMemo:
    def test_from_graph_is_memoized(self, medium_udg):
        _, graph = medium_udg
        assert IndexedGraph.from_graph(graph) is IndexedGraph.from_graph(graph)

    def test_connectivity_kernel_and_validation_share_one_view(self, medium_udg):
        from repro.cds import waf_cds

        _, graph = medium_udg
        assert is_connected(graph)
        view = graph._index
        result = waf_cds(graph, kernel="indexed")
        assert result.is_valid(graph)
        assert graph._index is view

    def test_every_mutator_clears_the_memo(self):
        mutations = (
            lambda g: g.add_node(9),
            lambda g: g.add_edge(0, 9),
            lambda g: g.remove_node(2),
            lambda g: g.remove_edge(0, 1),
        )
        for mutate in mutations:
            graph = Graph(edges=[(0, 1), (1, 2)])
            IndexedGraph.from_graph(graph)
            mutate(graph)
            assert graph._index is None

    def test_mutation_through_a_shallow_copy_leaves_the_original_current(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        view = IndexedGraph.from_graph(graph)
        clone = copy.copy(graph)
        clone.add_edge(0, 2)
        assert graph._index is view
        assert not graph.has_edge(0, 2)
        same_view(view, fresh_view(graph))

    def test_pickles_carry_no_view(self):
        pts = uniform_points(1000, 22.0, 3)
        graph = unit_disk_graph(pts)
        bare = len(pickle.dumps(graph))
        IndexedGraph.from_graph(graph)
        assert len(pickle.dumps(graph)) == bare
        same_graph(pickle.loads(pickle.dumps(graph)), graph)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_roundtrips(self, protocol):
        # The empty graph included: protocols 0 and 1 skip a falsy state.
        for graph in (Graph(), Graph(edges=[(0, 1), (1, 2)])):
            IndexedGraph.from_graph(graph)
            clone = pickle.loads(pickle.dumps(graph, protocol=protocol))
            assert clone._index is None
            same_graph(clone, graph)

    def test_builder_seeded_graph_pickles_without_its_view(self):
        graph = unit_disk_graph(uniform_points(200, 9.0, 4))
        assert graph._index is not None
        clone = pickle.loads(pickle.dumps(graph))
        assert clone._index is None
        same_graph(clone, graph)
        same_view(IndexedGraph.from_graph(clone), graph._index)
