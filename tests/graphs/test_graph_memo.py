"""The memoized kernel view on :class:`Graph` must never go stale.

``IndexedGraph.from_graph`` stores the view it builds in the graph's
``_index`` slot and returns it on later calls; every mutator clears it,
and copies and pickles never carry it.  The state machine interleaves
mutations with the view's consumers (``is_connected``, ``build_kernel``)
and after every step holds the memo to a fresh view of a memo-free copy.

A ``unit_disk_graph`` graph starts dict-less: it carries only its view
and builds its adjacency dicts on first use.  The machine also starts
from such a graph and holds every view-answered read to a dict-built
twin that replays the same mutations; the explicit tests below pin
mutators, copies, pickles and attribute lookup on the dict-less state.
"""

import copy
import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry import Point
from repro.graphs import Graph, IndexedGraph
from repro.graphs.backend import build_kernel
from repro.graphs.generators import uniform_points
from repro.graphs.traversal import bfs_order, is_connected
from repro.graphs.udg import GRID_SMALL_N, unit_disk_graph, unit_disk_graph_naive

node_ids = st.integers(min_value=0, max_value=11)

#: The machine's nodes: ``node_ids`` index a small deployment, so a
#: start from its UDG shares nodes with the rules.  Below
#: ``GRID_SMALL_N`` the builder's order is the naive builder's.
POOL = uniform_points(12, 2.5, 5)
assert len(POOL) < GRID_SMALL_N


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


def has_dicts(graph):
    return graph._adj is not None


def dict_items(graph):
    """The adjacency dicts in full, insertion orders included (built
    first if the graph has none)."""
    return [(node, list(nbrs)) for node, nbrs in graph._dicts().items()]


def same_view_reads(graph, twin):
    """Every read a memoized graph answers from its view, held to a
    memo-free ``twin`` that answers from its dicts."""
    assert twin._index is None
    assert len(graph) == len(twin)
    assert list(graph) == list(twin)
    assert graph.nodes() == twin.nodes()
    assert graph.edge_count() == twin.edge_count()
    for v in POOL:
        assert (v in graph) == (v in twin)
    for v in twin:
        assert graph.neighbors(v) == twin.neighbors(v)
        assert graph.degree(v) == twin.degree(v)


class MemoMachine(RuleBasedStateMachine):
    """``graph`` is under test; ``twin`` replays every mutation on
    dicts alone and never gets a memo."""

    @initialize(udg=st.booleans(), k=st.integers(0, len(POOL)))
    def start(self, udg, k):
        if udg:
            self.graph: Graph = unit_disk_graph(POOL[:k])
            self.twin = unit_disk_graph_naive(POOL[:k])
            assert not has_dicts(self.graph)
        else:
            self.graph, self.twin = Graph(), Graph()

    def both(self, mutate):
        mutate(self.graph)
        mutate(self.twin)

    @rule(node=node_ids)
    def add_node(self, node):
        self.both(lambda g: g.add_node(POOL[node]))

    @rule(u=node_ids, v=node_ids)
    def add_edge(self, u, v):
        if u != v:
            self.both(lambda g: g.add_edge(POOL[u], POOL[v]))

    @precondition(lambda self: len(self.twin) > 0)
    @rule(data=st.data())
    def remove_node(self, data):
        node = data.draw(st.sampled_from(self.twin.nodes()))
        self.both(lambda g: g.remove_node(node))

    @precondition(lambda self: self.twin.edge_count() > 0)
    @rule(data=st.data())
    def remove_edge(self, data):
        u, v = data.draw(st.sampled_from(self.twin.edges()))
        self.both(lambda g: g.remove_edge(u, v))

    @rule()
    def dict_reads(self):
        # Builds a dict-less graph's dicts; they must be the twin's.
        assert dict_items(self.graph) == dict_items(self.twin)
        assert self.graph.edges() == self.twin.edges()

    @rule()
    def check_connected(self):
        assert is_connected(self.graph) == dict_is_connected(self.twin)
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
            # The twin's copy, not the graph's: copying reads the
            # graph's dicts and would end its dict-less state.
            same_view(memo, fresh_view(self.twin))
            same_view_reads(self.graph, self.twin)
        else:
            assert has_dicts(self.graph)
            same_graph(self.graph, self.twin)


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


def dictless(n=20, seed=6):
    """A dict-less UDG below ``GRID_SMALL_N`` and its eager twin: the
    naive builder's dicts, in the same insertion orders."""
    pts = uniform_points(n, 3.0, seed)
    graph = unit_disk_graph(pts)
    assert not has_dicts(graph)
    return graph, unit_disk_graph_naive(pts)


class TestDictless:
    MUTATIONS = {
        "add_node": lambda g, a, b: g.add_node(Point(-5.0, -5.0)),
        "add_edge": lambda g, a, b: g.add_edge(a, Point(-5.0, -5.0)),
        "remove_node": lambda g, a, b: g.remove_node(a),
        "remove_edge": lambda g, a, b: g.remove_edge(a, b),
    }

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutators_leave_the_eager_dicts_and_clear_the_memo(self, name):
        graph, eager = dictless()
        a, b = eager.edges()[0]
        for g in (graph, eager):
            self.MUTATIONS[name](g, a, b)
        assert graph._index is None
        assert dict_items(graph) == dict_items(eager)
        same_view(IndexedGraph.from_graph(graph), fresh_view(eager))

    def test_first_dict_read_builds_the_eager_dicts_once(self):
        graph, eager = dictless()
        view = graph._index
        assert graph.has_edge(*eager.edges()[0])
        adj = graph._adj
        assert dict_items(graph) == dict_items(eager)
        assert graph._adj is adj
        assert graph._index is view
        # Every entry is the view's own node object.
        nodes = {id(v) for v in view.nodes}
        assert all(id(v) in nodes for row in adj.values() for v in row)

    def test_copies_and_subgraphs(self):
        graph, eager = dictless()
        for clone in (graph.copy(), copy.copy(graph), copy.deepcopy(graph)):
            assert clone._index is None
            assert dict_items(clone) == dict_items(eager)
        keep = eager.nodes()[::2]
        assert dict_items(graph.subgraph(keep)) == dict_items(eager.subgraph(keep))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_roundtrips(self, protocol):
        for n in (0, 20):
            graph, eager = dictless(n)
            clone = pickle.loads(pickle.dumps(graph, protocol=protocol))
            assert clone._index is None
            assert dict_items(clone) == dict_items(eager)

    def test_from_graph_returns_the_seeded_view(self):
        graph, eager = dictless()
        view = graph._index
        assert IndexedGraph.from_graph(graph) is view
        assert not has_dicts(graph)
        same_view(view, fresh_view(eager))

    def test_unknown_attributes_still_raise(self):
        # ``copy.deepcopy`` probes ``__deepcopy__`` this way.
        graph, _ = dictless()
        with pytest.raises(AttributeError, match="'missing'"):
            graph.missing  # noqa: B018
        assert getattr(graph, "__deepcopy__", None) is None
        assert not has_dicts(graph)
