"""The view-based CDS check against the dict composition it replaced.

:func:`is_connected_dominating_set` runs on the graph's memoized kernel
view (a byte-mask domination scan plus a member-restricted BFS).  The
oracle here is the composition it used to be, on the adjacency dicts:
``is_dominating_set(S) and (|S| == 1 or G[S] is connected)``, with the
induced connectivity checked by a dict BFS so the oracle shares no code
with the view.
"""

from hypothesis import given, settings, strategies as st

from repro.cds import greedy_connector_cds, waf_cds
from repro.geometry import Point
from repro.graphs import Graph
from repro.graphs.properties import (
    is_connected_dominating_set,
    is_dominating_set,
)
from repro.graphs.traversal import bfs_order, is_connected
from repro.graphs.udg import unit_disk_graph

FOREIGN = Point(-50.0, -50.0)


def oracle(graph, candidate):
    chosen = set(candidate)
    if not chosen:
        return False
    if not is_dominating_set(graph, chosen):
        return False
    if len(chosen) == 1:
        return True
    sub = graph.subgraph(chosen)
    return len(bfs_order(sub, next(iter(sub)))) == len(sub)


@st.composite
def udg_and_candidate(draw):
    """A random UDG — connected or not, from dense to sparse — and a
    candidate set: arbitrary members, possibly empty, a singleton, all
    nodes, or with a node from outside the graph mixed in."""
    side = draw(st.sampled_from((2.0, 4.0, 7.0, 12.0)))
    coord = st.floats(min_value=0.0, max_value=side, allow_nan=False)
    pts = draw(st.lists(st.builds(Point, coord, coord), max_size=40, unique=True))
    graph = unit_disk_graph(pts)
    kind = draw(st.sampled_from(("subset", "empty", "single", "all", "foreign")))
    if kind == "empty" or not pts:
        candidate = []
    elif kind == "single":
        candidate = [draw(st.sampled_from(pts))]
    elif kind == "all":
        candidate = list(pts)
    else:
        candidate = draw(st.lists(st.sampled_from(pts), max_size=len(pts)))
    if kind == "foreign":
        candidate.append(FOREIGN)
    return graph, candidate


class TestAgainstDictOracle:
    @settings(max_examples=400, deadline=None)
    @given(udg_and_candidate())
    def test_random_udgs_and_candidates(self, case):
        graph, candidate = case
        assert is_connected_dominating_set(graph, candidate) == oracle(
            graph, candidate
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                Point,
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    def test_solver_outputs_and_their_near_misses(self, pts):
        # Valid backbones, and each one with a member removed — the
        # sets a validator most needs to tell apart.
        graph = unit_disk_graph(pts)
        if not is_connected(graph):
            return
        for result in (waf_cds(graph), greedy_connector_cds(graph)):
            assert is_connected_dominating_set(graph, result.nodes)
            for node in sorted(result.nodes):
                short = result.nodes - {node}
                assert is_connected_dominating_set(graph, short) == oracle(
                    graph, short
                )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                    ).filter(lambda e: e[0] != e[1]),
                    max_size=30,
                ),
                st.lists(st.integers(-2, n + 1), max_size=n + 2),
            )
        )
    )
    def test_general_graphs_with_isolated_nodes(self, case):
        n, edges, candidate = case
        graph = Graph(edges=edges, nodes=range(n))
        assert is_connected_dominating_set(graph, candidate) == oracle(
            graph, candidate
        )


class TestConventions:
    def test_single_node_graph(self):
        graph = Graph(nodes=[7])
        assert is_connected_dominating_set(graph, [7])
        assert not is_connected_dominating_set(graph, [])

    def test_empty_graph(self):
        assert not is_connected_dominating_set(Graph(), [])
        assert not is_connected_dominating_set(Graph(), [1])

    def test_foreign_node_rejects_an_otherwise_valid_set(self, path5):
        assert is_connected_dominating_set(path5, [1, 2, 3])
        assert not is_connected_dominating_set(path5, [1, 2, 3, 99])

    def test_dominating_but_disconnected(self, path5):
        assert is_dominating_set(path5, [0, 3])
        assert not is_connected_dominating_set(path5, [0, 3])

    def test_connected_but_not_dominating(self, path5):
        assert not is_connected_dominating_set(path5, [1, 2])

    def test_duplicates_in_the_candidate(self, path5):
        assert is_connected_dominating_set(path5, [1, 2, 3, 2, 1])
