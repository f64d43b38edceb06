"""The default root on graphs whose nodes admit no value order.

Every gain tracker ranks unorderable node mixes by the tie-break
comparison :func:`repro.cds.gain._smaller`; the default root and WAF's
``s`` tie-break use the same comparison, so such graphs solve under
every kernel with identical results.
"""

import pytest

from repro.cds import greedy_connector_cds, waf_cds
from repro.cds.gain import _least
from repro.cds.mfold import mfold_greedy_cds
from repro.graphs import Graph
from repro.graphs.backend import KERNELS
from repro.graphs.properties import is_connected_dominating_set
from repro.mis.first_fit import _smallest_node


def _mixed_path() -> Graph:
    return Graph(edges=[(1, "a"), ("a", 2), (2, "b"), ("b", 3)])


def _mixed_star() -> Graph:
    # The root's neighbors tie on coverage, so WAF's s tie-break compares
    # an int against a str.
    return Graph(edges=[("a", 1), ("a", "x"), (1, "p"), ("x", "q")])


SOLVERS = {
    "greedy": greedy_connector_cds,
    "waf": waf_cds,
    "mfold": lambda g, kernel: mfold_greedy_cds(g, m=2, kernel=kernel),
}


class TestLeast:
    def test_matches_min_on_orderable_nodes(self):
        assert _least([3, 1, 2, 1.0]) == min([3, 1, 2, 1.0])
        assert _least(["b", "a", "c"]) == "a"

    def test_orders_mixes_by_repr(self):
        assert _least([1, "a", 2, "b", 3]) == "a"


class TestUnorderableDefaultRoot:
    def test_root_is_least_by_tie_break(self):
        assert _smallest_node(_mixed_path()) == "a"

    @pytest.mark.parametrize("graph", [_mixed_path, _mixed_star])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_solves_identically_under_every_kernel(self, graph, solver):
        g = graph()
        results = [SOLVERS[solver](g, kernel=kernel) for kernel in KERNELS]
        for result in results:
            assert is_connected_dominating_set(g, result.nodes)
            assert result == results[0]
            assert result.meta["root"] == _least(g.nodes())

    def test_waf_s_tie_break_on_a_mix(self):
        result = waf_cds(_mixed_star())
        assert result.meta["root"] == "a"
        assert result.meta["s"] == _least([1, "x"]) == "x"
