"""Randomized equivalence of the array kernel vs the indexed/bitset tiers.

The :class:`ArrayGainTracker` vectorization of greedy gain tracking is
only admissible because it is bit-identical to the reference code:
same node sequences, same gains, same tie-break resolutions, on every
instance.  These tests lock all three kernels together at the solver
level across the shared 50-instance randomized UDG suite (all
tie-break modes) and step-lock :class:`ArrayGainTracker` against
:class:`LazyGainTracker`, plus counter-determinism and error-contract
parity.
"""

import random

import pytest

from repro.cds import LazyGainTracker, greedy_connector_cds, waf_cds
from repro.cds.array_gain import ArrayGainTracker
from repro.graphs import Graph, IndexedGraph, random_connected_udg
from repro.graphs.backend import build_kernel
from repro.mis import first_fit_mis
from repro.mis.first_fit import first_fit_mis_nodes
from repro.obs import OBS

TIE_BREAKS = ("min", "max", "degree")

#: The acceptance suite: 50 seeded connected UDGs across three sizes.
SUITE_PARAMS = [
    (18 + 14 * (seed % 3), (3.8, 4.6, 5.4)[seed % 3], seed) for seed in range(50)
]


@pytest.fixture(scope="module")
def equivalence_suite():
    """Fifty seeded connected UDGs (n in {18, 32, 46})."""
    return [
        random_connected_udg(n, side, seed=seed)[1]
        for n, side, seed in SUITE_PARAMS
    ]


def _tracker_pair(graph):
    """(lazy, array) trackers seeded with the same phase-1 MIS."""
    mis = first_fit_mis(graph)
    index = IndexedGraph.from_graph(graph)
    return (
        LazyGainTracker(index, mis.nodes),
        ArrayGainTracker(index, mis.nodes),
    )


class TestSolverEquivalence:
    """The acceptance sweep: 50 instances, every tie-break, three kernels."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_greedy_bit_identical_across_kernels(self, tie_break, equivalence_suite):
        for graph in equivalence_suite:
            a = greedy_connector_cds(graph, tie_break=tie_break, kernel="indexed")
            b = greedy_connector_cds(graph, tie_break=tie_break, kernel="bitset")
            c = greedy_connector_cds(graph, tie_break=tie_break, kernel="array")
            assert a.dominators == b.dominators == c.dominators
            assert a.connectors == b.connectors == c.connectors  # order included
            assert a.nodes == b.nodes == c.nodes
            assert a.meta == b.meta == c.meta  # root, gain_history, q_history

    def test_waf_bit_identical_across_kernels(self, equivalence_suite):
        for graph in equivalence_suite:
            a = waf_cds(graph, kernel="indexed")
            b = waf_cds(graph, kernel="array")
            assert a.dominators == b.dominators
            assert a.connectors == b.connectors
            assert a.meta == b.meta

    def test_mis_bit_identical_across_kernels(self, equivalence_suite):
        for graph in equivalence_suite:
            reference = first_fit_mis(graph).nodes
            index = IndexedGraph.from_graph(graph)
            array = build_kernel(graph, "array")
            assert first_fit_mis_nodes(graph, index=index) == reference
            assert first_fit_mis_nodes(graph, index=array) == reference


class TestTrackerStepEquivalence:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_lockstep_selection(self, tie_break, udg_suite):
        for _, graph in udg_suite:
            lazy, array = _tracker_pair(graph)
            while lazy.component_count > 1:
                expected = lazy.best_connector(tie_break)
                assert array.best_connector(tie_break) == expected
                lazy.add(expected[0])
                realized = array.add(expected[0])
                assert realized == expected[1]
                assert array.component_count == lazy.component_count
            assert array.component_count == 1
            assert array.included == lazy.included

    @pytest.mark.parametrize("seed", range(4))
    def test_off_policy_adds(self, seed, udg_suite):
        # The caches must stay exact under arbitrary add sequences, not
        # just the argmax ones the greedy produces.
        rng = random.Random(300 + seed)
        _, graph = udg_suite[seed % len(udg_suite)]
        lazy, array = _tracker_pair(graph)
        outside = [v for v in graph.nodes() if v not in lazy.included]
        rng.shuffle(outside)
        for w in outside:
            if lazy.component_count > 1:
                tie_break = TIE_BREAKS[rng.randrange(3)]
                assert array.best_connector(tie_break) == (
                    lazy.best_connector(tie_break)
                )
            assert array.add(w) == lazy.add(w)

    def test_read_api_parity(self, udg_suite):
        _, graph = udg_suite[2]
        lazy, array = _tracker_pair(graph)
        assert array.dominators == lazy.dominators
        assert array.included == lazy.included
        for w in graph.nodes():
            assert array.gain(w) == lazy.gain(w)
            if w not in lazy.included:
                assert len(array.adjacent_components(w)) == len(
                    lazy.adjacent_components(w)
                )

    def test_unorderable_nodes_fall_back_like_lazy(self):
        # Mixed node types break "<": both trackers must resolve ties
        # through the same deterministic fallback.
        graph = Graph(edges=[(0, "a"), ("a", 1), (1, "b"), ("b", 2)])
        mis = first_fit_mis(graph, root=0)
        index = IndexedGraph.from_graph(graph)
        lazy = LazyGainTracker(index, mis.nodes)
        array = ArrayGainTracker(index, mis.nodes)
        while lazy.component_count > 1:
            expected = lazy.best_connector("min")
            assert array.best_connector("min") == expected
            lazy.add(expected[0])
            array.add(expected[0])


#: Deep-heap instances: (n, side, seed) near the fixture densities, big
#: enough for heaps of ~10³ entries and runs of ~10² picks.
DEEP_PARAMS = [(1000, 12.7, 11), (1500, 15.5, 12), (2000, 18.0, 13)]


class TestDeepHeapLockstep:
    """Step-lock against the lazy tracker where the heaps get deep."""

    @pytest.mark.parametrize("n, side, seed", DEEP_PARAMS)
    def test_lockstep_with_mode_switches(self, n, side, seed):
        _, graph = random_connected_udg(n, side, seed=seed)
        lazy, array = _tracker_pair(graph)
        rng = random.Random(seed)
        q0 = lazy.component_count
        used = set()
        while lazy.component_count > 1:
            q = lazy.component_count
            if 4 * q > 3 * q0:
                tie_break = "min"  # first quarter: one heap only
            elif 4 * q > q0:
                tie_break = ("min", "max")[rng.randrange(2)]
            else:
                tie_break = TIE_BREAKS[rng.randrange(3)]  # degree: late
            used.add(tie_break)
            expected = lazy.best_connector(tie_break)
            assert array.best_connector(tie_break) == expected
            lazy.add(expected[0])
            assert array.add(expected[0]) == expected[1]
            assert array.component_count == lazy.component_count
        assert used == set(TIE_BREAKS)
        assert array.included == lazy.included

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_stale_higher_entry_above_fresh_rescore(self, tie_break):
        # Node 0 first scores gain 2 (components 10, 11, 12).  Adding its
        # neighbor 5 merges 10 and 11, and 0's fresh entry (gain 1) is
        # pushed below its old gain-2 entry, which is then the heap top.
        graph = Graph(edges=[
            (0, 10), (0, 11), (0, 12), (5, 10), (5, 11), (5, 0),
            (7, 12), (7, 13),
        ])
        dominators = [10, 11, 12, 13]
        index = IndexedGraph.from_graph(graph)
        lazy = LazyGainTracker(index, dominators)
        array = ArrayGainTracker(index, dominators)
        assert lazy.best_connector(tie_break) == (0, 2)
        assert array.best_connector(tie_break) == (0, 2)
        assert array.add(5) == lazy.add(5) == 1
        expected = lazy.best_connector(tie_break)
        assert expected[1] == 1
        assert array.best_connector(tie_break) == expected


class TestDeterministicCounters:
    def _counters(self, fn):
        with OBS.capture() as reg:
            fn()
            return dict(reg.counters())

    def test_greedy_array_counters_repeat(self, udg_suite):
        _, graph = udg_suite[0]
        run = lambda: greedy_connector_cds(graph, kernel="array")  # noqa: E731
        assert self._counters(run) == self._counters(run)

    def test_waf_array_counters_repeat(self, udg_suite):
        _, graph = udg_suite[1]
        run = lambda: waf_cds(graph, kernel="array")  # noqa: E731
        assert self._counters(run) == self._counters(run)

    def test_array_counters_present(self, udg_suite):
        _, graph = udg_suite[0]
        counters = self._counters(
            lambda: greedy_connector_cds(graph, kernel="array")
        )
        # Every connector was scored at least once before it won.
        assert counters["gain.evaluations"] >= counters["greedy.connectors_chosen"] > 0
        assert counters.get("array.gather_elements", 0) > 0
        assert counters.get("gain.evaluations", 0) > 0
        assert counters.get("mis.selected", 0) > 0

    def test_shared_semantic_counters_match_indexed(self, udg_suite):
        # Kernel-private work counters differ; the semantic ones (MIS
        # choices, connector count, DSU unions) must be bit-identical.
        shared = ("mis.selected", "mis.nodes_scanned",
                  "greedy.connectors_chosen", "gain.dsu_unions")
        _, graph = udg_suite[3]
        a = self._counters(lambda: greedy_connector_cds(graph, kernel="indexed"))
        c = self._counters(lambda: greedy_connector_cds(graph, kernel="array"))
        for name in shared:
            assert a.get(name) == c.get(name), name


class TestErrorContractParity:
    """Same error cases and messages as :class:`LazyGainTracker`."""

    def _array(self, graph):
        return IndexedGraph.from_graph(graph)

    def test_empty_dominators_rejected(self, path5):
        with pytest.raises(ValueError, match="non-empty"):
            ArrayGainTracker(self._array(path5), [])

    def test_unknown_dominator_rejected(self, path5):
        with pytest.raises(KeyError, match="not in graph"):
            ArrayGainTracker(self._array(path5), [99])

    def test_unknown_tie_break_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 4])
        with pytest.raises(ValueError, match="tie_break"):
            tracker.best_connector("median")

    def test_double_add_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 4])
        tracker.add(2)
        with pytest.raises(ValueError, match="already included"):
            tracker.add(2)

    def test_best_connector_when_connected_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 1])
        with pytest.raises(ValueError, match="already connected"):
            tracker.best_connector()

    def test_no_positive_gain_rejected(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        tracker = ArrayGainTracker(self._array(graph), [0, 2])
        with pytest.raises(ValueError, match="positive gain"):
            tracker.best_connector()
