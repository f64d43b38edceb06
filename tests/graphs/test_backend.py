"""Unit tests for the kernel backend protocol (repro.graphs.backend)."""

import pytest

from repro.cds.array_gain import ArrayGainTracker
from repro.cds.bitset_gain import BitsetGainTracker
from repro.cds.lazy_gain import LazyGainTracker
from repro.graphs import random_connected_udg
from repro.graphs.backend import (
    ARRAY_AUTO_N,
    BITSET_AUTO_N,
    KERNELS,
    Backend,
    build_kernel,
    choose_kernel,
    gain_tracker,
)
from repro.graphs.bitset import BitsetGraph
from repro.graphs.indexed import IndexedGraph
from repro.mis import first_fit_mis


@pytest.fixture(scope="module")
def udg30():
    return random_connected_udg(30, 4.5, seed=11)[1]


class TestProtocol:
    def test_all_kernels_satisfy_backend(self, udg30):
        index = IndexedGraph.from_graph(udg30)
        assert isinstance(index, Backend)
        assert isinstance(BitsetGraph.from_indexed(index), Backend)

    def test_plain_graph_is_not_a_backend(self, udg30):
        # The dict-based Graph has no dense-id surface.
        assert not isinstance(udg30, Backend)

    def test_surface_agrees_across_kernels(self, udg30):
        index = IndexedGraph.from_graph(udg30)
        views = (index, BitsetGraph.from_indexed(index))
        for view in views[1:]:
            assert len(view) == len(index)
            assert view.nodes == index.nodes
            assert view.edge_count() == index.edge_count()
            assert view.bfs(0) == index.bfs(0)
            assert view.bfs_order(0) == index.bfs_order(0)
            assert view.connected_components() == index.connected_components()
            assert view.is_connected() == index.is_connected()
            for i in range(len(index)):
                assert view.degree(i) == index.degree(i)


class TestSelectionTable:
    """Pins the three-way auto thresholds (the documented contract)."""

    def test_thresholds(self):
        assert BITSET_AUTO_N == 600
        assert ARRAY_AUTO_N == 20000
        assert KERNELS == ("auto", "indexed", "bitset", "array")

    def test_three_way_auto(self):
        assert choose_kernel(1, "auto") == "indexed"
        assert choose_kernel(BITSET_AUTO_N - 1, "auto") == "indexed"
        assert choose_kernel(BITSET_AUTO_N, "auto") == "bitset"
        assert choose_kernel(ARRAY_AUTO_N - 1, "auto") == "bitset"
        assert choose_kernel(ARRAY_AUTO_N, "auto") == "array"
        assert choose_kernel(10**6, "auto") == "array"

    def test_explicit_beats_auto(self):
        assert choose_kernel(10**6, "indexed") == "indexed"
        assert choose_kernel(1, "array") == "array"

    def test_auto_bitset_false_pins_csr_at_every_size(self):
        for n in (1, BITSET_AUTO_N, ARRAY_AUTO_N, 10**6):
            assert choose_kernel(n, "auto", auto_bitset=False) == "indexed"

    def test_unknown_kernel_lists_choices(self):
        with pytest.raises(ValueError, match="indexed.*bitset.*array"):
            choose_kernel(10, "scipy")


class TestGainTrackerDispatch:
    def test_tracker_matches_kernel(self, udg30):
        mis = first_fit_mis(udg30).nodes
        index = IndexedGraph.from_graph(udg30)
        assert isinstance(gain_tracker(index, mis), LazyGainTracker)
        assert isinstance(
            gain_tracker(BitsetGraph.from_indexed(index), mis), BitsetGainTracker
        )
        assert isinstance(gain_tracker(index, mis, "indexed"), LazyGainTracker)
        assert isinstance(gain_tracker(index, mis, "array"), ArrayGainTracker)

    def test_build_kernel_explicit_types(self, udg30):
        assert isinstance(build_kernel(udg30, "indexed"), IndexedGraph)
        assert isinstance(build_kernel(udg30, "bitset"), BitsetGraph)
        # The array kernel is the CSR view plus the heap greedy.
        assert build_kernel(udg30, "array") is IndexedGraph.from_graph(udg30)
        # n=30 < BITSET_AUTO_N: auto stays on the CSR kernel.
        assert isinstance(build_kernel(udg30, "auto"), IndexedGraph)
