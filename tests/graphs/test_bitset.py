"""Unit tests for the bitset neighborhood kernel (repro.graphs.bitset)."""

import random

import pytest

from repro.cds import waf_cds
from repro.graphs import Graph, random_connected_udg
from repro.graphs.bitset import (
    ARRAY_AUTO_N,
    BITSET_AUTO_N,
    KERNELS,
    BitsetGraph,
    bit_indices,
    build_kernel,
    choose_kernel,
    mask_of,
)
from repro.graphs.indexed import IndexedGraph


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


class TestBitPrimitives:
    def test_mask_of_roundtrip(self):
        ids = [0, 3, 64, 129, 1000]
        assert bit_indices(mask_of(ids, 1001)) == sorted(ids)

    def test_mask_of_empty(self):
        assert mask_of([], 10) == 0

    def test_bit_indices_sparse_path(self):
        # Few bits over a wide range: the lsb-drain branch.
        mask = (1 << 900) | (1 << 5) | 1
        assert bit_indices(mask) == [0, 5, 900]

    def test_bit_indices_dense_path(self):
        # A solid run of bits: the byte-scan branch.
        mask = (1 << 200) - 1
        assert bit_indices(mask) == list(range(200))

    def test_bit_indices_agree_across_densities(self):
        rng = random.Random(7)
        for density in (0.01, 0.2, 0.5, 0.95):
            ids = [i for i in range(300) if rng.random() < density]
            mask = mask_of(ids, 300)
            assert bit_indices(mask) == ids

    def test_bit_indices_zero(self):
        assert bit_indices(0) == []


class TestBitsetGraphEquivalence:
    """The mask view must agree with the dict graph on every neighborhood."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_neighborhoods(self, seed):
        g = _random_graph(60, 0.15, seed)
        index = IndexedGraph.from_graph(g)
        masks = BitsetGraph.from_indexed(index).neighbor_masks
        for node in g:
            i = index.id_of(node)
            expected = {index.id_of(u) for u in g.neighbors(node)}
            assert set(bit_indices(masks[i])) == expected
            assert masks[i].bit_count() == g.degree(node)

    @pytest.mark.parametrize("seed", range(6))
    def test_udg_neighborhoods_and_popcounts(self, seed):
        _, g = random_connected_udg(80, 6.5, seed=seed)
        index = IndexedGraph.from_graph(g)
        bitset = BitsetGraph.from_indexed(index)
        masks = bitset.neighbor_masks
        assert len(masks) == len(g)
        for node in g:
            i = index.id_of(node)
            expected = {index.id_of(u) for u in g.neighbors(node)}
            assert set(bit_indices(masks[i])) == expected
            assert masks[i].bit_count() == g.degree(node)

    def test_bulk_and_on_demand_rows_agree(self):
        _, g = random_connected_udg(50, 5.0, seed=9)
        index = IndexedGraph.from_graph(g)
        rows = [mask_of(index.neighbors(i), len(g)) for i in range(len(g))]
        bulk = BitsetGraph.from_indexed(index)
        assert bulk.neighbor_masks == rows

    def test_self_bit_never_set(self):
        g = _random_graph(40, 0.3, seed=1)
        bitset = BitsetGraph.from_indexed(IndexedGraph.from_graph(g))
        for i, mask in enumerate(bitset.neighbor_masks):
            assert not mask >> i & 1


class TestKernelSelection:
    def test_explicit_names_honored(self):
        assert choose_kernel(10, "bitset") == "bitset"
        assert choose_kernel(10**6, "indexed") == "indexed"

    def test_auto_threshold(self):
        assert choose_kernel(BITSET_AUTO_N - 1, "auto") == "indexed"
        assert choose_kernel(BITSET_AUTO_N, "auto") == "bitset"
        assert choose_kernel(ARRAY_AUTO_N - 1, "auto") == "bitset"
        assert choose_kernel(ARRAY_AUTO_N, "auto") == "array"

    def test_auto_bitset_false_pins_csr(self, monkeypatch):
        # WAF reads only the CSR lists, so its "auto" builds no masks even
        # at the size where the greedy's "auto" picks the bitset kernel.
        def refuse(self, indexed):
            raise AssertionError("waf_cds built a BitsetGraph")

        _, g = random_connected_udg(BITSET_AUTO_N, 12.0, seed=0)
        monkeypatch.setattr(BitsetGraph, "__init__", refuse)
        assert waf_cds(g, kernel="auto").is_valid(g)

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            choose_kernel(10, "numpy")

    def test_build_kernel_types(self):
        _, g = random_connected_udg(20, 3.8, seed=1)
        assert isinstance(build_kernel(g, "indexed"), IndexedGraph)
        assert isinstance(build_kernel(g, "bitset"), BitsetGraph)
        assert build_kernel(g, "array") is IndexedGraph.from_graph(g)
        assert isinstance(build_kernel(g, "auto"), IndexedGraph)

    def test_kernels_constant(self):
        assert KERNELS == ("auto", "indexed", "bitset", "array")
