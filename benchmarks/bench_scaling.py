"""Scaling benchmarks: the full pipeline at realistic network sizes.

The grid-bucketed UDG builder and the incremental gain tracker are
what make the library usable beyond toy sizes; this bench times the
construction pipeline (points → UDG → backbone) at n up to 2000 and
asserts the outputs stay valid.
"""

import os

import pytest

from repro.cds import greedy_connector_cds, waf_cds
from repro.graphs import (
    is_connected,
    largest_component_udg,
    uniform_points,
    unit_disk_graph,
)

SIZES = [200, 500, 1000, 2000]


def _instance(n):
    # Density chosen so the giant component is essentially everything.
    side = (3.1416 * n / 9.0) ** 0.5
    pts = uniform_points(n, side, seed=17)
    kept, graph = largest_component_udg(pts)
    assert len(graph) > 0.9 * n
    return graph


@pytest.mark.parametrize("n", SIZES)
def test_udg_build_scaling(benchmark, n):
    side = (3.1416 * n / 9.0) ** 0.5
    pts = uniform_points(n, side, seed=17)
    g = benchmark(unit_disk_graph, pts)
    assert len(g) == n


@pytest.mark.parametrize("n", [200, 500, 1000])
def test_waf_scaling(benchmark, n):
    g = _instance(n)
    result = benchmark(waf_cds, g)
    assert result.is_valid(g)


@pytest.mark.parametrize("n", [200, 500, 1000])
def test_greedy_scaling(benchmark, n):
    g = _instance(n)
    result = benchmark(greedy_connector_cds, g)
    assert result.is_valid(g)


def test_largest_instance_end_to_end():
    g = _instance(2000)
    assert is_connected(g)
    waf = waf_cds(g)
    greedy = greedy_connector_cds(g)
    assert waf.is_valid(g)
    assert greedy.is_valid(g)
    assert greedy.size <= waf.size + 5


# --- large-instance tier (PR 3) -------------------------------------
#
# Everything below is marked slow and excluded from tier-1 runs (see
# the addopts in pyproject.toml); CI runs it in a separate
# non-blocking job.  These sizes are only practical on the bitset
# kernel — the greedy at n=10000 takes ~4s on the CSR kernel and
# ~0.2s on bitsets.


@pytest.mark.slow
@pytest.mark.parametrize("n", [4000, 10000])
def test_greedy_bitset_scaling(benchmark, n):
    g = _instance(n)
    result = benchmark(greedy_connector_cds, g, kernel="bitset")
    assert result.is_valid(g)


@pytest.mark.slow
@pytest.mark.parametrize("n", [4000, 10000])
def test_waf_large_scaling(benchmark, n):
    g = _instance(n)
    result = benchmark(waf_cds, g)
    assert result.is_valid(g)


@pytest.mark.slow
def test_kernels_agree_at_scale():
    # The equivalence suites (tests/cds/) cover n <= 46 instances
    # exhaustively; this locks the kernels together once at a size
    # where word-level bugs (multi-word masks, dense bit_indices
    # path) and vector bugs (batched rescore, frontier dedup) would
    # actually surface.
    g = _instance(4000)
    indexed = greedy_connector_cds(g, kernel="indexed")
    bitset = greedy_connector_cds(g, kernel="bitset")
    array = greedy_connector_cds(g, kernel="array")
    assert indexed.nodes == bitset.nodes == array.nodes
    assert indexed.meta == bitset.meta == array.meta


@pytest.mark.slow
def test_udg10000_all_solvers_complete():
    from repro.cds import steiner_cds

    g = _instance(10000)
    waf = waf_cds(g)
    greedy = greedy_connector_cds(g, kernel="bitset")
    steiner = steiner_cds(g)
    assert waf.is_valid(g)
    assert greedy.is_valid(g)
    assert steiner.is_valid(g)


# --- vector-kernel tier (PR 7) ---------------------------------------
#
# n = 10^5 runs in the slow lane on the array kernel only: the bitset
# kernel's masks cost n^2/8 = 1.25 GB at this size and its greedy is
# an order of magnitude slower (see docs/performance.md for the
# measured crossover).  n = 10^6 would hold the lane for minutes even
# vectorized, so it is opt-in: set REPRO_SCALE_XL=1 to run it.

_XL = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_XL") != "1",
    reason="set REPRO_SCALE_XL=1 to run the 10^6-node tier (minutes, ~4 GB)",
)


@pytest.mark.slow
def test_udg100000_array_build_and_greedy():
    # The udg100000 fixture of check_counters.py (historical timings:
    # BENCH_pr7.json).
    pts = uniform_points(100000, 140.0, seed=7)
    g = unit_disk_graph(pts)  # dispatches to the vectorized builder
    assert is_connected(g)
    result = greedy_connector_cds(g, kernel="array")
    assert result.is_valid(g)
    auto = greedy_connector_cds(g)  # auto resolves to the array kernel
    assert auto.nodes == result.nodes


@pytest.mark.slow
@_XL
def test_udg1000000_build_and_greedy_complete():
    # The udg1000000 fixture of check_counters.py (historical timings:
    # BENCH_pr7.json).
    pts = uniform_points(1000000, 380.0, seed=8)
    g = unit_disk_graph(pts)
    assert is_connected(g)
    result = greedy_connector_cds(g)
    assert result.is_valid(g)
