"""Unit tests for the deployment generators."""

import math
import random
import time

import pytest

from repro.geometry import Point
from repro.graphs import (
    chain_points,
    clustered_points,
    corridor_points,
    is_connected,
    largest_component_udg,
    random_connected_udg,
    uniform_points,
    unit_disk_graph,
)
from repro.graphs.generators import DENSE_TEST_N
from repro.obs import OBS


class TestPointGenerators:
    def test_uniform_count_and_bounds(self):
        pts = uniform_points(50, 3.0, seed=1)
        assert len(pts) == 50
        assert all(0 <= p.x <= 3 and 0 <= p.y <= 3 for p in pts)

    def test_uniform_deterministic(self):
        assert uniform_points(10, 3.0, seed=9) == uniform_points(10, 3.0, seed=9)

    def test_uniform_seeds_differ(self):
        assert uniform_points(10, 3.0, seed=1) != uniform_points(10, 3.0, seed=2)

    def test_clustered_count(self):
        pts = clustered_points(30, 5.0, clusters=3, seed=0)
        assert len(pts) == 30

    def test_clustered_needs_cluster(self):
        with pytest.raises(ValueError):
            clustered_points(10, 5.0, clusters=0)

    def test_corridor_bounds(self):
        pts = corridor_points(40, 10.0, 1.0, seed=0)
        assert all(0 <= p.x <= 10 and 0 <= p.y <= 1 for p in pts)

    def test_chain_points(self):
        pts = chain_points(4, spacing=1.0)
        assert pts == [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]

    def test_chain_udg_is_path(self):
        g = unit_disk_graph(chain_points(5, 1.0))
        assert g.edge_count() == 4
        assert is_connected(g)


class TestConnectedUDG:
    def test_returns_connected(self):
        for seed in range(4):
            pts, g = random_connected_udg(15, 3.0, seed=seed)
            assert is_connected(g)
            assert len(pts) == 15

    def test_deterministic(self):
        p1, _ = random_connected_udg(12, 3.0, seed=5)
        p2, _ = random_connected_udg(12, 3.0, seed=5)
        assert p1 == p2

    def test_impossible_density_raises(self):
        with pytest.raises(ValueError):
            random_connected_udg(5, 100.0, seed=0, max_attempts=5)


def oracle_connected_udg(n, side, rng, max_attempts=200):
    """The sampler as a plain per-draw loop: ``uniform_points``' stream
    written out, a full UDG build and ``is_connected`` on every draw."""
    for _ in range(max_attempts):
        pts = [
            Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
            for _ in range(n)
        ]
        graph = unit_disk_graph(pts)
        if is_connected(graph):
            return pts, graph
    raise ValueError(
        f"no connected deployment of {n} nodes in side={side} after {max_attempts} tries"
    )


def outcome(sampler, n, side, seed, **kwargs):
    """``(points, adjacency rows, rng state)`` or ``(error, rng state)``."""
    rng = random.Random(seed)
    try:
        pts, graph = sampler(n, side, rng, **kwargs)
    except ValueError as exc:
        return str(exc), rng.getstate()
    assert list(graph.nodes()) == pts
    ids = {p: i for i, p in enumerate(pts)}
    rows = [[ids[q] for q in graph.neighbors(p)] for p in pts]
    return [(p.x, p.y) for p in pts], rows, rng.getstate()


def assert_same(n, side, seed, **kwargs):
    expected = outcome(oracle_connected_udg, n, side, seed, **kwargs)
    assert outcome(random_connected_udg, n, side, seed, **kwargs) == expected
    return expected


#: Fixture-like density (~3 nodes per unit square) for the size sweep.
SIZES = [0, 1, 2, 31, 32, 33, 60, 150, DENSE_TEST_N - 1, DENSE_TEST_N,
         DENSE_TEST_N + 1, 1000]


class TestSamplerMatchesPerDrawLoop:
    """Bit-identity with the per-draw ``unit_disk_graph`` +
    ``is_connected`` loop: points, adjacency insertion order, the
    ``rng`` state afterwards, and every error."""

    @pytest.mark.parametrize("n", SIZES)
    def test_sizes(self, n):
        side = max(1.0, math.sqrt(n / 3.0))
        for seed in range(2):
            assert_same(n, side, seed)

    def test_empty_deployment_exhausts(self):
        message, _ = assert_same(0, 3.0, 0, max_attempts=7)
        assert message == "no connected deployment of 0 nodes in side=3.0 after 7 tries"

    @pytest.mark.parametrize("n,side", [(20, 5.0), (40, 6.0), (60, 6.2)])
    def test_sparse_sides_reject_many_draws(self, n, side):
        for seed in range(3):
            assert_same(n, side, seed)

    def test_exhaustion_message(self):
        message, _ = assert_same(30, 20.0, 1, max_attempts=5)
        assert message == "no connected deployment of 30 nodes in side=20.0 after 5 tries"

    @pytest.mark.parametrize("side", [0.0, -0.0])
    def test_default_path_duplicates(self, side):
        message, _ = assert_same(5, side, 0)
        assert message == "duplicate points in UDG input"

    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_default_path_non_finite(self, side):
        message, _ = assert_same(5, side, 3)
        assert message.startswith("non-finite coordinates in UDG input: Point(")

    def test_uniform_points_is_the_same_stream(self):
        rng = random.Random(4)
        expected = [Point(rng.uniform(0.0, 7.5), rng.uniform(0.0, 7.5)) for _ in range(40)]
        rng_new = random.Random(4)
        assert uniform_points(40, 7.5, rng_new) == expected
        assert rng_new.getstate() == rng.getstate()


class TestSamplerObservability:
    @pytest.mark.parametrize("n,side", [(20, 3.8), (60, 6.2), (150, 8.0), (600, 14.0)])
    def test_accepted_build_reports_what_unit_disk_graph_would(self, n, side):
        pts, _ = oracle_connected_udg(n, side, random.Random(2))
        with OBS.capture() as reg:
            unit_disk_graph(pts)
            oracle = reg.counters()
        with OBS.capture() as reg:
            random_connected_udg(n, side, seed=2)
            counters = reg.counters()
            builds = reg.timers()["udg.grid.build"].count
        assert {k: v for k, v in counters.items() if k.startswith("udg.")} == oracle
        assert counters["generate.draws"] - counters["generate.rejected"] == 1
        assert builds == 1  # rejected draws are not UDG builds

    def test_counts_every_draw_on_exhaustion(self):
        with OBS.capture() as reg:
            with pytest.raises(ValueError):
                random_connected_udg(30, 20.0, seed=1, max_attempts=5)
            counters = reg.counters()
        assert counters["generate.draws"] == counters["generate.rejected"] == 5
        assert not any(k.startswith("udg.") for k in counters)

    def test_an_invalid_draw_is_counted_and_not_returned(self):
        with OBS.capture() as reg:
            with pytest.raises(ValueError, match="duplicate"):
                random_connected_udg(5, 0.0, seed=1)
            counters = reg.counters()
        assert counters["generate.draws"] == counters["generate.rejected"] == 1


class TestLargestComponent:
    def test_keeps_giant_component(self):
        pts = [Point(0, 0), Point(0.5, 0), Point(0.9, 0), Point(10, 10)]
        kept, graph = largest_component_udg(pts)
        assert len(kept) == 3
        assert is_connected(graph)
        assert Point(10, 10) not in graph

    def test_empty(self):
        kept, graph = largest_component_udg([])
        assert kept == [] and len(graph) == 0

    def test_already_connected_unchanged(self):
        pts = chain_points(4, 0.9)
        kept, graph = largest_component_udg(pts)
        assert kept == pts
        assert len(graph) == 4

    def test_kept_is_the_largest_component_in_input_order(self):
        giant = [Point(3.0, 0), Point(0, 0), Point(2.0, 0), Point(1.0, 0)]
        small = [Point(10, 10), Point(10.5, 10)]
        pts = [small[0], giant[0], giant[1], Point(-9, -9), giant[2], small[1], giant[3]]
        kept, graph = largest_component_udg(pts)
        assert kept == giant
        assert list(graph.nodes()) == giant

    @pytest.mark.slow
    def test_large_sparse_deployment_is_not_quadratic(self):
        pts = uniform_points(8000, 50.0, seed=0)
        start = time.perf_counter()
        kept, graph = largest_component_udg(pts)
        assert time.perf_counter() - start < 3.0
        assert len(kept) == len(graph) and is_connected(graph)
