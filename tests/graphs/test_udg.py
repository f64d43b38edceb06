"""Unit tests for the unit-disk-graph builders."""

import math
import warnings

import pytest

from repro.geometry import Point
from repro.graphs import (
    quasi_unit_disk_graph,
    unit_disk_graph,
    unit_disk_graph_naive,
    uniform_points,
)


def edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


class TestUnitDiskGraph:
    def test_edge_iff_distance_at_most_one(self):
        a, b, c = Point(0, 0), Point(1, 0), Point(2.5, 0)
        g = unit_disk_graph([a, b, c])
        assert g.has_edge(a, b)  # distance exactly 1: edge
        assert not g.has_edge(b, c)
        assert not g.has_edge(a, c)

    def test_matches_naive_on_random_points(self):
        for seed in range(5):
            pts = uniform_points(60, 5.0, seed=seed)
            fast = unit_disk_graph(pts)
            slow = unit_disk_graph_naive(pts)
            assert edge_set(fast) == edge_set(slow)

    def test_matches_naive_other_radius(self):
        pts = uniform_points(40, 5.0, seed=3)
        assert edge_set(unit_disk_graph(pts, radius=1.7)) == edge_set(
            unit_disk_graph_naive(pts, radius=1.7)
        )

    def test_cross_bucket_edges_found(self):
        # Points in adjacent grid buckets, still within distance 1.
        a, b = Point(0.99, 0.5), Point(1.01, 0.5)
        g = unit_disk_graph([a, b])
        assert g.has_edge(a, b)

    def test_diagonal_bucket_edges_found(self):
        a, b = Point(0.99, 0.99), Point(1.01, 1.01)
        g = unit_disk_graph([a, b])
        assert g.has_edge(a, b)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            unit_disk_graph([Point(0, 0), Point(0, 0)])

    def test_duplicate_points_rejected_by_naive_too(self):
        # The builders promise identical behaviour on every input —
        # including erroneous ones (docs/usage.md §1).
        with pytest.raises(ValueError):
            unit_disk_graph_naive([Point(0, 0), Point(0, 0)])

    def test_builders_agree_on_duplicate_contract(self):
        pts = uniform_points(10, 3.0, seed=4)
        dupes = pts + [pts[0]]
        for builder in (unit_disk_graph, unit_disk_graph_naive):
            with pytest.raises(ValueError, match="duplicate"):
                builder(dupes)

    def test_empty(self):
        g = unit_disk_graph([])
        assert len(g) == 0

    def test_singleton(self):
        g = unit_disk_graph([Point(0, 0)])
        assert len(g) == 1 and g.edge_count() == 0

    def test_nodes_are_the_points(self):
        pts = [Point(0, 0), Point(0.5, 0)]
        g = unit_disk_graph(pts)
        assert set(g.nodes()) == set(pts)

    def test_zero_radius(self):
        g = unit_disk_graph([Point(0, 0), Point(1, 1)], radius=0.0)
        assert g.edge_count() == 0


BUILDERS = (
    unit_disk_graph,
    unit_disk_graph_naive,
    quasi_unit_disk_graph,
)


class TestOneShotIterable:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("n", (20, 60))
    def test_iterator_builds_the_same_graph(self, builder, n):
        # A generator has no len(): every builder materializes first.
        pts = uniform_points(n, 5.0, seed=n)
        from_iter = builder(iter(pts))
        from_list = builder(pts)
        assert list(from_iter.nodes()) == pts
        for p in pts:
            assert from_iter.neighbors(p) == from_list.neighbors(p)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("axis", ("x", "y"))
    def test_rejected_by_every_builder(self, builder, bad, axis):
        pts = [Point(0.0, 0.0), Point(0.5, 0.0), Point(1.0, 0.0)]
        pts.insert(2, Point(bad, 0.0) if axis == "x" else Point(0.0, bad))
        with pytest.raises(ValueError, match="non-finite"):
            builder(pts)

    @pytest.mark.parametrize(
        "builder", (unit_disk_graph,), ids=lambda b: b.__name__,
    )
    def test_rejected_on_the_bucketed_paths(self, builder):
        # Above GRID_SMALL_N, where the builder casts floor(x) to int64:
        # a NaN must stop at the input check, not reach the bucketing
        # (no RuntimeWarning).
        pts = uniform_points(60, 5.0, seed=2) + [Point(math.nan, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                builder(pts)

    def test_message_names_the_point(self):
        with pytest.raises(ValueError, match=r"Point\(x=nan, y=0\.0\)"):
            unit_disk_graph([Point(0.0, 0.0), Point(math.nan, 0.0)])

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_message_names_the_point_as_given(self, builder):
        # The input Point itself, int coordinate included, not its
        # float coordinates.
        with pytest.raises(ValueError, match=r"Point\(x=0, y=nan\)$"):
            builder([Point(1, 1), Point(0, math.nan)])


class TestCoordinateArrayCheck:
    """Every builder validates through one coordinate-array check, which raises exactly the errors the former
    per-``Point`` check (``_checked_points``) raised."""

    CASES = {
        "shared x, distinct y": [(1.0, 0.0), (1.0, 2.0), (1.0, 1.0), (0.5, 0.0)],
        "duplicate": [(1.0, 0.0), (0.3, 0.2), (1.0, 0.0)],
        "signed zero duplicate": [(0.0, 1.0), (2.0, 2.0), (-0.0, 1.0)],
        "nan after inf": [(0.0, 0.0), (math.inf, 1.0), (math.nan, 0.0)],
        "nan in y": [(0.0, 0.0), (0.5, math.nan)],
        "empty": [],
    }

    #: The error message per case (``None``: the input is valid).
    MESSAGES = {
        "shared x, distinct y": None,
        "duplicate": "duplicate points in UDG input",
        "signed zero duplicate": "duplicate points in UDG input",
        "nan after inf": "non-finite coordinates in UDG input: Point(x=inf, y=1.0)",
        "nan in y": "non-finite coordinates in UDG input: Point(x=0.5, y=nan)",
        "empty": None,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error_as_checked_points(self, case):
        pts = [Point(x, y) for x, y in self.CASES[case]]

        def outcome(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return None

        expected = self.MESSAGES[case]
        for builder in BUILDERS:
            assert outcome(lambda: builder(pts)) == expected, builder.__name__


class TestGridSmallNDispatch:
    def test_small_n_adjacency_is_bit_identical_to_naive(self):
        # Below GRID_SMALL_N the grid builder runs the shared all-pairs
        # scan, so not just edge sets but adjacency *insertion order*
        # matches the naive builder (downstream BFS order depends on it).
        from repro.graphs.udg import GRID_SMALL_N

        for seed in range(3):
            pts = uniform_points(GRID_SMALL_N - 1, 4.5, seed=seed)
            grid = unit_disk_graph(pts)
            naive = unit_disk_graph_naive(pts)
            for p in pts:
                assert grid.neighbors(p) == naive.neighbors(p)

    def test_small_n_counters_are_truthful_all_pairs(self):
        from repro.obs import OBS

        pts = uniform_points(20, 3.8, seed=1)
        with OBS.capture() as reg:
            g = unit_disk_graph(pts)
            counters = reg.counters()
        assert counters["udg.grid.pairs_tested"] == 20 * 19 // 2
        assert counters["udg.grid.edges_emitted"] == g.edge_count()

    def test_large_n_still_prunes_pairs(self):
        from repro.graphs.udg import GRID_SMALL_N
        from repro.obs import OBS

        n = 2 * GRID_SMALL_N
        pts = uniform_points(n, 6.5, seed=2)
        with OBS.capture() as reg:
            unit_disk_graph(pts)
            counters = reg.counters()
        assert counters["udg.grid.pairs_tested"] < n * (n - 1) // 2


class TestCommunicationRadius:
    def test_scaled_radius(self):
        pts = [Point(0, 0), Point(30, 0), Point(70, 0)]
        g = unit_disk_graph(pts, radius=40.0)
        assert g.has_edge(pts[0], pts[1])
        assert g.has_edge(pts[1], pts[2])
        assert not g.has_edge(pts[0], pts[2])


class TestQuasiUDG:
    def test_inner_edges_always_present(self):
        pts = [Point(0, 0), Point(0.5, 0)]
        g = quasi_unit_disk_graph(pts, inner_radius=0.75)
        assert g.has_edge(pts[0], pts[1])

    def test_outer_edges_never_present(self):
        pts = [Point(0, 0), Point(1.2, 0)]
        g = quasi_unit_disk_graph(pts)
        assert not g.has_edge(pts[0], pts[1])

    def test_deterministic_per_seed(self):
        pts = uniform_points(40, 4.0, seed=1)
        g1 = quasi_unit_disk_graph(pts, seed=5)
        g2 = quasi_unit_disk_graph(pts, seed=5)
        assert edge_set(g1) == edge_set(g2)

    def test_subgraph_of_udg(self):
        pts = uniform_points(40, 4.0, seed=2)
        quasi = quasi_unit_disk_graph(pts)
        full = unit_disk_graph(pts)
        assert edge_set(quasi) <= edge_set(full)

    def test_supergraph_of_inner_udg(self):
        pts = uniform_points(40, 4.0, seed=2)
        quasi = quasi_unit_disk_graph(pts, inner_radius=0.75)
        inner = unit_disk_graph(pts, radius=0.75)
        assert edge_set(inner) <= edge_set(quasi)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            quasi_unit_disk_graph([], inner_radius=1.5, outer_radius=1.0)

    def test_duplicate_points_rejected_like_exact_builders(self):
        # docs/usage.md §1: all builders share the input contract.
        with pytest.raises(ValueError, match="duplicate"):
            quasi_unit_disk_graph([Point(0, 0), Point(0, 0)])

    def test_counters_report_all_pairs(self):
        from repro.obs import OBS

        pts = uniform_points(15, 3.0, seed=6)
        with OBS.capture() as reg:
            g = quasi_unit_disk_graph(pts)
            counters = reg.counters()
        assert counters["udg.quasi.pairs_tested"] == 15 * 14 // 2
        assert counters["udg.quasi.edges_emitted"] == g.edge_count()
