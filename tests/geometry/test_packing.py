"""Unit tests for repro.geometry.packing."""

import math

import pytest

from repro.geometry import (
    Point,
    WEGNER_RADIUS2_CAPACITY,
    disk_candidates,
    greedy_independent_subset,
    grid_candidates,
    is_independent,
    max_independent_subset,
    max_independent_subset_size,
    neighborhood_candidates,
    phi,
)


class TestIsIndependent:
    def test_far_points(self):
        assert is_independent([Point(0, 0), Point(2, 0), Point(0, 2)])

    def test_touching_points_not_independent(self):
        # Distance exactly 1 is NOT independent (strictly greater than).
        assert not is_independent([Point(0, 0), Point(1, 0)])

    def test_just_over_one(self):
        assert is_independent([Point(0, 0), Point(1.001, 0)])

    def test_empty_and_singleton(self):
        assert is_independent([])
        assert is_independent([Point(0, 0)])



class TestPhi:
    def test_values(self):
        assert phi(1) == 5
        assert phi(2) == 8
        assert phi(3) == 12
        assert phi(4) == 15
        assert phi(5) == 18
        assert phi(6) == 21
        assert phi(7) == 21  # capped by Wegner
        assert phi(100) == 21

    def test_bound_eleven_thirds(self):
        # The paper: phi_n <= 11n/3 + 1 for n >= 2.
        for n in range(2, 30):
            assert phi(n) <= 11 * n / 3 + 1

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            phi(0)


class TestGreedyPacking:
    def test_greedy_is_independent(self):
        candidates = grid_candidates(0, 3, 0, 3, 0.3)
        chosen = greedy_independent_subset(candidates)
        assert is_independent(chosen)

    def test_greedy_is_maximal(self):
        candidates = grid_candidates(0, 3, 0, 3, 0.5)
        chosen = greedy_independent_subset(candidates)
        chosen_set = set(chosen)
        for c in candidates:
            if c in chosen_set:
                continue
            assert not is_independent(list(chosen) + [c])

    def test_key_changes_order(self):
        candidates = grid_candidates(0, 2, 0, 2, 0.4)
        a = greedy_independent_subset(candidates)
        b = greedy_independent_subset(candidates, key=lambda p: (-p.x, -p.y))
        assert a != b  # different scan corners give different packings


class TestExactPacking:
    def test_exact_at_least_greedy(self):
        candidates = disk_candidates(Point(0, 0), 1.0, 0.45)
        greedy = greedy_independent_subset(candidates)
        exact = max_independent_subset(candidates)
        assert len(exact) >= len(greedy)
        assert is_independent(exact)

    def test_exact_unit_disk_capacity_five(self):
        # |I(u)| <= 5 (the paper calls it trivial) — verify on a fine
        # candidate grid *strictly inside* the disk.
        candidates = [
            p for p in disk_candidates(Point(0, 0), 1.0, 0.24)
        ]
        assert max_independent_subset_size(candidates) <= 5

    def test_exact_finds_pentagon(self):
        # Five on-circle points at 72-degree spacing are achievable.
        pts = [Point.polar(1.0, 2 * math.pi * k / 5) for k in range(5)]
        filler = disk_candidates(Point(0, 0), 1.0, 0.7)
        assert max_independent_subset_size(pts + filler) == 5

    def test_limit_short_circuits(self):
        pts = [Point(0, 0), Point(2, 0), Point(4, 0), Point(6, 0)]
        got = max_independent_subset(pts, limit=2)
        assert len(got) >= 2


class TestCandidateGenerators:
    def test_grid_candidates_bounds(self):
        pts = grid_candidates(0, 1, 0, 2, 0.5)
        assert all(0 <= p.x <= 1 and 0 <= p.y <= 2 for p in pts)
        assert len(pts) == 3 * 5

    def test_grid_candidates_bad_step(self):
        with pytest.raises(ValueError):
            grid_candidates(0, 1, 0, 1, 0)

    def test_disk_candidates_inside(self):
        pts = disk_candidates(Point(1, 1), 0.8, 0.2)
        assert all(p.distance_to(Point(1, 1)) <= 0.8 + 1e-9 for p in pts)
        assert pts

    def test_neighborhood_candidates_inside(self):
        centers = [Point(0, 0), Point(2, 0)]
        pts = neighborhood_candidates(centers, 0.3)
        from repro.geometry import in_neighborhood

        assert all(in_neighborhood(p, centers) for p in pts)
        assert pts

    def test_neighborhood_candidates_empty_centers(self):
        assert neighborhood_candidates([], 0.3) == []


class TestWegner:
    def test_capacity_constant(self):
        assert WEGNER_RADIUS2_CAPACITY == 21

    def test_grid_packings_respect_wegner(self):
        # Points at pairwise distance > 1 in a radius-2 disk: must be
        # <= 21 (Wegner allows >= 1, so strict independence is a subset).
        candidates = disk_candidates(Point(0, 0), 2.0, 0.27)
        packing = greedy_independent_subset(candidates)
        assert len(packing) <= WEGNER_RADIUS2_CAPACITY
