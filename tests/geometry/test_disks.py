"""Unit tests for repro.geometry.disks."""

import math

import pytest

from repro.geometry import (
    Point,
    circle_circle_intersection,
    disk_union_area,
    in_disk,
    in_neighborhood,
    points_in_neighborhood,
)




class TestNeighborhood:
    def test_in_disk(self):
        assert in_disk(Point(0.5, 0), Point(0, 0))
        assert not in_disk(Point(1.5, 0), Point(0, 0))

    def test_in_neighborhood(self):
        centers = [Point(0, 0), Point(3, 0)]
        assert in_neighborhood(Point(0.9, 0), centers)
        assert in_neighborhood(Point(3.5, 0), centers)
        assert not in_neighborhood(Point(1.6, 0), centers)

    def test_points_in_neighborhood_is_I_of_U(self):
        independent = [Point(0.5, 0), Point(5, 5), Point(2.8, 0)]
        centers = [Point(0, 0), Point(3, 0)]
        inside = points_in_neighborhood(independent, centers)
        assert inside == [Point(0.5, 0), Point(2.8, 0)]


class TestCircleIntersection:
    def test_two_points(self):
        pts = circle_circle_intersection(Point(0, 0), 1.0, Point(1, 0), 1.0)
        assert len(pts) == 2
        for p in pts:
            assert math.isclose(p.norm(), 1.0)
            assert math.isclose(p.distance_to(Point(1, 0)), 1.0)

    def test_first_point_is_left_of_directed_line(self):
        # Matches the appendix's convention: 'a' lies above ou.
        a, a_prime = circle_circle_intersection(Point(0, 0), 1.0, Point(1, 0), 1.0)
        assert a.y > 0 > a_prime.y

    def test_tangent_circles_one_point(self):
        pts = circle_circle_intersection(Point(0, 0), 1.0, Point(2, 0), 1.0)
        assert len(pts) == 1
        assert pts[0].distance_to(Point(1, 0)) <= 1e-9

    def test_disjoint_circles_no_point(self):
        assert circle_circle_intersection(Point(0, 0), 1.0, Point(3, 0), 1.0) == []

    def test_nested_circles_no_point(self):
        assert circle_circle_intersection(Point(0, 0), 2.0, Point(0.1, 0), 0.5) == []

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            circle_circle_intersection(Point(0, 0), 1.0, Point(0, 0), 1.0)

    def test_internally_tangent(self):
        pts = circle_circle_intersection(Point(0, 0), 2.0, Point(1, 0), 1.0)
        assert len(pts) == 1
        assert pts[0].distance_to(Point(2, 0)) <= 1e-9


class TestDiskUnionArea:
    def test_single_disk(self):
        area = disk_union_area([Point(0, 0)], radius=1.0, resolution=400)
        assert math.isclose(area, math.pi, rel_tol=0.02)

    def test_disjoint_disks_additive(self):
        area = disk_union_area([Point(0, 0), Point(10, 0)], radius=1.0, resolution=600)
        assert math.isclose(area, 2 * math.pi, rel_tol=0.03)

    def test_coincident_disks_not_double_counted(self):
        one = disk_union_area([Point(0, 0)], radius=1.0, resolution=400)
        two = disk_union_area([Point(0, 0), Point(0.01, 0)], radius=1.0, resolution=400)
        assert two < one * 1.05

    def test_empty(self):
        assert disk_union_area([], radius=1.0) == 0.0

    def test_lens_overlap_formula(self):
        # Two unit disks at distance 1: union area = 2*pi - 2 lens, with
        # lens area = 2*pi/3 - sqrt(3)/2.
        lens = 2 * math.pi / 3 - math.sqrt(3) / 2
        expected = 2 * math.pi - lens
        area = disk_union_area([Point(0, 0), Point(1, 0)], radius=1.0, resolution=700)
        assert math.isclose(area, expected, rel_tol=0.02)
