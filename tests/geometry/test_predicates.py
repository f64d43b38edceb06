"""Unit tests for repro.geometry.predicates."""

import math

import pytest

from repro.geometry import (
    Point,
    angle_at,
    convex_hull,
    diameter,
    is_convex_polygon,
    orientation,
    point_in_polygon,
)


class TestOrientation:
    def test_ccw_positive(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) > 0

    def test_cw_negative(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) < 0

    def test_collinear_zero(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0



class TestAngles:
    def test_right_angle(self):
        a = angle_at(Point(0, 0), Point(1, 0), Point(0, 1))
        assert math.isclose(a, math.pi / 2)

    def test_straight_angle(self):
        a = angle_at(Point(0, 0), Point(1, 0), Point(-1, 0))
        assert math.isclose(a, math.pi)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            angle_at(Point(0, 0), Point(0, 0), Point(1, 0))


    def test_independent_points_in_disk_have_wide_separations(self):
        # The Lemma 2 proof's observation: independent points within a
        # unit disk of the center have angular gaps > 60 degrees.
        from repro.geometry import is_independent

        center = Point(0, 0)
        pts = [Point.polar(0.99, t) for t in (0.0, 1.3, 2.6, 3.9, 5.2)]
        assert is_independent(pts)
        angles = sorted(center.angle_to(p) for p in pts)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi - (angles[-1] - angles[0]))
        assert all(g > math.pi / 3 for g in gaps)


class TestConvexHull:
    def test_square_hull(self):
        square = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        inner = [Point(0.5, 0.5)]
        hull = convex_hull(square + inner)
        assert set(hull) == set(square)

    def test_hull_is_ccw(self):
        hull = convex_hull(
            [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
        )
        area2 = sum(
            hull[i].cross(hull[(i + 1) % len(hull)]) for i in range(len(hull))
        )
        assert area2 > 0

    def test_collinear_input(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        hull = convex_hull(pts)
        assert set(hull) == {Point(0, 0), Point(2, 0)}

    def test_duplicates_removed(self):
        hull = convex_hull([Point(0, 0), Point(0, 0), Point(1, 0)])
        assert len(hull) == 2

    def test_is_convex_polygon(self):
        assert is_convex_polygon(
            [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        )
        assert not is_convex_polygon(
            [Point(0, 0), Point(2, 0), Point(1, 0.2), Point(0, 2)]
        )

    def test_is_convex_polygon_degenerate(self):
        assert not is_convex_polygon([Point(0, 0), Point(1, 0)])


class TestDiameter:
    def test_diameter_square(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert math.isclose(diameter(pts), math.sqrt(2))

    def test_diameter_large_set_uses_hull(self):
        pts = [Point.polar(1.0, 2 * math.pi * k / 200) for k in range(200)]
        assert math.isclose(diameter(pts), 2.0, rel_tol=1e-3)

    def test_diameter_singleton(self):
        assert diameter([Point(0, 0)]) == 0.0


class TestPolygon:

    def test_point_in_polygon_interior(self):
        sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert point_in_polygon(Point(1, 1), sq)

    def test_point_in_polygon_exterior(self):
        sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert not point_in_polygon(Point(3, 1), sq)

    def test_point_on_boundary_counts(self):
        sq = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert point_in_polygon(Point(1, 0), sq)

    def test_point_in_polygon_degenerate(self):
        assert not point_in_polygon(Point(0, 0), [Point(0, 0), Point(1, 0)])
