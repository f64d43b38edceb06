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

    @pytest.mark.parametrize("side", [3e-5, 1e-3, 1.0, 1e4])
    def test_small_dart_is_not_convex(self, side):
        # The reflex turn is -0.45·side²: -4.05e-10 at side 3e-5, which
        # an absolute EPS test took for a straight one.
        dart = [Point(0, 0), Point(side, 0), Point(side / 2, side / 10), Point(side / 2, side)]
        assert not is_convex_polygon(dart)
        assert not is_convex_polygon(dart[::-1])
        square = [Point(0, 0), Point(side, 0), Point(side, side), Point(0, side)]
        assert is_convex_polygon(square)


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

    @pytest.mark.parametrize("side", [3e-5, 1e-3, 1.0, 1e4])
    def test_boundary_band_scales_with_the_polygon(self, side):
        # (side, 0) lies side/√2 outside the hypotenuse; an absolute band
        # on the turn (side² there) once counted it as on the boundary.
        tri = [Point(0, 0), Point(side, side), Point(0, side)]
        assert not point_in_polygon(Point(side, 0), tri)
        assert point_in_polygon(Point(side / 2, side / 2), tri)
        assert point_in_polygon(Point(side / 4, side * 3 / 4), tri)

    def test_point_in_polygon_degenerate(self):
        assert not point_in_polygon(Point(0, 0), [Point(0, 0), Point(1, 0)])
