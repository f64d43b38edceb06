"""Unit tests for repro.geometry.arcs."""

import math

import pytest

from repro.geometry import Arc, ArcPolygon, Point, arc_between, chord_length


class TestArc:
    def test_measure(self):
        a = Arc(Point(0, 0), 1.0, 0.0, math.pi / 2)
        assert math.isclose(a.measure(), math.pi / 2)

    def test_measure_wraps(self):
        a = Arc(Point(0, 0), 1.0, math.pi * 1.5, math.pi * 0.5)
        assert math.isclose(a.measure(), math.pi)

    def test_minor_major(self):
        minor = Arc(Point(0, 0), 1.0, 0.0, math.pi / 3)
        major = Arc(Point(0, 0), 1.0, 0.0, math.pi * 1.5)
        assert minor.is_minor() and not major.is_minor()

    def test_half_circle_is_both(self):
        half = Arc(Point(0, 0), 1.0, 0.0, math.pi)
        assert half.is_minor() and math.isclose(half.measure(), math.pi)

    def test_point_at_endpoints(self):
        a = Arc(Point(0, 0), 1.0, 0.0, math.pi / 2)
        start, end = a.point_at(0.0), a.point_at(1.0)
        assert math.isclose(start.x, 1.0) and abs(start.y) < 1e-12
        assert abs(end.x) < 1e-12 and math.isclose(end.y, 1.0)

    def test_sample_count_and_radius(self):
        a = Arc(Point(2, 3), 1.5, 0.3, 2.0)
        pts = a.sample(9)
        assert len(pts) == 9
        for p in pts:
            assert math.isclose(p.distance_to(Point(2, 3)), 1.5)

    def test_sample_degenerate_counts(self):
        a = Arc(Point(0, 0), 1.0, 0.0, 1.0)
        assert a.sample(0) == []
        assert len(a.sample(1)) == 1

    def test_evenly_interior_matches_paper_construction(self):
        # "the two points evenly on the major arc between p1 and p2":
        # splitting into three equal sub-arcs.
        a = Arc(Point(0, 0), 1.0, 0.0, math.pi)
        q1, q2 = a.evenly_interior(2)
        assert math.isclose(Point(0, 0).angle_to(q1), math.pi / 3)
        assert math.isclose(Point(0, 0).angle_to(q2), 2 * math.pi / 3)


class TestArcBetween:
    def test_minor_arc(self):
        a = arc_between(Point(0, 0), 1.0, Point(1, 0), Point(0, 1), minor=True)
        assert a.measure() <= math.pi

    def test_major_arc(self):
        a = arc_between(Point(0, 0), 1.0, Point(1, 0), Point(0, 1), minor=False)
        assert a.measure() >= math.pi

    def test_off_circle_raises(self):
        with pytest.raises(ValueError):
            arc_between(Point(0, 0), 1.0, Point(2, 0), Point(0, 1))


class TestChordLength:
    def test_sixty_degrees_is_unit(self):
        # The workhorse fact: 60-degree gap on a unit circle = chord 1.
        assert math.isclose(chord_length(1.0, math.pi / 3), 1.0)

    def test_half_circle(self):
        assert math.isclose(chord_length(2.0, math.pi), 4.0)

    def test_monotone_in_measure(self):
        assert chord_length(1.0, 1.0) < chord_length(1.0, 2.0)


class TestArcPolygon:
    def _triangle(self) -> ArcPolygon:
        # An arc triangle with small (minor) unit arcs as edges.
        v = [Point(0, 0), Point(0.9, 0), Point(0.45, 0.7)]
        return ArcPolygon(vertices=tuple(v), edges=(None, None, None))

    def test_vertex_diameter(self):
        t = self._triangle()
        assert math.isclose(t.vertex_diameter(), 0.9)

    def test_has_unit_diameter(self):
        assert self._triangle().has_unit_diameter()

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ArcPolygon(vertices=(Point(0, 0),), edges=())

    def test_major_arc_edge_rejected(self):
        major = Arc(Point(0, 0), 1.0, 0.0, math.pi * 1.7)
        with pytest.raises(ValueError):
            ArcPolygon(vertices=(Point(1, 0),), edges=(major,))

    def test_boundary_diameter_close_to_vertex_diameter_when_small(self):
        # The appendix's criterion: for arc polygons bounded by minor
        # unit arcs whose vertex diameter is <= 1, the full boundary
        # diameter equals the vertex diameter.
        c1 = Point(0.2, -0.8)
        a = Arc(c1, 1.0, math.atan2(0.8, 0.5), math.atan2(0.8, -0.2))
        assert a.is_minor(tol=1e-6)
        start, end = a.point_at(0.0), a.point_at(1.0)
        poly = ArcPolygon(vertices=(start, end), edges=(a, None))
        assert poly.boundary_diameter(per_edge=64) <= poly.vertex_diameter() + 1e-6
