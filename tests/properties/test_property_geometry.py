"""Property-based tests (hypothesis) for the geometry substrate."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.geometry import (
    Point,
    chord_length,
    circle_circle_intersection,
    convex_hull,
    diameter,
    greedy_independent_subset,
    is_independent,
    is_star,
    point_in_polygon,
    star_decomposition,
    is_nontrivial_star_decomposition,
)

# Coordinates are quantized to 6 decimals: the geometry predicates use an
# absolute tolerance (EPS = 1e-9), so inputs whose meaningful differences
# live below that scale (subnormals, 1e-39 offsets) are outside the
# library's documented precision contract.
coords = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 6))
points = st.builds(Point, coords, coords)


class TestPointProperties:
    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert math.isclose(a.distance_to(b), b.distance_to(a), abs_tol=1e-12)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9

    @given(points, points)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(points)
    def test_double_negation(self, p):
        assert -(-p) == p

    @given(points, st.floats(min_value=-6.28, max_value=6.28))
    def test_rotation_preserves_norm(self, p, angle):
        assert math.isclose(p.rotated(angle).norm(), p.norm(), abs_tol=1e-6)


class TestHullProperties:
    @given(st.lists(points, min_size=3, max_size=30))
    # A short hull edge: an absolute area test once dropped (0, 2e-5).
    @example([Point(0, 0), Point(0, 2e-5), Point(0, -1), Point(2e-5, 0)])
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        for p in pts:
            assert point_in_polygon(p, hull, tol=1e-6)

    @given(st.lists(points, min_size=1, max_size=30))
    def test_hull_subset_of_input(self, pts):
        assert set(convex_hull(pts)) <= set(pts)

    @given(st.lists(points, min_size=2, max_size=25))
    def test_diameter_attained_by_hull(self, pts):
        # diameter of hull == diameter of set
        from repro.geometry import max_pairwise_distance

        assert math.isclose(
            diameter(pts), max_pairwise_distance(list(set(pts))), abs_tol=1e-9
        )


class TestPackingProperties:
    @given(st.lists(points, min_size=0, max_size=40))
    def test_greedy_output_independent(self, pts):
        assert is_independent(greedy_independent_subset(pts))

    @given(st.lists(points, min_size=1, max_size=40))
    def test_greedy_output_maximal(self, pts):
        chosen = greedy_independent_subset(pts)
        chosen_set = set(chosen)
        for p in pts:
            if p not in chosen_set:
                assert not is_independent(chosen + [p])

    @given(st.lists(points, min_size=2, max_size=15))
    def test_independence_is_hereditary(self, pts):
        if is_independent(pts):
            assert is_independent(pts[1:])


class TestChordProperties:
    @given(st.floats(min_value=0.01, max_value=math.pi))
    def test_chord_below_arc_length(self, measure):
        assert chord_length(1.0, measure) <= measure + 1e-12

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.01, max_value=math.pi),
    )
    def test_chord_scales_linearly_with_radius(self, r, m):
        assert math.isclose(chord_length(r, m), r * chord_length(1.0, m), rel_tol=1e-9)


class TestCircleIntersectionProperties:
    @given(points, points, st.floats(min_value=0.2, max_value=3.0), st.floats(min_value=0.2, max_value=3.0))
    def test_intersections_on_both_circles(self, c1, c2, r1, r2):
        if c1.distance_to(c2) < 1e-6:
            return
        for p in circle_circle_intersection(c1, r1, c2, r2):
            assert math.isclose(p.distance_to(c1), r1, abs_tol=1e-6)
            assert math.isclose(p.distance_to(c2), r2, abs_tol=1e-6)


def connected_point_sets():
    """Strategy: connected planar sets grown by short attachments."""
    offsets = st.tuples(
        st.floats(min_value=-0.65, max_value=0.65),
        st.floats(min_value=-0.65, max_value=0.65),
    )
    return st.lists(offsets, min_size=1, max_size=14).map(_grow)


def _grow(offsets):
    pts = [Point(0.0, 0.0)]
    for i, (dx, dy) in enumerate(offsets):
        base = pts[i % len(pts)]
        cand = Point(base.x + dx, base.y + dy)
        if cand not in pts:
            pts.append(cand)
    return pts


class TestStarProperties:
    @settings(max_examples=60)
    @given(connected_point_sets())
    def test_lemma4_star_decomposition(self, pts):
        # Lemma 4 as a property: every connected set of >= 2 points has
        # a nontrivial star decomposition, and our construction finds it.
        if len(pts) < 2:
            return
        decomposition = star_decomposition(pts)
        assert is_nontrivial_star_decomposition(decomposition, pts)

    @settings(max_examples=60)
    @given(connected_point_sets())
    def test_every_decomposition_part_is_star(self, pts):
        if len(pts) < 2:
            return
        for part in star_decomposition(pts):
            assert is_star(part)
            assert len(part) >= 2
