"""Property-based tests (hypothesis) for the geometry substrate."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.geometry import (
    Point,
    chord_length,
    circle_circle_intersection,
    convex_hull,
    diameter,
    greedy_independent_subset,
    is_convex_polygon,
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

#: Perpendicular offsets from a line, down to far below EPS: the scale at
#: which a tolerance-based turn test mistakes a hull vertex for a
#: collinear one.
OFFSETS = [0.0] + [s * 10.0**-k for k in range(4, 13) for s in (1, -1)]


@st.composite
def near_collinear_sets(draw):
    """3-12 points along one line, in clusters around 2-3 anchors: each
    point sits a step of 1e-4 down to 1e-12 (or none) along the line
    from its anchor and is pushed off the line by another such step.
    Clusters at the ends make nearly reversed hull turns (spikes); on a
    (nearly) vertical line such a spike is not first in x order, which
    is what a monotone chain can drop."""
    x0, y0 = draw(coords), draw(coords)
    angle = draw(st.one_of(st.sampled_from([0.0, math.pi / 2]),
                           st.floats(min_value=0.0, max_value=math.pi)))
    dx, dy = math.cos(angle), math.sin(angle)
    anchors = draw(st.lists(st.floats(min_value=-5.0, max_value=5.0),
                            min_size=2, max_size=3))
    steps = st.sampled_from(OFFSETS)
    pts = []
    for _ in range(draw(st.integers(min_value=3, max_value=12))):
        t = draw(st.sampled_from(anchors)) + draw(steps)
        off = draw(steps)
        pts.append(Point(x0 + t * dx - off * dy, y0 + t * dy + off * dx))
    return pts


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
    @given(st.one_of(st.lists(points, min_size=3, max_size=30),
                     near_collinear_sets()))
    # A short hull edge: an absolute area test once dropped (0, 2e-5).
    @example([Point(0, 0), Point(0, 2e-5), Point(0, -1), Point(2e-5, 0)])
    # A nearly flat turn: a tolerance relative to the edge lengths once
    # dropped (0, 0).
    @example([Point(0, 0), Point(0, 1), Point(0, 6.1e-05), Point(-6.1e-05, 2)])
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


#: Dart scales from far below EPS's square root to far above one.
SCALES = [m * 10.0**k for k in range(-12, 5) for m in (1.0, 3.0)]


def _dart(scale, origin, reverse):
    """A non-convex quadrilateral (reflex turn -0.45·scale²) at ``origin``."""
    shape = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.1), (0.5, 1.0)]
    pts = [Point(origin.x + x * scale, origin.y + y * scale) for x, y in shape]
    return pts[::-1] if reverse else pts


darts = st.builds(_dart, st.sampled_from(SCALES), points, st.booleans())


def exact_turn_signs(vertices):
    """The signs of the cycle's turns, in exact rational arithmetic."""
    n = len(vertices)
    signs = set()
    for i in range(n):
        a, b, c = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        ax, ay = Fraction(a.x), Fraction(a.y)
        det = (Fraction(b.x) - ax) * (Fraction(c.y) - ay) - (
            Fraction(b.y) - ay
        ) * (Fraction(c.x) - ax)
        signs.add((det > 0) - (det < 0))
    return signs


class TestConvexityProperties:
    @given(st.sampled_from(SCALES), st.booleans())
    def test_darts_are_not_convex_at_any_scale(self, scale, reverse):
        assert not is_convex_polygon(_dart(scale, Point(0.0, 0.0), reverse))

    @given(st.one_of(darts, near_collinear_sets(),
                     st.lists(points, min_size=3, max_size=8)))
    def test_matches_exact_turns(self, vertices):
        # Translated darts round to anything from a dart to a sliver;
        # the exact turns of the rounded coordinates decide.
        assert is_convex_polygon(vertices) == (
            not {1, -1} <= exact_turn_signs(vertices)
        )

    @given(st.one_of(st.lists(points, min_size=3, max_size=30),
                     near_collinear_sets()))
    def test_hulls_are_convex(self, pts):
        hull = convex_hull(pts)
        if len(hull) >= 3:
            assert is_convex_polygon(hull)
            assert is_convex_polygon(hull[::-1])


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
