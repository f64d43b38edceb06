"""Unit tests for repro.geometry.point."""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.geometry import (
    Point,
    distance,
    max_pairwise_distance,
    min_pairwise_distance,
    pairwise_distances,
)


class TestPointArithmetic:
    def test_add(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_sub(self):
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_neg(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_scalar_mul_both_sides(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_truediv(self):
        assert Point(2, 4) / 2 == Point(1, 2)

    def test_iter_unpacks(self):
        x, y = Point(5, 7)
        assert (x, y) == (5, 7)

    def test_hashable_and_usable_as_dict_key(self):
        d = {Point(0, 0): "origin"}
        assert d[Point(0.0, 0.0)] == "origin"

    def test_ordering_is_lexicographic(self):
        assert Point(0, 5) < Point(1, 0)
        assert Point(1, 0) < Point(1, 1)

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 3  # type: ignore[misc]


class TestPointMemoryLayout:
    """``__slots__`` regression guard: Points are allocated by the
    million in UDG deployments, so the layout (no per-instance
    ``__dict__``, hash computed once at construction and stored in a
    slot) must not silently regress."""

    def test_no_instance_dict(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.__dict__  # noqa: B018

    def test_unknown_attribute_rejected(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.z = 3  # type: ignore[attr-defined]

    def test_hash_equals_value_hash(self):
        # Equal points (even fresh instances) must collide exactly.
        assert hash(Point(1.5, -2.0)) == hash(Point(1.5, -2.0))

    def test_hash_stable_across_reads(self):
        p = Point(0.1, 0.2)
        assert hash(p) == hash(p)

    def test_pickle_roundtrip(self):
        import pickle

        p = Point(3.25, -1.5)
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert hash(q) == hash(p)
        assert q.distance_to(Point(3.25, 0.5)) == 2.0

    def test_deepcopy_roundtrip(self):
        import copy

        p = Point(1.0, 2.0)
        q = copy.deepcopy(p)
        assert q == p and hash(q) == hash(p)

    def test_hash_computed_at_construction(self):
        p = Point(0.25, -4.0)
        assert p._hashval == hash((0.25, -4.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda x, y: Point(x, y),
            lambda x, y: Point(y=y, x=x),
            lambda x, y: copy.copy(Point(x, y)),
            lambda x, y: copy.deepcopy(Point(x, y)),
            lambda x, y: dataclasses.replace(Point(0.0, 0.0), x=x, y=y),
            lambda x, y: dataclasses.replace(Point(x, 0.0), y=y),
        ]
        + [
            lambda x, y, proto=proto: pickle.loads(pickle.dumps(Point(x, y), proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
    )
    @pytest.mark.parametrize("x, y", [(1.5, -2.0), (3, 4), (-0.0, math.inf)])
    def test_hash_is_the_field_tuple_hash(self, make, x, y):
        # hash((x, y)) keeps set and dict iteration orders unchanged.
        p = make(x, y)
        assert (p.x, p.y) == (x, y)
        assert hash(p) == hash((x, y))

    @pytest.mark.parametrize(
        "proto, expected",
        [
            (
                2,
                b"\x80\x02crepro.geometry.point\nPoint\nq\x00)\x81q\x01"
                b"G?\xf8\x00\x00\x00\x00\x00\x00G\xc0\x00\x00\x00\x00"
                b"\x00\x00\x00\x86q\x02b.",
            ),
            (
                3,
                b"\x80\x03crepro.geometry.point\nPoint\nq\x00)\x81q\x01"
                b"G?\xf8\x00\x00\x00\x00\x00\x00G\xc0\x00\x00\x00\x00"
                b"\x00\x00\x00\x86q\x02b.",
            ),
            (
                4,
                b"\x80\x04\x95:\x00\x00\x00\x00\x00\x00\x00\x8c\x14"
                b"repro.geometry.point\x94\x8c\x05Point\x94\x93\x94)\x81\x94"
                b"G?\xf8\x00\x00\x00\x00\x00\x00G\xc0\x00\x00\x00\x00"
                b"\x00\x00\x00\x86\x94b.",
            ),
            (
                5,
                b"\x80\x05\x95:\x00\x00\x00\x00\x00\x00\x00\x8c\x14"
                b"repro.geometry.point\x94\x8c\x05Point\x94\x93\x94)\x81\x94"
                b"G?\xf8\x00\x00\x00\x00\x00\x00G\xc0\x00\x00\x00\x00"
                b"\x00\x00\x00\x86\x94b.",
            ),
        ],
    )
    def test_pickled_bytes_pinned(self, proto, expected):
        # serve and sweep ship Points between processes: the state is
        # the two fields only, never the hash.
        assert pickle.dumps(Point(1.5, -2.0), protocol=proto) == expected

    def test_equality_and_order_semantics_preserved(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert Point(1, 2) != Point(2, 1)
        assert Point(1, 2) <= Point(1, 2) < Point(1, 3)
        assert Point(2, 0) > Point(1, 9) >= Point(1, 9)


class TestPointMetrics:
    def test_dot(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_cross_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) == 1
        assert Point(0, 1).cross(Point(1, 0)) == -1

    def test_norm(self):
        assert Point(3, 4).norm() == 5


    def test_distance_to(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5

    def test_normalized(self):
        n = Point(3, 4).normalized()
        assert math.isclose(n.norm(), 1.0)

    def test_normalized_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Point(0, 0).normalized()

    def test_perpendicular_is_ccw_rotation(self):
        assert Point(1, 0).perpendicular() == Point(0, 1)

    def test_perpendicular_preserves_norm(self):
        p = Point(3, 4)
        assert math.isclose(p.perpendicular().norm(), p.norm())

    def test_angle(self):
        assert math.isclose(Point(0, 1).angle(), math.pi / 2)

    def test_angle_to(self):
        assert math.isclose(Point(0, 0).angle_to(Point(1, 1)), math.pi / 4)

    def test_polar_roundtrip(self):
        p = Point.polar(2.0, math.pi / 3)
        assert math.isclose(p.norm(), 2.0)
        assert math.isclose(p.angle(), math.pi / 3)


class TestModuleHelpers:
    def test_distance(self):
        assert distance(Point(0, 0), Point(0, 2)) == 2

    def test_pairwise_distances_count(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        assert len(list(pairwise_distances(pts))) == 3

    def test_min_pairwise_distance(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 0)]
        assert min_pairwise_distance(pts) == 1

    def test_min_pairwise_distance_degenerate(self):
        assert min_pairwise_distance([Point(0, 0)]) == math.inf

    def test_max_pairwise_distance(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 0)]
        assert max_pairwise_distance(pts) == 5

    def test_max_pairwise_distance_degenerate(self):
        assert max_pairwise_distance([]) == 0.0
