"""Tests for backbone routing."""

import itertools
import random

import pytest

from repro.cds import greedy_connector_cds, waf_cds
from repro.graphs import shortest_path_lengths
from repro.routing import BackboneRouter


def make_router(graph):
    return BackboneRouter(graph, greedy_connector_cds(graph).nodes)


class TestRouteValidity:
    def test_paths_are_walks(self, udg_suite):
        for _, g in udg_suite[:5]:
            router = make_router(g)
            nodes = sorted(g.nodes())
            rng = random.Random(0)
            for _ in range(10):
                s, t = rng.sample(nodes, 2)
                path = router.route(s, t)
                assert path[0] == s and path[-1] == t
                for a, b in itertools.pairwise(path):
                    assert g.has_edge(a, b)

    def test_interior_is_backbone(self, udg_suite):
        for _, g in udg_suite[:5]:
            router = make_router(g)
            nodes = sorted(g.nodes())
            rng = random.Random(1)
            for _ in range(10):
                s, t = rng.sample(nodes, 2)
                path = router.route(s, t)
                for v in path[1:-1]:
                    assert v in router.backbone

    def test_self_route(self, path5):
        router = BackboneRouter(path5, [1, 2, 3])
        assert router.route(2, 2) == [2]

    def test_adjacent_direct(self, path5):
        router = BackboneRouter(path5, [1, 2, 3])
        assert router.route(0, 1) == [0, 1]

    def test_unknown_endpoint(self, path5):
        router = BackboneRouter(path5, [1, 2, 3])
        with pytest.raises(KeyError):
            router.route(0, 99)

    def test_invalid_backbone_rejected(self, path5):
        with pytest.raises(ValueError):
            BackboneRouter(path5, [0, 1])


class TestStretch:
    def test_stretch_at_least_one(self, udg_suite):
        for _, g in udg_suite[:4]:
            router = make_router(g)
            nodes = sorted(g.nodes())
            rng = random.Random(2)
            for _ in range(8):
                s, t = rng.sample(nodes, 2)
                assert router.stretch(s, t) >= 1.0

    def test_stretch_bounded_for_mis_backbone(self, udg_suite):
        # MIS-based backbones detour at most a few extra hops per hop;
        # empirically mean stretch stays below 2 on random UDGs.
        for _, g in udg_suite[:4]:
            router = make_router(g)
            nodes = sorted(g.nodes())
            rng = random.Random(3)
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(12)]
            assert router.mean_stretch(pairs) < 2.0

    def test_path_graph_stretch_is_one(self, path5):
        router = BackboneRouter(path5, [1, 2, 3])
        assert router.stretch(0, 4) == 1.0

    def test_mean_stretch_requires_pairs(self, path5):
        router = BackboneRouter(path5, [1, 2, 3])
        with pytest.raises(ValueError):
            router.mean_stretch([])

    def test_waf_and_greedy_backbones_both_routable(self, small_udg):
        _, g = small_udg
        for cds in (waf_cds(g), greedy_connector_cds(g)):
            router = BackboneRouter(g, cds.nodes)
            nodes = sorted(g.nodes())
            s, t = nodes[0], nodes[-1]
            path = router.route(s, t)
            true = shortest_path_lengths(g, s)[t]
            assert len(path) - 1 >= true
