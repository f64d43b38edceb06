"""Unit tests for dynamic CDS maintenance under churn."""

import random

import pytest

from repro.cds.maintenance import DynamicCDS
from repro.geometry import Point
from repro.graphs import Graph, random_connected_udg


class TestConstruction:
    def test_empty_start(self):
        d = DynamicCDS()
        assert d.size == 0
        assert d.is_valid()

    def test_initial_build(self, small_udg):
        _, g = small_udg
        d = DynamicCDS(g)
        assert d.is_valid()
        assert d.size >= 1

    def test_disconnected_initial_rejected(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        with pytest.raises(ValueError):
            DynamicCDS(g)

    def test_graph_copy_isolated_from_input(self, small_udg):
        _, g = small_udg
        d = DynamicCDS(g)
        victim = next(iter(g))
        g.remove_node(victim)  # mutate the original
        assert victim in d.graph  # maintained copy unaffected


class TestJoins:
    def test_seed_node(self):
        d = DynamicCDS()
        stats = d.add_node(0, [])
        assert stats.action == "seeded"
        assert d.backbone == frozenset([0])
        assert d.is_valid()

    def test_join_next_to_backbone_is_free(self, path5):
        d = DynamicCDS(path5)
        backbone_node = next(iter(d.backbone))
        stats = d.add_node(99, [backbone_node])
        assert stats.action == "none"
        assert d.is_valid()

    def test_join_far_from_backbone_promotes(self):
        # Star with center 0: backbone is {0}. A new node hanging off a
        # leaf forces that leaf's promotion.
        g = Graph(edges=[(0, 1), (0, 2)])
        d = DynamicCDS(g)
        assert d.backbone == frozenset([0])
        stats = d.add_node(3, [1])
        assert stats.action == "promoted"
        assert stats.promoted == (1,)
        assert d.is_valid()

    def test_join_requires_neighbor(self, path5):
        d = DynamicCDS(path5)
        with pytest.raises(ValueError):
            d.add_node(99, [])

    def test_join_duplicate_rejected(self, path5):
        d = DynamicCDS(path5)
        with pytest.raises(ValueError):
            d.add_node(0, [1])

    def test_join_unknown_neighbor_rejected(self, path5):
        d = DynamicCDS(path5)
        with pytest.raises(ValueError):
            d.add_node(99, [1234])


class TestLeaves:
    def test_non_backbone_leave_is_free(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        d = DynamicCDS(g)
        stats = d.remove_node(2)
        assert stats.action == "none"
        assert d.is_valid()

    def test_backbone_leave_repairs(self):
        # Path 0-1-2-3-4: backbone {1,2,3}; removing 2 must reconnect.
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError):
            DynamicCDS(g).remove_node(2)  # removal disconnects the path

    def test_backbone_leave_with_alternative_route(self, cycle6):
        d = DynamicCDS(cycle6)
        victim = next(iter(d.backbone))
        stats = d.remove_node(victim)
        assert d.is_valid()
        assert victim not in d.graph

    def test_remove_last_node(self):
        d = DynamicCDS(Graph(nodes=[7]))
        d.remove_node(7)
        assert d.size == 0
        assert d.is_valid()

    def test_unknown_node_rejected(self, path5):
        with pytest.raises(ValueError):
            DynamicCDS(path5).remove_node(42)

    def test_disconnecting_removal_rejected(self, path5):
        d = DynamicCDS(path5)
        with pytest.raises(ValueError):
            d.remove_node(2)


class TestRebuild:
    def test_manual_rebuild_restores_fresh_size(self, medium_udg):
        _, g = medium_udg
        d = DynamicCDS(g)
        # Degrade: churn several backbone nodes out and back in.
        rng = random.Random(1)
        for _ in range(8):
            victims = sorted(d.backbone)
            victim = rng.choice(victims)
            neighbors = d.graph.neighbors(victim)
            try:
                d.remove_node(victim)
            except ValueError:
                continue
            survivors = [u for u in neighbors if u in d.graph]
            if survivors:
                d.add_node(victim, survivors)
            assert d.is_valid()
        stats = d.rebuild()
        assert stats.action == "rebuilt"
        assert d.rebuild_count == 1
        assert d.is_valid()
        # A rebuild is exactly a fresh construction on the current graph.
        assert d.size == DynamicCDS(d.graph).size

    def test_auto_rebuild_bounds_slack(self, small_udg):
        _, g = small_udg
        d = DynamicCDS(g, rebuild_factor=1.5)
        rng = random.Random(0)
        nodes = sorted(g.nodes())
        # Churn: repeatedly remove and re-add fringe nodes.
        for step in range(15):
            leaves = [v for v in d.graph.nodes() if v not in d.backbone]
            victim = rng.choice(sorted(leaves))
            neighbors = d.graph.neighbors(victim)
            try:
                d.remove_node(victim)
            except ValueError:
                continue  # would disconnect; skip this churn event
            survivors = [u for u in neighbors if u in d.graph]
            if survivors:
                d.add_node(victim, survivors)
            assert d.is_valid()
        fresh = DynamicCDS(d.graph).size
        assert d.size <= 1.5 * fresh + 2


class TestRandomChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_churn_sequence_stays_valid(self, seed):
        pts, g = random_connected_udg(25, 4.2, seed=seed)
        d = DynamicCDS(g)
        rng = random.Random(seed)
        for step in range(40):
            if rng.random() < 0.5 and len(d.graph) > 5:
                victim = rng.choice(sorted(d.graph.nodes()))
                try:
                    d.remove_node(victim)
                except ValueError:
                    continue
            else:
                base = rng.choice(sorted(d.graph.nodes()))
                new = Point(base.x + rng.uniform(-0.8, 0.8),
                            base.y + rng.uniform(-0.8, 0.8))
                if new in d.graph:
                    continue
                in_range = [
                    v for v in d.graph.nodes() if v.distance_to(new) <= 1.0
                ]
                if not in_range:
                    continue
                d.add_node(new, in_range)
            assert d.is_valid(), f"invalid after step {step}"
        assert d.repair_count >= 1
