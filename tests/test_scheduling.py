"""Tests for broadcast scheduling over a CDS backbone."""

import pytest

from repro.cds import greedy_connector_cds
from repro.graphs import chain_points, unit_disk_graph
from repro.scheduling import (
    broadcast_schedule_length,
    distance2_coloring,
    is_collision_free,
    two_hop_degree,
)


class TestTwoHopDegree:
    def test_path_middle(self, path5):
        assert two_hop_degree(path5, 2) == 4

    def test_path_end(self, path5):
        assert two_hop_degree(path5, 0) == 2

    def test_restriction(self, path5):
        assert two_hop_degree(path5, 2, within={0, 4}) == 2


class TestDistance2Coloring:
    def test_collision_free_on_suite(self, udg_suite):
        for _, g in udg_suite:
            backbone = greedy_connector_cds(g).nodes
            slots = distance2_coloring(g, backbone)
            assert set(slots) == set(backbone)
            assert is_collision_free(g, slots)

    def test_slot_count_bounded(self, udg_suite):
        for _, g in udg_suite:
            backbone = greedy_connector_cds(g).nodes
            slots = distance2_coloring(g, backbone)
            max_two_hop = max(
                two_hop_degree(g, v, set(backbone)) for v in backbone
            )
            assert max(slots.values()) <= max_two_hop

    def test_chain_needs_three_slots(self):
        # Consecutive chain relays are within 2 hops pairwise in triples.
        g = unit_disk_graph(chain_points(9, 1.0))
        backbone = [p for p in g.nodes()][1:-1]
        slots = distance2_coloring(g, backbone)
        assert is_collision_free(g, slots)
        assert max(slots.values()) == 2  # exactly 3 slots on a path

    def test_unknown_backbone_node(self, path5):
        with pytest.raises(KeyError):
            distance2_coloring(path5, [99])

    def test_validator_catches_conflicts(self, path5):
        # Nodes 1 and 3 share neighbor 2: same slot must be rejected.
        assert not is_collision_free(path5, {1: 0, 3: 0})
        assert is_collision_free(path5, {1: 0, 3: 1})


class TestBroadcastLatency:
    def test_everyone_reached_and_latency_positive(self, udg_suite):
        for _, g in udg_suite[:5]:
            backbone = greedy_connector_cds(g).nodes
            source = min(backbone)
            latency = broadcast_schedule_length(g, backbone, source)
            assert latency >= 0

    def test_star_single_frame(self, star_graph):
        latency = broadcast_schedule_length(star_graph, [0], 0)
        # One transmission reaches all leaves.
        assert latency == 0 or latency < 3

    def test_chain_latency_scales_with_length(self):
        latencies = []
        for n in (6, 12):
            g = unit_disk_graph(chain_points(n, 1.0))
            nodes = list(g.nodes())
            backbone = nodes[1:-1]
            latencies.append(
                broadcast_schedule_length(g, backbone, nodes[0])
            )
        assert latencies[1] > latencies[0]

    def test_non_cds_backbone_detected(self, path5):
        with pytest.raises(ValueError):
            broadcast_schedule_length(path5, [1], 0)  # 3,4 unreachable

    def test_precomputed_slots_accepted(self, path5):
        slots = distance2_coloring(path5, [1, 2, 3])
        latency = broadcast_schedule_length(path5, [1, 2, 3], 0, slots=slots)
        assert latency >= 0
