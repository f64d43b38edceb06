"""Tests for store-and-forward traffic over the backbone."""

import random

import pytest

from repro.cds import greedy_connector_cds
from repro.distributed.traffic import run_traffic


def labeled(fixture):
    from repro.experiments.instances import int_labeled

    _, graph = fixture
    return int_labeled(graph)


class TestRunTraffic:
    def test_single_flow_delivered(self, path5):
        stats = run_traffic(path5, [1, 2, 3], [(0, 4)])
        assert stats.all_delivered
        assert stats.total == 1
        # 4 hops, one per round.
        assert stats.max_delay == 4

    def test_all_random_flows_delivered(self, udg_suite):
        for _, graph in udg_suite[:4]:
            from repro.experiments.instances import int_labeled

            g = int_labeled(graph)
            backbone = greedy_connector_cds(g).nodes
            rng = random.Random(1)
            nodes = sorted(g.nodes())
            flows = [tuple(rng.sample(nodes, 2)) for _ in range(12)]
            stats = run_traffic(g, backbone, flows)
            assert stats.all_delivered
            assert stats.mean_delay >= 1.0

    def test_contention_queues_packets(self, path5):
        # Many flows through the same relay chain: queues must form.
        flows = [(0, 4), (0, 4), (0, 4), (4, 0)]
        stats = run_traffic(path5, [1, 2, 3], flows)
        assert stats.all_delivered
        assert stats.max_queue >= 2
        # Serialized at the source: later packets take longer.
        assert stats.max_delay > 4

    def test_self_flows_ignored(self, path5):
        stats = run_traffic(path5, [1, 2, 3], [(2, 2)])
        assert stats.total == 0
        assert stats.all_delivered

    def test_adjacent_flow_one_round(self, path5):
        stats = run_traffic(path5, [1, 2, 3], [(0, 1)])
        assert stats.all_delivered
        assert stats.max_delay == 1

    def test_invalid_backbone_rejected(self, path5):
        with pytest.raises(ValueError):
            run_traffic(path5, [0, 1], [(0, 4)])

    def test_transmissions_equal_hops(self, path5):
        stats = run_traffic(path5, [1, 2, 3], [(0, 4)])
        # One transmission per hop of the single packet.
        assert stats.metrics.transmissions == 4

    def test_empty_flows(self, path5):
        stats = run_traffic(path5, [1, 2, 3], [])
        assert stats.total == 0 and stats.all_delivered
