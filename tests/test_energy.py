"""Tests for energy accounting and backbone rotation."""

import pytest

from repro.energy import EnergyModel, simulate_epochs
from repro.graphs import random_connected_udg


class TestEnergyModel:
    def test_initial_uniform(self, path5):
        model = EnergyModel(path5, initial=50.0)
        assert all(c == 50.0 for c in model.charge.values())

    def test_initial_mapping(self, path5):
        model = EnergyModel(path5, initial={v: 10.0 + v for v in path5.nodes()})
        assert model.charge[3] == 13.0

    def test_spend_epoch_charges_duty(self, path5):
        model = EnergyModel(path5, initial=10.0, relay_cost=2.0, idle_cost=1.0)
        model.spend_epoch([1, 2])
        assert model.charge[1] == 7.0  # idle + relay
        assert model.charge[0] == 9.0  # idle only
        assert model.epochs == 1

    def test_alive_filtering(self, path5):
        model = EnergyModel(path5, initial=1.5, relay_cost=1.0, idle_cost=1.0)
        model.spend_epoch([0])
        assert 0 not in model.alive()
        assert 1 in model.alive()
        assert not model.all_alive()

    def test_weights_inverse(self, path5):
        model = EnergyModel(path5, initial=10.0)
        model.spend_epoch([0])
        weights = model.weights()
        assert weights[0] > weights[1]

    def test_invalid_args(self, path5):
        with pytest.raises(ValueError):
            EnergyModel(path5, initial=0.0)
        with pytest.raises(ValueError):
            EnergyModel(path5, relay_cost=-1.0)


class TestSimulateEpochs:
    @pytest.fixture(scope="class")
    def topology(self):
        return random_connected_udg(30, 4.6, seed=5)[1]

    def test_policies_run_and_report(self, topology):
        for policy in ("static", "rotate", "minimal"):
            report = simulate_epochs(
                topology, policy=policy, epochs=10, initial=100.0
            )
            assert report.policy == policy
            assert 0 <= report.epochs_survived <= 10
            assert report.backbone_sizes

    def test_rotation_extends_lifetime(self):
        # Dense topology: enough alternative backbones to rotate through.
        # (In sparse graphs a cut-vertex sits in *every* CDS, capping the
        # lifetime regardless of policy.)
        dense = random_connected_udg(30, 2.8, seed=5)[1]
        static = simulate_epochs(
            dense, policy="static", epochs=120, initial=60.0, relay_cost=5.0
        )
        rotate = simulate_epochs(
            dense, policy="rotate", epochs=120, initial=60.0, relay_cost=5.0
        )
        # The headline claim of rotation: strictly longer lifetime than
        # a static backbone under relay pressure.
        assert rotate.epochs_survived > static.epochs_survived

    def test_rotation_spreads_duty(self, topology):
        static = simulate_epochs(topology, policy="static", epochs=20, initial=200.0)
        rotate = simulate_epochs(topology, policy="rotate", epochs=20, initial=200.0)
        assert rotate.distinct_backbone_nodes > static.distinct_backbone_nodes

    def test_unknown_policy(self, topology):
        with pytest.raises(ValueError):
            simulate_epochs(topology, policy="chaos")

    def test_static_backbone_constant(self, topology):
        report = simulate_epochs(topology, policy="static", epochs=8, initial=500.0)
        assert len(set(report.backbone_sizes)) == 1
