"""Bench DIST — distributed pipelines: message and time complexity.

Asserts the structural counts of [10]'s phases (MIS = 2n transmissions,
BFS tree = n) and times the full pipelines — plus the batched-vs-
reference engine comparison and the MIS priority variants on a
1000-node fixture (the ``sim_*`` rows of ``check_counters.py`` gate the
same pipelines' counters at 10^4; historical timings up to 10^5:
BENCH_pr8.json).
"""

import pytest

from repro.distributed import (
    RadioTopology,
    Simulator,
    build_bfs_tree,
    distributed_greedy_cds,
    distributed_waf_cds,
    elect_leader,
    elect_mis,
)
from repro.distributed import engine as engine_module
from repro.experiments import get_experiment
from repro.experiments.instances import int_labeled
from repro.graphs import random_connected_udg


def make_graph(n, side, seed):
    _, graph = random_connected_udg(n, side, seed=seed)
    return int_labeled(graph)


def test_distributed_waf_pipeline(benchmark):
    g = make_graph(40, 5.0, 1)
    result, metrics = benchmark(distributed_waf_cds, g)
    assert result.is_valid(g)
    assert metrics.transmissions > 0


def test_distributed_greedy_pipeline(benchmark):
    g = make_graph(40, 5.0, 1)
    result, _ = benchmark(distributed_greedy_cds, g)
    assert result.is_valid(g)


def test_mis_phase_message_optimality(benchmark):
    g = make_graph(50, 5.5, 2)
    leader, _ = elect_leader(g)
    tree, tree_metrics = build_bfs_tree(g, leader)
    assert tree_metrics.transmissions == len(g)

    def mis_phase():
        return elect_mis(g, tree)

    _, metrics = benchmark(mis_phase)
    assert metrics.transmissions == 2 * len(g)


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_mis_engine_comparison(benchmark, monkeypatch, engine):
    """The PR 8 tentpole on one mid-size fixture: identical metrics,
    different wall clock.  The reference oracle is reached by swapping
    it in for the batched class that ``make_simulator`` builds."""
    if engine == "reference":
        monkeypatch.setattr(engine_module, "BatchedSimulator", Simulator)
    g = make_graph(1000, 18.0, 4)
    topo = RadioTopology(g)
    tree, _ = build_bfs_tree(g, 0, topology=topo)

    def mis_phase():
        return elect_mis(g, tree, topology=topo)

    mis, metrics = benchmark(mis_phase)
    assert metrics.transmissions == 2 * len(g)
    assert len(mis) > 0


@pytest.mark.parametrize("priority", ["bfs-rank", "degree"])
def test_mis_priority_variants(benchmark, priority):
    g = make_graph(1000, 18.0, 4)
    topo = RadioTopology(g)
    tree, _ = build_bfs_tree(g, 0, topology=topo)

    def mis_phase():
        return elect_mis(g, tree, priority=priority, topology=topo)

    mis, metrics = benchmark(mis_phase)
    assert metrics.transmissions == 2 * len(g)


def test_dist_experiment_shape(benchmark):
    result = benchmark.pedantic(
        lambda: get_experiment("DIST")(sizes=(10, 16)),
        rounds=1,
        iterations=1,
    )
    assert result.passed
