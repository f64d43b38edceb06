"""The parallel sweep runner must be invisible in the results.

``jobs=N`` is only admissible because output is bit-identical to the
serial loop — same cells, same order, same numbers.  These tests pin
that on the sweep workers and the experiment runner (using the
cheapest registered experiments to keep the forked runs fast); the
map itself is :func:`repro.reliability.run_cells`, pinned in
``tests/reliability/test_runner.py``.
"""

import pytest

from repro.experiments.instances import default_side
from repro.experiments.parallel import (
    SweepCell,
    cell_key,
    merge_cell_counters,
    run_experiments_resilient,
    solve_cell,
    solve_cells_resilient,
    sweep_cells,
)




class TestSweepCells:
    def test_grid_is_n_major_and_deterministic(self):
        cells = sweep_cells([10, 20], [1, 2], side=5.0)
        assert cells == [
            SweepCell(10, 5.0, 1),
            SweepCell(10, 5.0, 2),
            SweepCell(20, 5.0, 1),
            SweepCell(20, 5.0, 2),
        ]

    def test_side_callable(self):
        cells = sweep_cells([4, 9], [0], side=lambda n: float(n) ** 0.5)
        assert [c.side for c in cells] == [2.0, 3.0]

    def test_side_default(self):
        (cell,) = sweep_cells([25], [7])
        assert cell.side == default_side(25)


class TestSolveCells:
    def test_solve_cell_shape(self):
        out = solve_cell(SweepCell(12, 3.0, 5), algorithm="greedy")
        assert out["n"] == 12 and out["seed"] == 5
        assert out["cds_size"] == out["dominators"] + out["connectors"]
        assert out["counters"]["mis.selected"] == out["dominators"]
        assert out["counters"]["gain.evaluations"] > 0

    @pytest.mark.parametrize("algorithm", ["greedy", "waf"])
    def test_parallel_results_identical_to_serial(self, algorithm):
        cells = sweep_cells([10, 14], [1, 2], side=3.2)
        serial = [solve_cell(c, algorithm=algorithm) for c in cells]
        report = solve_cells_resilient(cells, algorithm=algorithm, jobs=2)
        assert report.results == serial  # counters included, order included

    def test_cell_key_unique_per_grid(self):
        cells = sweep_cells([10, 14], [1, 2], side=3.2)
        assert len({cell_key(c) for c in cells}) == len(cells)

    def test_kernel_pinned_and_echoed(self):
        cell = SweepCell(12, 3.0, 5)
        auto = solve_cell(cell, algorithm="greedy")
        pinned = solve_cell(cell, algorithm="greedy", kernel="bitset")
        assert pinned["kernel"] == "bitset"
        assert "kernel" not in auto  # shape unchanged without pinning
        assert pinned["cds_size"] == auto["cds_size"]

    def test_kernel_rejected_for_unkernelized_solver(self):
        with pytest.raises(ValueError, match="does not take a kernel"):
            solve_cell(SweepCell(10, 3.0, 0), algorithm="steiner", kernel="bitset")

    def test_resilient_matches_plain_solve_cells(self):
        cells = sweep_cells([10, 14], [1, 2], side=3.2)
        plain = [solve_cell(c, algorithm="greedy") for c in cells]
        report = solve_cells_resilient(cells, algorithm="greedy", jobs=2)
        assert report.ok
        assert report.results == plain
        assert merge_cell_counters(report.results) == merge_cell_counters(plain)

    def test_merge_cell_counters_sums_and_sorts(self):
        merged = merge_cell_counters(
            [
                {"counters": {"b": 2, "a": 1}},
                {"counters": {"a": 3}},
                {},  # a summary without counters is fine
            ]
        )
        assert merged == {"a": 4, "b": 2}
        assert list(merged) == ["a", "b"]


def _results(report):
    """Decode a run_experiments_resilient report's ExperimentResults."""
    from repro.experiments.harness import ExperimentResult

    assert report.ok
    return [ExperimentResult.from_json_obj(p["result"]) for p in report.results]


class TestRunExperimentsParallel:
    """``run_experiments_resilient``: inline at jobs=1, forked at jobs=2."""

    CHEAP = ["F1F2", "T6"]

    def test_matches_serial_run(self):
        serial = _results(run_experiments_resilient(self.CHEAP, jobs=1))
        forked = _results(run_experiments_resilient(self.CHEAP, jobs=2))
        assert [r.experiment_id for r in forked] == [
            r.experiment_id for r in serial
        ]
        assert [r.render() for r in forked] == [r.render() for r in serial]
        assert all(r.passed for r in forked)

    def test_unknown_id_raises_before_forking(self):
        with pytest.raises(KeyError):
            run_experiments_resilient(["NOPE"], jobs=2)


class TestCollectObs:
    """collect_obs=True: instrumentation crosses the process boundary."""

    CHEAP = ["F1F2", "T6"]

    @staticmethod
    def merge(report):
        from repro.obs import Registry

        reg = Registry()
        for payload in report.results:
            reg.merge_state(payload["state"])
        return reg

    def test_triples_returned_and_results_match_plain_run(self):
        plain = _results(run_experiments_resilient(self.CHEAP, jobs=1))
        report = run_experiments_resilient(self.CHEAP, jobs=2, collect_obs=True)
        assert [r.render() for r in _results(report)] == [
            r.render() for r in plain
        ]
        for payload in report.results:
            assert set(payload["state"]) == {"counters", "timers"}
            assert "events" not in payload  # collect_events was off

    def test_merged_parallel_counters_equal_serial(self):
        serial = run_experiments_resilient(self.CHEAP, jobs=1, collect_obs=True)
        forked = run_experiments_resilient(self.CHEAP, jobs=2, collect_obs=True)
        assert self.merge(forked).counters() == self.merge(serial).counters()
        # Timer counts (span executions) must agree too; totals are
        # wall-clock and thus machine noise.
        serial_timers = self.merge(serial).timings()
        forked_timers = self.merge(forked).timings()
        assert {
            name: t["count"] for name, t in forked_timers.items()
        } == {name: t["count"] for name, t in serial_timers.items()}

    def test_collect_events_returns_per_worker_logs(self):
        from repro.obs.events import merge_events, replay, validate_events

        report = run_experiments_resilient(
            self.CHEAP, jobs=2, collect_obs=True, collect_events=True
        )
        logs = [payload["events"] for payload in report.results]
        assert all(logs)
        for index, log in enumerate(logs):
            assert log[0]["run"] == f"worker-{index}"
            assert validate_events(log) == []
        merged = merge_events(logs)
        assert validate_events(merged) == []
        roots = replay(merged)
        root_names = {(r.name, r.worker) for r in roots}
        assert ("experiment.F1F2", 0) in root_names
        assert ("experiment.T6", 1) in root_names

    def test_mem_trace_collects_peak_counters(self):
        report = run_experiments_resilient(
            ["F1F2"], jobs=1, collect_obs=True, mem_trace=True
        )
        reg = self.merge(report)
        counters = reg.counters()
        assert counters["mem.run.peak_bytes"] > 0
        assert counters["mem.experiment.F1F2.peak_bytes"] > 0

    def test_inline_run_keeps_the_callers_registry(self):
        # Under the inline engine the worker captures into the shared
        # registry; what the caller had recorded must survive it.
        from repro.obs import OBS

        with OBS.capture():
            OBS.incr("caller.mark", 3)
            report = run_experiments_resilient(["F1F2"], collect_obs=True)
            counters, timers = OBS.counters(), OBS.timers()
        OBS.reset()
        assert counters == {"caller.mark": 3, "reliability.cells.completed": 1}
        assert "experiment.F1F2" not in timers
        assert "experiment.F1F2" in report.results[0]["state"]["timers"]
