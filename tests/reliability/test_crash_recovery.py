"""Crash recovery end-to-end: kill workers mid-sweep, resume, compare.

The reliability layer's headline guarantee: a sweep whose workers are
killed outright (``os._exit`` at a trace site — indistinguishable from
``kill -9``) and then resumed from its checkpoint produces results
*and* merged obs counters bit-identical to an uninterrupted serial
run.  These are the paper-table stakes: an interrupted experiment
must never change the numbers.
"""

import pytest

from repro.experiments.parallel import (
    merge_cell_counters,
    solve_cell,
    solve_cells_resilient,
    sweep_cells,
)
from repro.obs import OBS
from repro.reliability import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _clean_default_registry():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


GRID = sweep_cells([10, 14], [0, 1], side=3.2)

#: Kills the worker inside greedy's phase 2 for every seed-1 cell —
#: half the grid dies mid-computation, after partial work.
KILL_PLAN = FaultPlan(
    specs=(FaultSpec(site="greedy.phase2", action="kill", scope="*seed=1*"),)
)


class TestCrashRecovery:
    def test_killed_sweep_resumes_bit_identical(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")

        # The ground truth: uninterrupted, serial, no reliability layer.
        serial = [solve_cell(c, algorithm="greedy") for c in GRID]

        # Interrupted run: two cells die mid-phase-2 (hard os._exit,
        # no cleanup), the other two complete and are journalled.
        crashed = solve_cells_resilient(
            GRID, algorithm="greedy", jobs=2,
            faults=KILL_PLAN, checkpoint=path,
        )
        assert not crashed.ok
        assert {f.kind for f in crashed.failures} == {"crash"}
        assert {f.exitcode for f in crashed.failures} == {137}
        assert [o.ok for o in crashed.outcomes] == [True, False, True, False]

        # Resume without the faults: only the two dead cells re-run.
        resumed = solve_cells_resilient(
            GRID, algorithm="greedy", jobs=2, checkpoint=path, resume=True,
        )
        assert resumed.ok
        assert resumed.resumed == 2

        # Results bit-identical to the uninterrupted serial sweep —
        # including each cell's full counter dict.
        assert resumed.results == serial

        # And the merged obs counters of the whole sweep agree exactly.
        assert merge_cell_counters(resumed.results) == merge_cell_counters(serial)

    def test_double_interruption_still_converges(self, tmp_path):
        """Kill → resume with kills still active → resume clean."""
        path = str(tmp_path / "sweep.jsonl")
        serial = [solve_cell(c, algorithm="greedy") for c in GRID]

        first = solve_cells_resilient(
            GRID, algorithm="greedy", jobs=2, faults=KILL_PLAN, checkpoint=path,
        )
        assert not first.ok
        # Second run resumes *and* still injects: the dead cells die
        # again deterministically, the completed ones are not re-run.
        second = solve_cells_resilient(
            GRID, algorithm="greedy", jobs=2,
            faults=KILL_PLAN, checkpoint=path, resume=True,
        )
        assert not second.ok
        assert second.resumed == 2
        assert [o.ok for o in second.outcomes] == [o.ok for o in first.outcomes]

        final = solve_cells_resilient(
            GRID, algorithm="greedy", jobs=1, checkpoint=path, resume=True,
        )
        assert final.ok
        assert final.results == serial
        assert merge_cell_counters(final.results) == merge_cell_counters(serial)

    def test_jobs_width_invisible_in_resumed_results(self, tmp_path):
        serial = [solve_cell(c, algorithm="greedy") for c in GRID]
        for jobs in (1, 3):
            path = str(tmp_path / f"sweep-{jobs}.jsonl")
            solve_cells_resilient(
                GRID, algorithm="greedy", jobs=jobs,
                faults=KILL_PLAN, checkpoint=path,
            )
            resumed = solve_cells_resilient(
                GRID, algorithm="greedy", jobs=jobs, checkpoint=path, resume=True,
            )
            assert resumed.results == serial
