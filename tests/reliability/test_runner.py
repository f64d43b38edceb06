"""run_cells: fault isolation, retries, timeouts, resume — the contract."""

import multiprocessing
import os
import pickle
import signal
import time
from contextlib import closing
from functools import partial

import pytest

from repro.durations import MAX_WAIT_SECONDS
from repro.experiments.parallel import (
    cell_key,
    merge_cell_counters,
    solve_cell,
    sweep_cells,
)
from repro.obs import OBS
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WorkerSet,
    run_cells,
)


@pytest.fixture(scope="module")
def pool():
    """A caller-owned 2-worker set, as the solve daemon keeps one: on
    the forkserver context and shared by the module's tests."""
    with closing(WorkerSet(2, context="forkserver")) as shared:
        shared.start()
        yield shared


def run_on(engine, request, worker, items, **kwargs):
    """``run_cells`` on one engine: ``inline``, ``isolated`` or ``pooled``
    (isolated, on the caller-owned set)."""
    if engine == "inline":
        return run_cells(worker, items, isolate=False, **kwargs)
    if engine == "pooled":
        pool = request.getfixturevalue("pool")
        return run_cells(worker, items, pool=pool, **kwargs)
    return run_cells(worker, items, jobs=2, **kwargs)


@pytest.fixture(autouse=True)
def _clean_default_registry():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def double(x):
    return x * 2


def fail_on_two(x):
    if x == 2:
        raise ZeroDivisionError("boom on two")
    return x


def fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x * 2


def sleep_on_two(x):
    if x == 2:
        time.sleep(5.0)
    return x


def my_pid(_x):
    return os.getpid()


def raise_with_pid(x):
    if x % 2:
        raise ValueError(f"pid {os.getpid()}")
    return os.getpid()


def unfit_on_request(x):
    """Ends its worker on request: ``kill`` exits silently, ``hang``
    sleeps past any test timeout, ``base`` raises a ``BaseException``."""
    if x == "kill":
        os._exit(3)
    if x == "hang":
        time.sleep(30.0)
    if x == "base":
        raise SystemExit(4)
    return os.getpid()


_FLAKY_CALLS = {"count": 0}


def flaky_twice(x):
    """Fails the first two calls, then succeeds (inline engine only)."""
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] <= 2:
        raise RuntimeError("transient")
    return x


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        for bad in (float("nan"), float("inf"), 1e300):
            with pytest.raises(ValueError, match="timeout"):
                RetryPolicy(timeout=bad)
            with pytest.raises(ValueError, match="backoff"):
                RetryPolicy(backoff=bad)

    def test_delay_schedule_is_deterministic_and_exponential(self):
        policy = RetryPolicy(retries=3, backoff=0.1, seed=5)
        d1, d2 = policy.delay("cell", 1), policy.delay("cell", 2)
        assert policy.delay("cell", 1) == d1  # replays exactly
        assert 0.05 <= d1 < 0.15  # base * jitter in [0.5, 1.5)
        assert 0.10 <= d2 < 0.30  # doubled
        assert policy.delay("other-cell", 1) != d1

    def test_delay_is_bounded_by_the_wait_limit(self):
        # Doubling per attempt outgrows any float: every delay stays a
        # value time.sleep accepts.
        policy = RetryPolicy(retries=5000, backoff=1e8)
        assert policy.delay("cell", 1) < MAX_WAIT_SECONDS
        assert policy.delay("cell", 10) == MAX_WAIT_SECONDS
        assert policy.delay("cell", 1100) == MAX_WAIT_SECONDS  # past float max
        assert policy.delay("cell", 5000) == MAX_WAIT_SECONDS  # int overflow

    def test_zero_backoff_means_no_delay(self):
        assert RetryPolicy(retries=2).delay("cell", 1) == 0.0


class TestIsolatedEngine:
    def test_results_in_input_order(self):
        report = run_cells(double, [3, 1, 2], jobs=2)
        assert report.ok
        assert report.results == [6, 2, 4]
        assert [o.attempts for o in report.outcomes] == [1, 1, 1]

    def test_empty_grid(self):
        report = run_cells(double, [])
        assert report.ok and report.outcomes == []

    @pytest.mark.parametrize("engine", ["isolated", "pooled"])
    def test_exception_fails_only_that_cell(self, engine, request):
        report = run_on(engine, request, fail_on_odd, [0, 1, 2, 3])
        assert not report.ok
        assert [o.ok for o in report.outcomes] == [True, False, True, False]
        assert report.results == [0, 4]
        (f1, f3) = report.failures
        assert f1.kind == "exception" and f1.error_type == "ValueError"
        assert "odd input 1" in f1.message
        assert "fail_on_odd" in f1.traceback  # worker-side traceback crossed
        assert "1 attempt(s)" in report.render_failures()

    def test_timeout_kills_overdue_worker(self):
        t0 = time.monotonic()
        report = run_cells(
            sleep_on_two, [1, 2, 3], jobs=3, policy=RetryPolicy(timeout=0.5)
        )
        assert time.monotonic() - t0 < 4.0  # did not wait out the sleep
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert report.failures[0].kind == "timeout"

    def test_kill_fault_recorded_as_crash(self):
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="kill"),))
        report = run_cells(_traced_boom, [1, 2], jobs=2, faults=plan)
        assert not report.ok
        assert {f.kind for f in report.failures} == {"crash"}
        assert {f.exitcode for f in report.failures} == {137}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell key"):
            run_cells(double, [1, 1])

    def test_retries_recover_scoped_faults(self):
        # The fault fires only on the first occurrence of the site per
        # attempt-injector, so a retried cell succeeds.
        plan = FaultPlan(
            specs=(FaultSpec(site="boom", action="raise", scope="*2*", max_fires=1),)
        )
        clean = run_cells(_traced_boom, [1, 2, 3], faults=None)
        report = run_cells(
            _traced_boom, [1, 2, 3], jobs=2, faults=plan, policy=RetryPolicy(retries=1)
        )
        # max_fires counts per injector and each attempt gets a fresh
        # injector, so the fault fires again: the cell stays failed but
        # the retry was attempted and counted.
        assert report.retries == 1
        assert report.outcomes[1].attempts == 2
        assert [o.result for o in report.outcomes if o.ok] == [
            o.result for o in clean.outcomes if o.item != 2
        ]


def _traced_boom(x):
    from repro.obs import OBS

    with OBS.time("boom"):
        return x * 10


class TestInlineEngine:
    @pytest.mark.parametrize("engine", ["inline", "pooled"])
    def test_matches_isolated_semantics(self, engine, request):
        isolated = run_cells(fail_on_odd, [0, 1, 2, 3], jobs=2)
        other = run_on(engine, request, fail_on_odd, [0, 1, 2, 3])
        assert [o.ok for o in other.outcomes] == [o.ok for o in isolated.outcomes]
        assert other.results == isolated.results
        assert [(f.key, f.kind, f.error_type, f.message) for f in other.failures] == [
            (f.key, f.kind, f.error_type, f.message) for f in isolated.failures
        ]

    def test_retry_until_success(self):
        _FLAKY_CALLS["count"] = 0
        report = run_cells(
            flaky_twice, [7], isolate=False, policy=RetryPolicy(retries=3)
        )
        assert report.ok and report.results == [7]
        assert report.retries == 2
        assert report.outcomes[0].attempts == 3

    def test_rejects_timeout_without_isolation(self):
        with pytest.raises(ValueError, match="isolate=True"):
            run_cells(double, [1], isolate=False, policy=RetryPolicy(timeout=1.0))

    def test_rejects_kill_plans_without_isolation(self):
        plan = FaultPlan(specs=(FaultSpec(site="*", action="kill"),))
        with pytest.raises(ValueError, match="isolate=True"):
            run_cells(double, [1], isolate=False, faults=plan)


class TestPooledEngine:
    """A caller-owned worker set honours what the isolated engine does,
    and keeps serving across calls after a worker is lost."""

    def test_timeout_replaces_the_worker(self, pool):
        report = run_cells(sleep_on_two, [1, 2, 3], pool=pool,
                           policy=RetryPolicy(timeout=1.0))
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert report.failures[0].kind == "timeout"
        assert run_cells(double, [1, 2, 3], pool=pool).results == [2, 4, 6]

    def test_kill_faults_crash_only_their_cell(self, pool):
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="kill", scope="*2*"),))
        report = run_cells(_traced_boom, [1, 2, 3], pool=pool, faults=plan)
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert (report.failures[0].kind, report.failures[0].exitcode) == ("crash", 137)
        assert report.results == [10, 30]

    def test_retries_rerun_on_the_pool(self, pool):
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="raise", scope="*2*"),))
        report = run_cells(_traced_boom, [1, 2, 3], pool=pool, faults=plan,
                           policy=RetryPolicy(retries=1))
        assert report.retries == 1
        assert report.outcomes[1].attempts == 2
        assert report.results == [10, 30]

    def test_rejects_isolate_false(self, pool):
        with pytest.raises(ValueError, match="isolate=True"):
            run_cells(double, [1], isolate=False, pool=pool)

    def test_raise_faults_fire_in_pool_workers(self, pool):
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="raise", scope="*2*"),))
        report = run_cells(_traced_boom, [1, 2, 3], pool=pool, faults=plan)
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert report.failures[0].error_type == "InjectedFault"
        assert report.results == [10, 30]

    def test_worker_death_mid_batch_fails_only_its_cell(self, pool):
        # A forkserver multiprocessing.Pool hangs a batch for good when
        # one of its workers dies; the worker set fails that one cell.
        batch = ["a", "kill", "b", "c"]
        report = run_cells(unfit_on_request, batch, pool=pool)
        assert [o.ok for o in report.outcomes] == [True, False, True, True]
        (failure,) = report.failures
        assert (failure.key, failure.kind, failure.exitcode) == ("'kill'", "crash", 3)
        following = run_cells(unfit_on_request, ["d", "e", "f"], pool=pool)
        assert following.ok and len(following.results) == 3


def _wait_until_exited(pid, timeout=10.0):
    """Block until every thread of process ``pid`` has exited, so its
    files are closed.  A forkserver worker has a native thread besides
    its main one (numpy's BLAS pool), which outlives the main thread."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            states = []
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                    states.append(fh.read().rsplit(")", 1)[1].split()[0])
        except FileNotFoundError:
            return  # reaped
        if all(state in ("Z", "X") for state in states):
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} still running")


class TestWorkerLifecycle:
    """Workers outlive their cells: an ``Exception`` keeps its worker,
    anything that leaves a worker unfit to serve replaces it."""

    def test_clean_sweep_runs_on_jobs_workers(self):
        report = run_cells(my_pid, list(range(24)), jobs=2)
        assert report.ok and len(set(report.results)) == 2

    def test_raising_cell_stays_on_its_worker(self):
        report = run_cells(raise_with_pid, [0, 1, 2, 3, 4], jobs=1)
        pids = {str(p) for p in report.results}
        pids |= {f.message.split()[-1] for f in report.failures}
        assert len(report.failures) == 2 and len(pids) == 1

    def test_unfit_workers_are_replaced(self):
        items = ["a", "kill", "b", "hang", "c", "base", "d"]
        report = run_cells(unfit_on_request, items, jobs=1,
                           policy=RetryPolicy(timeout=2.0))
        assert [o.ok for o in report.outcomes] == [
            True, False, True, False, True, False, True,
        ]
        assert [(f.kind, f.error_type) for f in report.failures] == [
            ("crash", "WorkerCrash"), ("timeout", "TimeoutError"),
            ("exception", "SystemExit"),
        ]
        assert len(set(report.results)) == 4  # a new worker after each

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    @pytest.mark.parametrize("context", ["fork", "forkserver"])
    def test_worker_killed_while_idle_costs_no_attempt(self, context):
        with closing(WorkerSet(1, context=context)) as workers:
            (first,) = run_cells(my_pid, [0], pool=workers).results
            os.kill(first, signal.SIGKILL)
            _wait_until_exited(first)
            report = run_cells(my_pid, [1, 2], pool=workers)
        assert report.ok and [o.attempts for o in report.outcomes] == [1, 1]
        assert first not in report.results

    @pytest.mark.parametrize("context", ["fork", "forkserver"])
    def test_dead_idle_worker_whose_send_lands_costs_no_attempt(self, context):
        # The dead worker's pipe is swapped for one whose far end stays
        # open, so the task sent to it lands instead of raising: only
        # the worker's exit tells the dispatcher it is gone.  A cell
        # sent there would wait out its timeout, charged as the cell's.
        with closing(WorkerSet(1, context=context)) as workers:
            (first,) = run_cells(my_pid, [0], pool=workers).results
            (proc, conn), = workers._idle
            os.kill(first, signal.SIGKILL)
            proc.join(10.0)
            conn.close()
            near, far = multiprocessing.Pipe()
            workers._idle[0] = (proc, near)
            with closing(far):
                report = run_cells(my_pid, [1, 2], pool=workers,
                                   policy=RetryPolicy(timeout=5.0))
        assert report.ok and [o.attempts for o in report.outcomes] == [1, 1]
        assert first not in report.results
        assert near.closed  # retired with its worker


GRID = sweep_cells([20, 30], [0, 1, 2, 3], side=None)

#: Raises in phase 2 of about half the cells, on every attempt.
RAISE_PLAN = FaultPlan(
    seed=3, specs=(FaultSpec(site="greedy.phase2", action="raise", rate=0.5),)
)


class TestEngineEquivalence:
    """The isolated engine at jobs=2 and the inline engine give the same
    sweep: results, merged counters, retries, failures and ledger."""

    @staticmethod
    def _sweep(tmp_path, name, faults, **kwargs):
        path = tmp_path / f"{name}.jsonl"
        report = run_cells(
            partial(solve_cell, algorithm="greedy", kernel=None, m=None),
            GRID, jobs=2, faults=faults, key_fn=cell_key,
            label="solve:greedy:auto", checkpoint=str(path),
            policy=RetryPolicy(retries=2) if faults else None, **kwargs,
        )
        return report, path.read_bytes().splitlines(keepends=True)

    @pytest.mark.parametrize("faults", [None, RAISE_PLAN], ids=["clean", "raise"])
    def test_isolated_matches_inline(self, tmp_path, faults):
        isolated, isolated_ledger = self._sweep(tmp_path, "isolated", faults)
        inline, inline_ledger = self._sweep(tmp_path, "inline", faults, isolate=False)
        assert isolated.results == inline.results
        assert merge_cell_counters(isolated.results) == merge_cell_counters(
            inline.results
        )
        assert (isolated.retries, isolated.failures) == (inline.retries, inline.failures)
        if faults is not None:
            assert isolated.failures and isolated.retries == 2 * len(isolated.failures)
        # Cells are journalled as they complete, so only the order of the
        # lines after the header may differ.
        assert isolated_ledger[0] == inline_ledger[0]
        assert sorted(isolated_ledger) == sorted(inline_ledger)


@pytest.mark.parametrize("engine", ["inline", "isolated", "pooled"])
class TestFailureContext:
    """A worker exception must name the failing cell, on every engine.

    The failing cell's outcome carries its input index and item, and
    its :class:`CellFailure` the exception type, message and the
    worker-side traceback — also after a pickle round-trip.
    """

    def test_outcome_names_the_failing_cell(self, engine, request):
        report = run_on(engine, request, fail_on_two, [1, 2, 3])
        (failed,) = [o for o in report.outcomes if not o.ok]
        assert failed.index == 1
        assert failed.item == 2 and repr(failed.item) == "2"
        assert failed.key == failed.failure.key == "2"
        assert report.results == [1, 3]

    def test_failure_carries_the_worker_error(self, engine, request):
        report = run_on(engine, request, fail_on_two, [1, 2, 3])
        (failure,) = report.failures
        assert failure.kind == "exception" and failure.attempts == 1
        assert failure.error_type == "ZeroDivisionError"
        assert failure.message == "boom on two"
        assert "fail_on_two" in failure.traceback

    def test_failure_survives_pickling_intact(self, engine, request):
        report = run_on(engine, request, fail_on_two, [1, 2, 3])
        outcome = report.outcomes[1]
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.failure == outcome.failure
        assert (clone.index, clone.item, clone.key) == (1, 2, "2")
        assert clone.failure.traceback == outcome.failure.traceback


class TestCheckpointIntegration:
    def test_journal_then_resume_runs_only_missing(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="raise", scope="*2*"),))
        first = run_cells(_traced_boom, [1, 2, 3], faults=plan, checkpoint=path)
        assert [o.ok for o in first.outcomes] == [True, False, True]
        resumed = run_cells(_traced_boom, [1, 2, 3], checkpoint=path, resume=True)
        assert resumed.ok
        assert resumed.results == [10, 20, 30]
        assert [o.resumed for o in resumed.outcomes] == [True, False, True]
        assert resumed.resumed == 2

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.jsonl")
        report = run_cells(double, [1, 2], checkpoint=path, resume=True)
        assert report.ok and report.resumed == 0

    def test_resume_wrong_grid_refused(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        run_cells(double, [1, 2], checkpoint=path)
        with pytest.raises(ValueError, match="does not match"):
            run_cells(double, [1, 2, 3], checkpoint=path, resume=True)

    def test_encode_decode_round_trip(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        run_cells(
            double, [1, 2], checkpoint=path,
            encode=lambda r: {"doubled": r},
        )
        resumed = run_cells(
            double, [1, 2], checkpoint=path, resume=True,
            decode=lambda payload: payload["doubled"],
        )
        assert resumed.results == [2, 4] and resumed.resumed == 2


class TestObsEmission:
    def test_counters_and_notes_when_enabled(self):
        from repro.obs.events import EventLog

        OBS.reset()
        OBS.enable()
        log = EventLog(OBS)
        OBS.add_hook(log)
        try:
            report = run_cells(
                fail_on_odd, [0, 1, 2, 3], isolate=False,
                policy=RetryPolicy(retries=1),
            )
        finally:
            OBS.remove_hook(log)
        counters = OBS.counters()
        assert counters["reliability.cells.completed"] == 2
        assert counters["reliability.failures"] == 2
        assert counters["reliability.failures.exception"] == 2
        assert counters["reliability.retries"] == 2
        notes = [e for e in log.events if e["type"] == "note"]
        assert {n["name"] for n in notes} == {
            "reliability.retry", "reliability.failure",
        }
        failure_notes = [n for n in notes if n["name"] == "reliability.failure"]
        assert {n["data"]["kind"] for n in failure_notes} == {"exception"}
        assert not report.ok

    def test_silent_when_disabled(self):
        run_cells(fail_on_odd, [0, 1], isolate=False)
        assert "reliability.failures" not in OBS.counters()

    def test_resumed_counter(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        run_cells(double, [1, 2], checkpoint=path)
        OBS.reset()
        OBS.enable()
        run_cells(double, [1, 2], checkpoint=path, resume=True)
        assert OBS.counters()["reliability.cells.resumed"] == 2
