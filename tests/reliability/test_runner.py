"""run_cells: fault isolation, retries, timeouts, resume — the contract."""

import multiprocessing
import pickle
import time

import pytest

from repro.obs import OBS
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_cells,
)


@pytest.fixture(scope="module")
def pool():
    """A 2-worker pool for the pooled engine, shared by the module."""
    with multiprocessing.get_context("spawn").Pool(2) as shared:
        yield shared


def run_on(engine, request, worker, items, **kwargs):
    """``run_cells`` on one engine: ``inline``, ``isolated`` or ``pooled``."""
    if engine == "inline":
        return run_cells(worker, items, isolate=False, **kwargs)
    if engine == "pooled":
        pool = request.getfixturevalue("pool")
        return run_cells(worker, items, isolate=False, pool=pool, **kwargs)
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

    def test_delay_schedule_is_deterministic_and_exponential(self):
        policy = RetryPolicy(retries=3, backoff=0.1, seed=5)
        d1, d2 = policy.delay("cell", 1), policy.delay("cell", 2)
        assert policy.delay("cell", 1) == d1  # replays exactly
        assert 0.05 <= d1 < 0.15  # base * jitter in [0.5, 1.5)
        assert 0.10 <= d2 < 0.30  # doubled
        assert policy.delay("other-cell", 1) != d1

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
    """The pooled engine rejects what a shared pool cannot honour."""

    def test_rejects_timeout(self, pool):
        with pytest.raises(ValueError, match="timeouts"):
            run_cells(double, [1], isolate=False, pool=pool,
                      policy=RetryPolicy(timeout=1.0))

    def test_rejects_kill_plans(self, pool):
        plan = FaultPlan(specs=(FaultSpec(site="*", action="kill"),))
        with pytest.raises(ValueError, match="kill-action"):
            run_cells(double, [1], isolate=False, pool=pool, faults=plan)

    def test_rejects_retries(self, pool):
        with pytest.raises(ValueError, match="retries"):
            run_cells(double, [1], isolate=False, pool=pool,
                      policy=RetryPolicy(retries=1))

    def test_rejects_isolation(self, pool):
        with pytest.raises(ValueError, match="isolate=False"):
            run_cells(double, [1], pool=pool)

    def test_raise_faults_fire_in_pool_workers(self, pool):
        plan = FaultPlan(specs=(FaultSpec(site="boom", action="raise", scope="*2*"),))
        report = run_cells(_traced_boom, [1, 2, 3], isolate=False, pool=pool,
                           faults=plan)
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert report.failures[0].error_type == "InjectedFault"
        assert report.results == [10, 30]


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
