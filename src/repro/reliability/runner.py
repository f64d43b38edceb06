"""Fault-isolated, resumable execution of sweep cells.

:func:`run_cells` is the one way this package maps a worker over
cells: ``worker(item)`` over a sequence, results in input order, built
for the failure-as-normal-case regime the studied protocols live in:

* **Fault isolation.**  Each cell runs in its own forked process (one
  process per attempt, never a shared pool), so an exception, a hang,
  or an outright ``kill -9`` of one cell cannot take down the sweep.
  A cell that cannot produce a result yields a structured
  :class:`~repro.reliability.failures.CellFailure` in its slot instead
  of crashing the run.
* **Per-cell timeouts.**  ``RetryPolicy.timeout`` bounds each
  attempt's wall clock; an overdue worker is terminated (SIGTERM, then
  SIGKILL) and recorded as a ``timeout`` failure or retried.
* **Deterministic retries.**  Bounded attempts with exponential
  backoff whose jitter is seeded per ``(cell, attempt)`` — rerunning a
  flaky sweep replays the identical retry schedule.
* **Checkpoint/resume.**  With ``checkpoint=...`` every completed cell
  is journalled (see :mod:`repro.reliability.checkpoint`);
  ``resume=True`` loads the ledger, re-runs only the missing cells and
  returns outcomes indistinguishable from an uninterrupted run.
* **Observability.**  Progress is reported through the existing
  :mod:`repro.obs` layer when the parent registry is enabled:
  ``reliability.*`` counters (``retries``, ``failures``,
  ``failures.<kind>``, ``cells.completed``, ``cells.resumed``) and
  structured ``note`` events on every retry and terminal failure.

Two lighter engines share the same failure records:

* the in-process engine (``isolate=False``), for cheap workers and
  unit tests: same retry/failure semantics minus timeouts and kill
  survival (both need a process boundary, and the engine raises if
  asked for them without one);
* the pooled engine (``isolate=False, pool=p``), for a long-lived
  caller that owns a ``multiprocessing`` pool (the solve daemon): one
  ``p.map`` over the cells, a worker exception becomes that cell's
  ``exception`` failure, and no batchmate runs again.  It honours no
  timeouts, kill-action fault plans or retries, and raises if asked.

Every engine runs an attempt through the one :func:`_attempt`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as _traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing import connection as _mpc
from typing import Any, Callable, Sequence

from ..obs import OBS
from .checkpoint import CheckpointWriter, grid_fingerprint, read_checkpoint
from .failures import CellFailure
from .faults import FaultPlan, det_unit

__all__ = [
    "RetryPolicy",
    "CellOutcome",
    "SweepReport",
    "run_cells",
]

#: How long the parent waits on worker pipes per scheduling tick —
#: bounds timeout-detection latency without busy-waiting.
_POLL_SECONDS = 0.02

#: Grace period between SIGTERM and SIGKILL for an overdue worker.
_TERM_GRACE_SECONDS = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry behaviour for one sweep.

    Attributes:
        retries: extra attempts after the first (0 = fail fast).
        timeout: per-attempt wall-clock budget in seconds (``None`` =
            unbounded; requires process isolation).
        backoff: base delay before attempt ``k+1``, scaled by
            ``2**(k-1)`` and a deterministic jitter in ``[0.5, 1.5)``
            seeded per ``(seed, cell key, attempt)`` — reruns sleep the
            exact same schedule.
        seed: the jitter seed.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-running ``key`` after ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        jitter = 0.5 + det_unit(self.seed, key, attempt)
        return self.backoff * (2 ** (attempt - 1)) * jitter


@dataclass
class CellOutcome:
    """One cell's final state: exactly one of ``result`` / ``failure``.

    ``attempts`` counts every attempt made (including a resumed cell's
    historical attempts, read back from the ledger); ``resumed`` marks
    outcomes restored from a checkpoint rather than computed now.
    """

    index: int
    item: Any
    key: str
    attempts: int = 0
    result: Any = None
    failure: CellFailure | None = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class SweepReport:
    """Everything :func:`run_cells` learned, in input order."""

    outcomes: list[CellOutcome]
    label: str
    fingerprint: str
    retries: int = 0

    @property
    def results(self) -> list:
        """Completed results in input order (failed cells omitted)."""
        return [o.result for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[CellFailure]:
        return [o.failure for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def render_failures(self) -> str:
        """A plain-text failure report (empty string when clean)."""
        if self.ok:
            return ""
        lines = [f"{len(self.failures)} of {len(self.outcomes)} cell(s) failed:"]
        lines += [f"  - {f.describe()}" for f in self.failures]
        return "\n".join(lines)


# -- obs emission -----------------------------------------------------

def _emit_retry(key: str, attempt: int, failure: CellFailure) -> None:
    if not OBS.enabled:
        return
    OBS.incr("reliability.retries")
    OBS.note(
        "reliability.retry",
        {"cell": key, "attempt": attempt, "kind": failure.kind,
         "error": failure.error_type},
    )


def _emit_failure(failure: CellFailure) -> None:
    if not OBS.enabled:
        return
    OBS.incr("reliability.failures")
    OBS.incr(f"reliability.failures.{failure.kind}")
    OBS.note(
        "reliability.failure",
        {"cell": failure.key, "kind": failure.kind,
         "attempts": failure.attempts, "error": failure.error_type,
         "message": failure.message},
    )


def _emit_completed(count: int = 1) -> None:
    if OBS.enabled and count:
        OBS.incr("reliability.cells.completed", count)


def _emit_resumed(count: int) -> None:
    if OBS.enabled and count:
        OBS.incr("reliability.cells.resumed", count)


# -- one attempt, shared by every engine ------------------------------

def _error(exc: BaseException) -> tuple:
    """The wire form of a worker exception: type name, message, traceback."""
    return (
        "error",
        type(exc).__name__,
        str(exc),
        "".join(_traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )


def _attempt(worker, plan: FaultPlan | None, cell: tuple[Any, str]) -> tuple:
    """Run one attempt at one ``(item, key)`` cell.

    Returns ``("ok", result)`` or ``("error", type, message,
    traceback)``; worker ``Exception``s are caught, ``KeyboardInterrupt``
    et al. propagate.  With a fault plan, a fresh injector scoped to the
    cell key is attached to the (enabled) process-local registry for
    this attempt only, so every ``trace()`` site inside the cell is a
    potential fault point and fault decisions are the same under every
    engine.
    """
    item, key = cell
    injector = None
    if plan is not None:
        injector = plan.injector(scope=key)
        prev_enabled = OBS.enabled
        OBS.enable()
        OBS.add_hook(injector)
    try:
        return ("ok", worker(item))
    except Exception as exc:  # noqa: BLE001 - reported, not suppressed
        return _error(exc)
    finally:
        if injector is not None:
            OBS.remove_hook(injector)
            OBS.enabled = prev_enabled


def _exception_failure(key: str, attempts: int, message: tuple) -> CellFailure:
    """The :class:`CellFailure` of an :func:`_attempt` error message."""
    _, error_type, text, tb = message
    return CellFailure(
        key=key, kind="exception", attempts=attempts,
        error_type=error_type, message=text, traceback=tb,
    )


# -- the isolated engine ----------------------------------------------

def _child_main(conn, worker, item, plan: FaultPlan | None, key: str) -> None:
    """Worker-process entry: run one attempt, report over the pipe.

    A ``kill`` fault exits inside the attempt without ever reaching the
    ``send`` — the parent sees a silent death, exactly like a real
    crash.  Anything else that escapes (a ``BaseException`` from the
    worker, an unpicklable result) is reported as an error.
    """
    try:
        conn.send(_attempt(worker, plan, (item, key)))
    except BaseException as exc:  # noqa: BLE001 - reported, not suppressed
        try:
            conn.send(_error(exc))
        except Exception:
            pass  # parent will classify the silent death as a crash
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _Attempt:
    index: int
    item: Any
    key: str
    attempt: int
    proc: Any = None
    conn: Any = None
    deadline: float | None = None


class _IsolatedEngine:
    """Process-per-attempt scheduler: spawn, watch, reap, retry.

    At most ``jobs`` workers run at once; completions are handled as
    they arrive (``multiprocessing.connection.wait``), deadlines are
    checked every tick, and retry backoff is honoured without blocking
    the loop.  Output slots are keyed by input index so ordering never
    depends on scheduling.
    """

    def __init__(self, worker, jobs: int, policy: RetryPolicy,
                 plan: FaultPlan | None, on_done, on_failed):
        self.worker = worker
        self.jobs = max(1, jobs)
        self.policy = policy
        self.plan = plan
        self.on_done = on_done          # (index, item, key, attempts, result)
        self.on_failed = on_failed      # (index, item, key, failure)
        self.retries = 0
        self._ctx = multiprocessing.get_context()

    def run(self, tasks: Sequence[tuple[int, Any, str]]) -> None:
        pending: list[tuple[float, int, Any, str, int]] = [
            (0.0, index, item, key, 1) for index, item, key in tasks
        ]
        pending.reverse()  # pop() from the end keeps input order
        running: dict[Any, _Attempt] = {}
        try:
            while pending or running:
                now = time.monotonic()
                self._spawn_ready(pending, running, now)
                if not running:
                    # Only backoff-delayed work left: sleep to the
                    # earliest ready time.
                    wake = min(entry[0] for entry in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 0.25)))
                    continue
                self._reap(pending, running)
        finally:
            for attempt in running.values():
                _terminate(attempt.proc)
                _close(attempt.conn)

    # -- scheduling ---------------------------------------------------

    def _spawn_ready(self, pending, running, now) -> None:
        # Scan from the end (input order); skip entries still backing off.
        i = len(pending) - 1
        while i >= 0 and len(running) < self.jobs:
            ready_at, index, item, key, attempt = pending[i]
            if ready_at <= now:
                pending.pop(i)
                self._spawn(running, index, item, key, attempt)
            i -= 1

    def _spawn(self, running, index, item, key, attempt) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn, self.worker, item, self.plan, key),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None
            else None
        )
        running[parent_conn] = _Attempt(
            index=index, item=item, key=key, attempt=attempt,
            proc=proc, conn=parent_conn, deadline=deadline,
        )

    # -- completion / failure handling --------------------------------

    def _reap(self, pending, running) -> None:
        ready = _mpc.wait(list(running), timeout=_POLL_SECONDS)
        for conn in ready:
            attempt = running.pop(conn)
            message = None
            try:
                if conn.poll():
                    message = conn.recv()
            except (EOFError, OSError):
                message = None
            _join(attempt.proc)
            _close(conn)
            if message is not None and message[0] == "ok":
                self.on_done(
                    attempt.index, attempt.item, attempt.key,
                    attempt.attempt, message[1],
                )
            elif message is not None:
                self._retry_or_fail(
                    pending, attempt,
                    _exception_failure(attempt.key, attempt.attempt, message),
                )
            else:
                exitcode = attempt.proc.exitcode
                self._failed(
                    pending, attempt, kind="crash", error_type="WorkerCrash",
                    message=(
                        f"worker died without reporting "
                        f"(exitcode {exitcode})"
                    ),
                    exitcode=exitcode,
                )
        if self.policy.timeout is None:
            return
        now = time.monotonic()
        for conn in [c for c, a in running.items() if a.deadline is not None
                     and a.deadline <= now]:
            attempt = running.pop(conn)
            _terminate(attempt.proc)
            _close(conn)
            self._failed(
                pending, attempt, kind="timeout", error_type="TimeoutError",
                message=(
                    f"cell exceeded the per-attempt timeout of "
                    f"{self.policy.timeout}s"
                ),
            )

    def _failed(self, pending, attempt: _Attempt, *, kind: str,
                error_type: str, message: str,
                exitcode: int | None = None) -> None:
        self._retry_or_fail(pending, attempt, CellFailure(
            key=attempt.key, kind=kind, attempts=attempt.attempt,
            error_type=error_type, message=message, exitcode=exitcode,
        ))

    def _retry_or_fail(self, pending, attempt: _Attempt,
                       failure: CellFailure) -> None:
        if attempt.attempt <= self.policy.retries:
            self.retries += 1
            _emit_retry(attempt.key, attempt.attempt, failure)
            ready_at = time.monotonic() + self.policy.delay(
                attempt.key, attempt.attempt
            )
            pending.append(
                (ready_at, attempt.index, attempt.item, attempt.key,
                 attempt.attempt + 1)
            )
        else:
            self.on_failed(attempt.index, attempt.item, attempt.key, failure)


def _close(conn) -> None:
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _join(proc, timeout: float = 10.0) -> None:
    proc.join(timeout)
    if proc.is_alive():  # pragma: no cover - defensive
        _terminate(proc)


def _terminate(proc) -> None:
    if proc is None or not proc.is_alive():
        return
    proc.terminate()
    proc.join(_TERM_GRACE_SECONDS)
    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
        proc.kill()
        proc.join()


# -- the in-process engine --------------------------------------------

def _run_inline(worker, tasks, policy: RetryPolicy,
                plan: FaultPlan | None, on_done, on_failed) -> int:
    """Same semantics as the isolated engine, minus the process wall."""
    retries = 0
    for index, item, key in tasks:
        attempt = 1
        while True:
            message = _attempt(worker, plan, (item, key))
            if message[0] == "ok":
                on_done(index, item, key, attempt, message[1])
                break
            failure = _exception_failure(key, attempt, message)
            if attempt > policy.retries:
                on_failed(index, item, key, failure)
                break
            retries += 1
            _emit_retry(key, attempt, failure)
            delay = policy.delay(key, attempt)
            if delay:
                time.sleep(delay)
            attempt += 1
    return retries


# -- the pooled engine ------------------------------------------------

def _run_pooled(pool, worker, tasks, plan: FaultPlan | None,
                on_done, on_failed) -> None:
    """One ``pool.map`` over the cells; a failure stays in its slot."""
    messages = pool.map(
        partial(_attempt, worker, plan), [(item, key) for _, item, key in tasks]
    )
    for (index, item, key), message in zip(tasks, messages):
        if message[0] == "ok":
            on_done(index, item, key, 1, message[1])
        else:
            on_failed(index, item, key, _exception_failure(key, 1, message))


# -- the public entry point -------------------------------------------

def run_cells(
    worker: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
    label: str = "sweep",
    key_fn: Callable[[Any], str] = repr,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    isolate: bool = True,
    pool=None,
) -> SweepReport:
    """Run ``worker`` over ``items`` with fault isolation and resume.

    Args:
        worker: a picklable callable (module-level function or a
            :func:`functools.partial` of one) when ``isolate=True`` or
            a ``pool`` is given; any callable otherwise.
        items: the sweep grid, in the order results should come back.
        jobs: maximum concurrently-running cells.
        policy: retry/timeout behaviour (default: no retries, no
            timeout).
        faults: a :class:`~repro.reliability.faults.FaultPlan` to
            install in every cell (chaos testing).
        checkpoint: path of the JSONL ledger to journal progress into.
        resume: load ``checkpoint`` first and run only missing cells;
            when the file does not exist a fresh ledger is started.
        label: sweep identity string, pinned (with the cell keys) into
            the ledger fingerprint.
        key_fn: stable unique string key per item (default ``repr``).
        encode: item result -> JSON-ready payload for the ledger
            (default: identity — results must already be JSON-ready
            when checkpointing).
        decode: inverse of ``encode``, applied to ledger payloads when
            resuming (default: identity).
        isolate: run each attempt in its own forked process.  Required
            for ``policy.timeout`` and kill-action fault plans; the
            default everywhere the CLI is involved.
        pool: a caller-owned ``multiprocessing`` pool to map the cells
            on, with ``isolate=False``; the pool's size, not ``jobs``,
            sets the parallelism.  No timeouts, kill-action fault plans
            or retries.

    Returns:
        A :class:`SweepReport` whose ``outcomes`` align 1:1 with
        ``items``; each outcome holds exactly one of ``result`` or
        ``failure`` — never neither, never both.

    Raises:
        ValueError: on duplicate cell keys, a ledger/grid mismatch, or
            an ``isolate=False`` or ``pool`` request the policy cannot
            honour.
    """
    policy = policy or RetryPolicy()
    items = list(items)
    keys = [key_fn(item) for item in items]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate cell key(s): {dupes[:3]}")
    if not isolate:
        if policy.timeout is not None:
            raise ValueError("per-cell timeouts require isolate=True")
        if faults is not None and faults.has_kill:
            raise ValueError("kill-action fault plans require isolate=True")
    if pool is not None:
        if isolate:
            raise ValueError("a pool runs cells without isolation; "
                             "pass isolate=False")
        if policy.retries:
            raise ValueError("retries are not supported on a pool")

    outcomes = [
        CellOutcome(index=i, item=item, key=key)
        for i, (item, key) in enumerate(zip(items, keys))
    ]
    by_key = {o.key: o for o in outcomes}
    fingerprint = grid_fingerprint(keys, label)

    # -- resume: restore completed cells from the ledger --------------
    writer = None
    todo = list(range(len(items)))
    if checkpoint is not None:
        from pathlib import Path

        decode = decode or (lambda payload: payload)
        if resume and Path(checkpoint).exists():
            ledger = read_checkpoint(checkpoint)
            ledger.check_grid(keys, label)
            for key, line in ledger.cells.items():
                outcome = by_key[key]
                outcome.result = decode(line["result"])
                outcome.attempts = line["attempts"]
                outcome.resumed = True
            todo = [i for i in todo if not outcomes[i].resumed]
            _emit_resumed(len(items) - len(todo))
        writer = CheckpointWriter(
            checkpoint, keys=keys, label=label, resume=resume,
            completed=len(items) - len(todo),
            meta={"jobs": jobs, "retries": policy.retries},
        )

    encode = encode or (lambda result: result)
    retries = 0

    def on_done(index, item, key, attempts, result):
        outcome = outcomes[index]
        outcome.result = result
        outcome.attempts = attempts
        _emit_completed()
        if writer is not None:
            writer.record_cell(key, encode(result), attempts)

    def on_failed(index, item, key, failure):
        outcomes[index].failure = failure
        outcomes[index].attempts = failure.attempts
        _emit_failure(failure)
        if writer is not None:
            writer.record_failure(failure)

    tasks = [(i, items[i], keys[i]) for i in todo]
    try:
        if tasks:
            if pool is not None:
                _run_pooled(pool, worker, tasks, faults, on_done, on_failed)
            elif isolate:
                engine = _IsolatedEngine(
                    worker, jobs, policy, faults, on_done, on_failed
                )
                engine.run(tasks)
                retries = engine.retries
            else:
                retries = _run_inline(
                    worker, tasks, policy, faults, on_done, on_failed
                )
    finally:
        if writer is not None:
            writer.close()

    return SweepReport(
        outcomes=outcomes, label=label, fingerprint=fingerprint,
        retries=retries,
    )
