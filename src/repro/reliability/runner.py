"""Fault-isolated, resumable execution of sweep cells.

:func:`run_cells` is the one way this package maps a worker over
cells: ``worker(item)`` over a sequence, results in input order, built
for the failure-as-normal-case regime the studied protocols live in:

* **Fault isolation.**  Cells run on at most ``jobs`` long-lived forked
  workers (a :class:`WorkerSet`), so an exception, a hang, or an
  outright ``kill -9`` of one cell yields a structured
  :class:`~repro.reliability.failures.CellFailure` in its slot instead
  of crashing the run.  A worker serves on after an ``Exception``; one
  that crashed, overran or raised a ``BaseException`` is replaced.  A
  cell must leave no process-global state behind (a cache, a global,
  ``random``'s state): later cells on its worker would see it.
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

A long-lived caller (the solve daemon) owns a :class:`WorkerSet` and
passes it as ``pool=``.  The in-process engine (``isolate=False``), for
cheap workers and unit tests, has the same retry/failure semantics
minus timeouts and kill survival (both need a process boundary, and
the engine raises if asked for them without one).

Every engine runs an attempt through the one :func:`_attempt`.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import time
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing import connection as _mpc
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

from ..durations import MAX_WAIT_SECONDS, check_duration
from ..obs import OBS
from .checkpoint import CheckpointWriter, grid_fingerprint, read_checkpoint
from .failures import CellFailure
from .faults import FaultPlan, det_unit

__all__ = [
    "RetryPolicy",
    "CellOutcome",
    "SweepReport",
    "WorkerSet",
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
        if self.timeout is not None:
            check_duration("timeout", self.timeout)
        check_duration("backoff", self.backoff, zero_ok=True)

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-running ``key`` after ``attempt``,
        at most :data:`~repro.durations.MAX_WAIT_SECONDS` however many
        doublings came before."""
        if self.backoff <= 0:
            return 0.0
        jitter = 0.5 + det_unit(self.seed, key, attempt)
        try:
            delay = self.backoff * (2 ** (attempt - 1)) * jitter
        except OverflowError:  # 2 ** (attempt - 1) is past any float
            return MAX_WAIT_SECONDS
        return min(delay, MAX_WAIT_SECONDS)


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

def _worker_main(conn, preload: tuple[str, ...]) -> None:
    """Worker-process entry: run ``(worker, plan, cell)`` tasks, replying
    ``(message, stays)``; after a ``BaseException`` it does not stay and
    exits.  A ``kill`` fault exits without replying, like a real crash.
    SIGINT is ignored: on Ctrl-C the parent stops its workers itself."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for name in preload:
        importlib.import_module(name)
    parent = os.getppid()
    while True:
        # Siblings hold the parent's pipe ends: its death shows as a new ppid.
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        task = conn.recv()
        try:
            reply, stays = _attempt(*task), True
        except BaseException as exc:  # noqa: BLE001 - reported, then exit
            reply, stays = _error(exc), False
        try:
            conn.send((reply, stays))
        except Exception as exc:  # noqa: BLE001 - the result did not pickle
            conn.send((_error(exc), stays))
        if not stays:
            return


class WorkerSet:
    """At most ``size`` worker processes that run cell after cell.

    ``run_cells`` starts one per call on the default context (``fork``
    on Linux: workers inherit the caller's imports); a long-lived caller
    passes its own as ``pool=``, one call at a time, and a threaded one
    uses ``"forkserver"``.  Workers import ``preload`` as they start.
    """

    def __init__(self, size: int, context: str | None = None,
                 preload: Sequence[str] = ()):
        self.size = size
        self.preload = tuple(preload)
        self._ctx = multiprocessing.get_context(context)
        self._idle: list[tuple[Any, Any]] = []  # (process, pipe end)

    def start(self) -> None:
        """Start workers until ``size`` of them are idle."""
        while len(self._idle) < self.size:
            self._idle.append(self._start_worker())

    def close(self) -> None:
        """Stop the idle workers (between cells, nothing is lost)."""
        idle, self._idle = self._idle, []
        for proc, _ in idle:
            proc.terminate()  # all at once: they exit in parallel
        for proc, conn in idle:
            _retire(proc, conn)

    def _start_worker(self) -> tuple[Any, Any]:
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main, daemon=True,
                                 args=(child_conn, self.preload))
        proc.start()
        child_conn.close()
        return proc, conn


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
    """Scheduler over a :class:`WorkerSet`: dispatch, watch, reap, retry.

    At most ``workers.size`` cells run at once; completions are handled
    as they arrive (``multiprocessing.connection.wait``), deadlines are
    checked every tick, and retry backoff is honoured without blocking
    the loop.  Output slots are keyed by input index so ordering never
    depends on scheduling.
    """

    def __init__(self, worker, workers: WorkerSet, policy: RetryPolicy,
                 plan: FaultPlan | None, on_done, on_failed):
        self.worker = worker
        self.workers = workers
        self.policy = policy
        self.plan = plan
        self.on_done = on_done          # (index, item, key, attempts, result)
        self.on_failed = on_failed      # (index, item, key, failure)
        self.retries = 0

    def run(self, tasks: Sequence[tuple[int, Any, str]]) -> None:
        pending: list[tuple[float, int, Any, str, int]] = [
            (0.0, index, item, key, 1) for index, item, key in tasks
        ]
        pending.reverse()  # pop() from the end keeps input order
        running: dict[Any, _Attempt] = {}
        try:
            while pending or running:
                self._dispatch_ready(pending, running)
                if not running:
                    # Only backoff-delayed work left: sleep to the
                    # earliest ready time.
                    wake = min(entry[0] for entry in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 0.25)))
                    continue
                self._reap(pending, running)
        finally:
            for attempt in running.values():
                _retire(attempt.proc, attempt.conn, terminate=True)

    # -- scheduling ---------------------------------------------------

    def _dispatch_ready(self, pending, running) -> None:
        # Scan from the end (input order); skip entries still backing off.
        now = time.monotonic()
        i = len(pending) - 1
        while i >= 0 and len(running) < self.workers.size:
            ready_at, index, item, key, attempt = pending[i]
            if ready_at <= now:
                pending.pop(i)
                self._dispatch(running, index, item, key, attempt)
            i -= 1

    def _dispatch(self, running, index, item, key, attempt) -> None:
        task = ForkingPickler.dumps((self.worker, self.plan, (item, key)))
        idle = self.workers._idle
        while True:
            proc, conn = idle.pop() if idle else self._spawn()
            # A worker that died while idle is replaced, and no cell is
            # charged.  Its exit is checked before the send, which can
            # still land in the pipe of a worker already dead; a death
            # between the check and the send is not caught here.
            if _mpc.wait([proc.sentinel], timeout=0):
                _retire(proc, conn)
                continue
            try:
                conn.send_bytes(task)  # pickled first: only OSError here
                break
            except OSError:  # died while idle
                _retire(proc, conn)
        timeout = self.policy.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        running[conn] = _Attempt(
            index=index, item=item, key=key, attempt=attempt,
            proc=proc, conn=conn, deadline=deadline,
        )

    def _spawn(self) -> tuple[Any, Any]:
        """Start one worker."""
        return self.workers._start_worker()

    # -- completion / failure handling --------------------------------

    def _reap(self, pending, running) -> None:
        finished = []
        for conn in _mpc.wait(list(running), timeout=_POLL_SECONDS):
            attempt = running.pop(conn)
            try:
                message, stays = conn.recv()
            except (EOFError, OSError):
                message, stays = None, False
            if stays:
                self.workers._idle.append((attempt.proc, conn))
            else:
                _retire(attempt.proc, conn)
            finished.append((attempt, message))
        # Hand the freed workers their next cells before journalling the
        # finished ones, so no worker waits on the ledger's fsync.
        self._dispatch_ready(pending, running)
        for attempt, message in finished:
            if message is None:
                code = attempt.proc.exitcode
                self._retry_or_fail(pending, attempt, CellFailure(
                    key=attempt.key, kind="crash", attempts=attempt.attempt,
                    error_type="WorkerCrash", exitcode=code,
                    message=f"worker died without reporting (exitcode {code})"))
            elif message[0] == "ok":
                self.on_done(attempt.index, attempt.item, attempt.key,
                             attempt.attempt, message[1])
            else:
                self._retry_or_fail(pending, attempt, _exception_failure(
                    attempt.key, attempt.attempt, message))
        if self.policy.timeout is None:
            return
        now = time.monotonic()
        for conn in [c for c, a in running.items() if a.deadline is not None
                     and a.deadline <= now]:
            attempt = running.pop(conn)
            _retire(attempt.proc, conn, terminate=True)
            self._retry_or_fail(pending, attempt, CellFailure(
                key=attempt.key, kind="timeout", attempts=attempt.attempt,
                error_type="TimeoutError",
                message=f"cell exceeded the per-attempt timeout of "
                        f"{self.policy.timeout}s"))

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


def _retire(proc, conn, terminate: bool = False) -> None:
    """Close a worker's pipe and wait for it to exit; ``terminate`` one
    that may still run (SIGTERM, then SIGKILL after a grace period)."""
    if not terminate:
        proc.join(10.0)
    if proc.is_alive():
        proc.terminate()
        proc.join(_TERM_GRACE_SECONDS)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
    conn.close()


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
            :func:`functools.partial` of one) when ``isolate=True`` (so
            are the items); any callable otherwise.
        items: the sweep grid, in the order results should come back.
        jobs: maximum concurrently-running cells (and worker processes).
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
        isolate: run the cells in worker processes.  Required for
            ``policy.timeout`` and kill-action fault plans; the default
            everywhere the CLI is involved.
        pool: a caller-owned :class:`WorkerSet` to run the cells on
            instead of a set started for this call; its size, not
            ``jobs``, sets the parallelism.

    Returns:
        A :class:`SweepReport` whose ``outcomes`` align 1:1 with
        ``items``; each outcome holds exactly one of ``result`` or
        ``failure`` — never neither, never both.

    Raises:
        ValueError: on duplicate cell keys, a ledger/grid mismatch, an
            ``isolate=False`` request the policy cannot honour, or a
            ``pool`` with ``isolate=False``.
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
            raise ValueError("a pool runs cells in its worker processes; "
                             "pass isolate=True")

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
            if isolate:
                workers = pool or WorkerSet(max(1, jobs))
                engine = _IsolatedEngine(
                    worker, workers, policy, faults, on_done, on_failed
                )
                try:
                    engine.run(tasks)
                finally:
                    if pool is None:
                        workers.close()
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
