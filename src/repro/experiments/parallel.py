"""Parallel sweep runner: multiprocessing maps with deterministic output.

Every empirical table in this reproduction is a *sweep*: the same
computation over a grid of ``(n, seed)`` cells (instance sizes ×
replications).  Cells are independent, so they parallelise trivially —
what needs care is keeping the results exactly as reproducible as the
serial loop:

* **Deterministic ordering.**  :func:`parallel_map` always returns
  results in *input* order (``multiprocessing.Pool.map`` preserves it),
  so a table built from the returned list is byte-identical whatever
  ``jobs`` is, and identical to ``jobs=1``.
* **Determinism per cell.**  Workers receive the cell parameters and
  regenerate the instance from its seed inside the child process —
  nothing depends on which worker runs which cell.
* **Instrumentation is captured in the child, merged in the parent.**
  The :data:`repro.obs.OBS` registry is process-local; a child's
  counters never reach the parent by themselves.  Workers that want
  counts capture them *inside* the cell (see :func:`solve_cell`, which
  returns them in its result dict) or export the whole registry state
  (see :func:`run_experiments_resilient` with ``collect_obs=True``,
  which the CLI merges deterministically so ``--trace``/``--stats-out``
  work at any ``--jobs``).

Workers must be defined at module level (``multiprocessing`` pickles
them by reference); :func:`functools.partial` over a module-level
function works for parameterised workers and is what
:func:`solve_cells_resilient` does internally.

The CLI experiments mode runs every experiment through
:func:`run_experiments_resilient` (``python -m repro --all --jobs 4``),
and ``benchmarks/check_counters.py`` uses :func:`parallel_map` to spread
its counter rows over cores (each row runs inside a single process, so
its counters are the same at any ``--jobs``).
"""

from __future__ import annotations

import multiprocessing
import os
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from ..reliability.failures import CellError
from .harness import get_experiment
from .instances import default_side

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "SweepCell",
    "cell_key",
    "sweep_cells",
    "parallel_map",
    "merge_cell_counters",
    "solve_cell",
    "solve_cells_resilient",
    "run_experiments_resilient",
    "default_jobs",
]


class SweepCell(NamedTuple):
    """One cell of an experiment sweep: an instance size and its seed.

    ``side`` is carried explicitly (not re-derived in the worker) so a
    cell is self-describing and the grid stays frozen even if the
    density default changes.
    """

    n: int
    side: float
    seed: int


def sweep_cells(
    ns: Sequence[int],
    seeds: Iterable[int],
    side: float | Callable[[int], float] | None = None,
) -> list[SweepCell]:
    """The ``(n, seed)`` grid, n-major, in deterministic order.

    ``side`` may be a constant, a function of ``n``, or ``None`` for
    :func:`repro.experiments.instances.default_side`.
    """
    if side is None:
        side = default_side
    seeds = list(seeds)
    cells = []
    for n in ns:
        s = side(n) if callable(side) else side
        for seed in seeds:
            cells.append(SweepCell(n=n, side=s, seed=seed))
    return cells


def cell_key(cell: SweepCell) -> str:
    """The cell's stable identity string (checkpoint ledger key)."""
    return f"n={cell.n};side={cell.side!r};seed={cell.seed}"


def default_jobs() -> int:
    """A conservative default worker count: physical parallelism, capped."""
    return max(1, min(8, os.cpu_count() or 1))


class _ContextWorker:
    """Wraps a map worker so its exceptions name the failing item.

    Picklable whenever the wrapped worker is, so the pool path gets the
    same enrichment: an exception crossing the process boundary arrives
    as a :class:`~repro.reliability.failures.CellError` carrying the
    item's repr, its input index, and the worker-side traceback —
    instead of a bare traceback with no cell identity.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: Callable):
        self.worker = worker

    def __call__(self, task: tuple[int, object]):
        index, item = task
        try:
            return self.worker(item)
        except Exception as exc:
            raise CellError.wrap(item, index, exc) from exc


def parallel_map(
    worker: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    pool=None,
) -> list[R]:
    """``[worker(item) for item in items]``, optionally across processes.

    ``jobs <= 1`` (or fewer than two items) runs serially in-process —
    no pool, no pickling, identical semantics.  Otherwise a
    ``multiprocessing.Pool`` of ``min(jobs, len(items))`` workers maps
    the items; results always come back in input order, so output is
    independent of scheduling.  ``worker`` must be picklable (a
    module-level function or a :func:`functools.partial` of one).

    A worker exception aborts the map (fail-fast — this is the strict
    primitive; see :func:`repro.reliability.run_cells` for the
    fault-isolated one) but is re-raised as a
    :class:`~repro.reliability.failures.CellError` naming the failing
    item and its index, with the original exception chained in-process
    and its traceback text preserved across the pool boundary.

    ``pool`` optionally supplies an externally managed
    ``multiprocessing`` pool to map on instead of creating (and tearing
    down) one per call; the caller owns its lifecycle.  Long-lived
    multi-threaded processes need this — the solve daemon reuses one
    forkserver-context pool across batches, because fork()ing a fresh
    pool out of a threaded process can deadlock the child on locks the
    fork happened to snapshot mid-held.
    """
    items = list(items)
    wrapped = _ContextWorker(worker)
    tasks = list(enumerate(items))
    if jobs <= 1 or len(items) < 2:
        return [wrapped(task) for task in tasks]
    if pool is not None:
        return pool.map(wrapped, tasks)
    with multiprocessing.Pool(processes=min(jobs, len(items))) as fresh:
        return fresh.map(wrapped, tasks)


def solve_cell(
    cell: SweepCell,
    algorithm: str = "greedy",
    kernel: str | None = None,
    m: int | None = None,
) -> dict:
    """Worker: build the cell's connected UDG, solve it, count everything.

    Runs with instrumentation captured locally (safe under
    multiprocessing — see the module docstring) and returns a flat,
    picklable summary::

        {"n": ..., "side": ..., "seed": ..., "algorithm": ...,
         "cds_size": ..., "dominators": ..., "connectors": ...,
         "counters": {...}}

    ``algorithm`` is a key of :func:`repro.solvers.solver_registry`
    (``"greedy"``, ``"waf"``, a baseline name, ...).  ``kernel``
    optionally pins the graph kernel of the kernelized solvers
    (``"indexed"`` / ``"bitset"`` / ``"array"``; results are identical
    under every kernel) and is echoed in the summary; ``None`` leaves
    the solver's default and the summary shape exactly as before.
    ``m`` likewise pins the coverage multiplicity of the fault-tolerant
    solvers (``mfold-greedy`` / ``mfold-2conn``).

    Raises:
        ValueError: when ``kernel`` (or ``m``) is given but
            ``algorithm`` does not accept it.
    """
    from ..graphs.generators import random_connected_udg
    from ..obs import OBS
    from ..solvers import bind_solver

    solver, kwargs = bind_solver(algorithm, kernel=kernel, m=m)
    _, graph = random_connected_udg(cell.n, cell.side, seed=cell.seed)
    with OBS.capture() as reg:
        result = solver(graph, **kwargs)
        counters = reg.counters()
    summary = {
        "n": cell.n,
        "side": cell.side,
        "seed": cell.seed,
        "algorithm": result.algorithm,
        "cds_size": result.size,
        "dominators": len(result.dominators),
        "connectors": len(result.connectors),
        "counters": counters,
    }
    if kernel is not None:
        summary["kernel"] = kernel
    if m is not None:
        summary["m"] = m
    return summary


def merge_cell_counters(results: Iterable[dict]) -> dict:
    """Sum the per-cell ``counters`` of solve summaries, sorted by name.

    The "merged obs counters" of a sweep: deterministic per grid
    because each cell's counters are deterministic per seed, and
    addition is order-independent — an interrupted-and-resumed sweep
    merges to exactly the numbers of an uninterrupted one.
    """
    merged: dict[str, int | float] = {}
    for summary in results:
        for name, value in summary.get("counters", {}).items():
            merged[name] = merged.get(name, 0) + value
    return {name: merged[name] for name in sorted(merged)}


def solve_cells_resilient(
    cells: Sequence[SweepCell],
    algorithm: str = "greedy",
    jobs: int = 1,
    *,
    kernel: str | None = None,
    m: int | None = None,
    policy=None,
    faults=None,
    checkpoint: str | None = None,
    resume: bool = False,
):
    """Map :func:`solve_cell` over a grid, fault-isolated: failures
    become data.

    Runs the grid through :func:`repro.reliability.run_cells` (one
    forked process per attempt): a cell that raises, stalls past the
    policy's timeout, or dies outright yields a structured
    :class:`~repro.reliability.failures.CellFailure` in its slot while
    every other cell completes.  With ``checkpoint=...`` progress is
    journalled per cell; ``resume=True`` re-runs only the missing
    cells and the merged results/counters are bit-identical to an
    uninterrupted run.  Returns the
    :class:`~repro.reliability.runner.SweepReport`.
    """
    from ..reliability import run_cells

    return run_cells(
        partial(solve_cell, algorithm=algorithm, kernel=kernel, m=m),
        cells,
        jobs=jobs,
        policy=policy,
        faults=faults,
        checkpoint=checkpoint,
        resume=resume,
        label=f"solve:{algorithm}:{kernel or 'auto'}",
        key_fn=cell_key,
    )


class _ExperimentTask(NamedTuple):
    """One experiment cell: the id, its input position, what to record."""

    experiment_id: str
    worker: int
    collect_obs: bool
    collect_events: bool
    mem_trace: bool


def _run_experiment_worker_record(task: _ExperimentTask) -> dict:
    """Checkpointable worker: one experiment, JSON-ready outcome.

    Returns ``{"result": <ExperimentResult json>, "state": <registry
    state or None>}``, plus ``"events"`` (this experiment's
    ``repro.obs/event/v1`` log) when ``collect_events`` is set; the
    state holds the ``--mem-trace`` ``mem.*`` peaks with every other
    counter.  The checkpoint ledger journals the payload verbatim, so
    a resumed run replays tables, counters and spans alike.

    The registry's prior contents are restored afterwards: under the
    inline engine this runs in the parent, whose registry holds the
    runner's ``reliability.*`` counters.
    """
    fn = get_experiment(task.experiment_id)
    if not task.collect_obs:
        return {"result": fn().to_json_obj(), "state": None}
    from contextlib import nullcontext

    from ..obs import OBS
    from ..obs.events import EventLog
    from ..obs.profile import mem_tracing

    outer = OBS.export_state()
    log = None
    try:
        with OBS.capture() as reg:
            if task.collect_events:
                log = EventLog(
                    reg, run_id=f"worker-{task.worker}", worker=task.worker
                )
                reg.add_hook(log)
            mem = mem_tracing(reg) if task.mem_trace else nullcontext()
            with mem, reg.time(f"experiment.{task.experiment_id}"):
                result = fn()
            state = reg.export_state()
    finally:
        if log is not None:
            OBS.remove_hook(log)
        OBS.reset()
        OBS.merge_state(outer)
    payload = {"result": result.to_json_obj(), "state": state}
    if log is not None:
        payload["events"] = log.events
    return payload


def _experiment_task_key(task: _ExperimentTask) -> str:
    return task.experiment_id


def run_experiments_resilient(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    *,
    collect_obs: bool = False,
    collect_events: bool = False,
    mem_trace: bool = False,
    policy=None,
    faults=None,
    checkpoint: str | None = None,
    resume: bool = False,
):
    """Run registered experiments through :func:`repro.reliability.run_cells`.

    The one experiments runner behind ``python -m repro <ids>``.  Ids
    are canonicalised up front, so an unknown id raises ``KeyError``
    before anything runs.  A crashing or overdue experiment becomes a
    structured failure in its slot; ``checkpoint=`` / ``resume=True``
    journal and resume the batch.

    With ``jobs > 1`` or any of ``policy`` / ``faults`` /
    ``checkpoint``, each attempt runs in its own forked process;
    otherwise the experiments run in this process (the inline engine),
    where a profiler around the call sees them.

    Returns the :class:`~repro.reliability.runner.SweepReport`; its
    successful outcomes carry :func:`_run_experiment_worker_record`
    payloads.  ``collect_obs`` captures each experiment's registry
    state, ``collect_events`` its event log (worker index = input
    position, so :func:`repro.obs.events.merge_events` is
    deterministic) and ``mem_trace`` its per-span peak memory.
    """
    from ..reliability import run_cells

    canonical = [get_experiment(eid).experiment_id for eid in experiment_ids]
    tasks = [
        _ExperimentTask(eid, index, collect_obs, collect_events, mem_trace)
        for index, eid in enumerate(canonical)
    ]
    return run_cells(
        _run_experiment_worker_record,
        tasks,
        jobs=jobs,
        policy=policy,
        faults=faults,
        checkpoint=checkpoint,
        resume=resume,
        label="experiments",
        key_fn=_experiment_task_key,
        isolate=(
            jobs > 1
            or policy is not None
            or faults is not None
            or checkpoint is not None
        ),
    )
