"""Sweep cells and the workers that solve them, with deterministic output.

Every empirical table in this reproduction is a *sweep*: the same
computation over a grid of ``(n, seed)`` cells (instance sizes ×
replications).  Cells are independent, so they parallelise trivially —
what needs care is keeping the results exactly as reproducible as the
serial loop:

* **Deterministic ordering.**  Every map here goes through
  :func:`repro.reliability.run_cells`, which returns outcomes in
  *input* order, so a table built from them is byte-identical whatever
  ``jobs`` is, and identical to ``jobs=1``.
* **Determinism per cell.**  Workers receive the cell parameters and
  regenerate the instance from its seed inside the child process —
  nothing depends on which worker runs which cell, nor on which cells
  ran on that worker before.
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
the ``sweep`` mode through :func:`solve_cells_resilient`, and the
solve daemon runs :func:`solve_cell` (via ``serve_cell``) on its own
worker set through the same ``run_cells``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .harness import get_experiment
from .instances import default_side

__all__ = [
    "SweepCell",
    "cell_key",
    "sweep_cells",
    "merge_cell_counters",
    "solve_cell",
    "solve_summary",
    "solve_cells_resilient",
    "run_experiments_resilient",
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

    Raises:
        ValueError: on a size ``n < 1`` or a side that is not a finite
            number > 0 (the serve protocol's instance rule).
    """
    if side is None:
        side = default_side
    seeds = list(seeds)
    cells = []
    for n in ns:
        if n < 1:
            raise ValueError(f"instance size n must be >= 1, got {n}")
        s = side(n) if callable(side) else side
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"deployment side must be finite and > 0, got {s}")
        for seed in seeds:
            cells.append(SweepCell(n=n, side=s, seed=seed))
    return cells


def cell_key(cell: SweepCell) -> str:
    """The cell's stable identity string (checkpoint ledger key)."""
    return f"n={cell.n};side={cell.side!r};seed={cell.seed}"


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
    under every kernel) and is echoed in the summary; ``None`` or
    ``"auto"`` leaves the solver's default and the summary without a
    ``kernel`` key.  ``m`` likewise pins the coverage multiplicity of
    the fault-tolerant solvers (``mfold-greedy`` / ``mfold-2conn``).

    Raises:
        ValueError: whatever :func:`repro.solvers.check_solve` refuses.
    """
    from ..graphs.generators import random_connected_udg

    _, graph = random_connected_udg(cell.n, cell.side, seed=cell.seed)
    head = {"n": cell.n, "side": cell.side, "seed": cell.seed}
    return solve_summary(head, graph, algorithm, kernel=kernel, m=m)


def solve_summary(head: dict, graph, algorithm: str,
                  kernel: str | None = None, m: int | None = None) -> dict:
    """Solve ``graph`` with its counters captured (:func:`solve_cell`
    and the daemon's edge-list solves): ``head``'s fields, the result's
    sizes and counters, then the ``kernel``/``m`` pins applied.

    Raises:
        ValueError: whatever :func:`repro.solvers.check_solve` refuses.
    """
    from ..obs import OBS
    from ..solvers import bind_solver

    solver, kwargs = bind_solver(algorithm, kernel=kernel, m=m)
    with OBS.capture() as reg:
        result = solver(graph, **kwargs)
        counters = reg.counters()
    return {
        **head,
        "algorithm": result.algorithm,
        "cds_size": result.size,
        "dominators": len(result.dominators),
        "connectors": len(result.connectors),
        "counters": counters,
        **kwargs,
    }


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

    Runs the grid through :func:`repro.reliability.run_cells` on at
    most ``jobs`` long-lived forked workers: a cell that raises, stalls
    past the policy's timeout, or dies outright yields a structured
    :class:`~repro.reliability.failures.CellFailure` in its slot while
    every other cell completes.  A worker runs cell after cell and is
    replaced only after a crash, a timeout or a ``BaseException``, so
    a cell shares process-global state with the earlier cells on its
    worker; :func:`solve_cell` leaves none behind that changes a
    result.  With ``checkpoint=...`` progress is
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
    ``checkpoint``, the experiments run on at most ``jobs`` long-lived
    forked workers, each running experiment after experiment (one that
    crashes, times out or raises a ``BaseException`` is replaced), so
    an experiment must leave no process-global state behind that
    changes a later one; otherwise they run in this process (the
    inline engine), where a profiler around the call sees them.

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
