"""Workload ``sweep-isolated``: the ``sweep`` mode's fault-isolated path.

Each sweep call runs a grid of n in {60, 150, 1000} cells (fixture
densities) through ``repro.reliability.run_cells`` with exactly the
arguments ``solve_cells_resilient`` passes -- one forked process per
attempt, jobs = 2, an fsynced checkpoint ledger -- plus an ``encode``
hook that stamps each completion in the parent.  An operation is one
cell; its latency runs from the release of the worker slot it took to
its completion (cells start in input order, so the i-th cell takes the
slot freed by the (i - jobs)-th completion).
"""

from __future__ import annotations

import random
from functools import partial
from time import perf_counter

from common import (
    GENERATOR_PATCHES,
    SETUP_REPEATS,
    GCMonitor,
    HostSpeed,
    Outcome,
    Tracer,
    cert_ratio,
    end_to_end,
    load_digests,
    quiet_collect,
    summary_digest,
    trace_layers,
)
from wl_solve import PATCHES as SOLVER_PATCHES

SIDES = {60: 6.2, 150: 8.0, 1000: 18.0}
SEEDS_PER_SWEEP = 8
JOBS = 2
ALGORITHM = "greedy"
LABEL = f"solve:{ALGORITHM}:auto"

SOLVER_COUNTERS = ("mis.nodes_scanned", "mis.selected", "gain.evaluations",
                   "greedy.connectors_chosen")
RELIABILITY_COUNTERS = ("reliability.cells.completed", "reliability.retries",
                        "reliability.failures")

#: What the parent does inside ``run_cells``, spanned in the traced run:
#: forking an attempt, waiting on and collecting workers (their solves
#: run meanwhile), and the fsynced ledger (its per-cell writes happen
#: while collecting).  The scheduler loop around them is the residual.
RELIABILITY_PATCHES = [
    ("repro.reliability.runner", "_IsolatedEngine._spawn", "reliability.spawn"),
    ("repro.reliability.runner", "_IsolatedEngine._reap", "reliability.wait"),
    ("repro.reliability.runner", "CheckpointWriter", "reliability.ledger"),
    ("repro.reliability.checkpoint", "CheckpointWriter.record_cell",
     "reliability.ledger"),
    ("repro.reliability.checkpoint", "CheckpointWriter.close", "reliability.ledger"),
]


def grids(seed: int, cell_seeds: list[int]):
    """Endless seeded sequence of sweep grids over the committed seeds."""
    from repro.experiments.parallel import sweep_cells

    order = sorted(cell_seeds)
    random.Random(seed).shuffle(order)
    i = 0
    while True:
        chunk = [order[(i + k) % len(order)] for k in range(SEEDS_PER_SWEEP)]
        i += SEEDS_PER_SWEEP
        yield sweep_cells(sorted(SIDES), chunk, side=SIDES.__getitem__)


def sweep(cells, ledger):
    """One isolated sweep; returns (report, wall, per-cell latencies)."""
    from repro.experiments.parallel import SweepCell, cell_key, solve_cell
    from repro.reliability import run_cells

    done: dict[str, float] = {}

    def stamp(summary):
        cell = SweepCell(summary["n"], summary["side"], summary["seed"])
        done[cell_key(cell)] = perf_counter()
        return summary

    t0 = perf_counter()
    report = run_cells(
        partial(solve_cell, algorithm=ALGORITHM, kernel=None, m=None),
        cells, jobs=JOBS, checkpoint=ledger, label=LABEL, key_fn=cell_key,
        encode=stamp,
    )
    wall = perf_counter() - t0
    freed = [t0] * JOBS + sorted(done.values())
    latencies = [
        done[cell_key(cell)] - freed[i]
        for i, cell in enumerate(cells) if cell_key(cell) in done
    ]
    return report, wall, latencies


def _check(report, expected, outcome, certs) -> None:
    if not report.ok:
        outcome.problems.append(report.render_failures())
    for o in report.outcomes:
        outcome.attempted += 1
        if not o.ok:
            outcome.fail(f"{o.key}: {o.failure.describe()}")
            continue
        digest = summary_digest(o.result)
        want = expected[str(o.item.n)][str(o.item.seed)]
        if digest != want:
            outcome.fail(f"{o.key}: digest {digest} != {want}")
        certs[o.key] = cert_ratio(o.result["cds_size"], o.result["dominators"])


def _replay(reports, outcome, tracer) -> list[dict]:
    """Solve the sweeps' cells in process; every summary must match."""
    from repro.experiments.parallel import solve_cell

    summaries = []
    for report in reports:
        for o in report.outcomes:
            with tracer.span("experiments.solve_cell"):
                summary = solve_cell(o.item, algorithm=ALGORITHM)
            summaries.append(summary)
            if summary != o.result:
                outcome.fail(f"{o.key}: isolated summary != in-process solve_cell")
    return summaries


def _sweeps(grid_iter, work, expected, outcome, certs, tracer, monitor=None,
            *, seconds=None, count=None, host: HostSpeed | None = None):
    """Sweep calls until ``seconds`` have passed or ``count`` are done;
    each call's times are scaled by ``host`` when given."""
    reports, walls, latencies = [], [], []
    start = perf_counter()
    while True:
        cells = next(grid_iter)
        ledger = work / f"ledger-{len(reports)}.jsonl"
        quiet_collect(monitor)
        report, wall, lats = sweep(cells, str(ledger))
        if host is not None:
            scale = host.factor()
            wall, lats = wall * scale, [lat * scale for lat in lats]
        ledger.unlink()
        _check(report, expected, outcome, certs)
        reports.append(report)
        walls.append(wall)
        latencies += lats
        if count is not None and len(reports) >= count:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return reports, sum(walls), latencies


def _setup(work, reps: int, host: HostSpeed | None = None) -> list[float]:
    """Warm-up sweeps: the first forks and ledger writes of a run."""
    from repro.experiments.parallel import SweepCell

    times = []
    for i in range(reps):
        cells = [SweepCell(60, SIDES[60], s) for s in range(JOBS)]
        ledger = work / f"warmup-{i}.jsonl"
        quiet_collect()
        t0 = perf_counter()
        sweep(cells, str(ledger))
        seconds = perf_counter() - t0
        times.append(host.scaled(seconds) if host is not None else seconds)
        ledger.unlink()
    return times


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    table = load_digests()["sweep-isolated"]
    expected = table["cells"]
    cell_seeds = [int(s) for s in expected[str(min(SIDES))]]
    grid_iter = grids(seed, cell_seeds)
    outcome = Outcome()
    outcome.notes.append(
        f"{len(SIDES) * SEEDS_PER_SWEEP} cells per sweep, jobs={JOBS}"
    )
    tracer, certs = Tracer(), {}
    if not trace:
        host = HostSpeed()
        setups = _setup(work, SETUP_REPEATS, host)
        reports, wall, latencies = _sweeps(grid_iter, work, expected, outcome,
                                           certs, tracer, seconds=seconds,
                                           host=host)
        _replay(reports[:1], outcome, tracer)
        end_to_end(outcome, setups, latencies, wall, certs, host)
        return outcome

    from repro.experiments.parallel import merge_cell_counters
    from repro.obs import OBS

    _setup(work, 1)
    reports, untraced_wall, _ = _sweeps(grid_iter, work, expected, outcome,
                                        certs, tracer, seconds=seconds / 2)
    grid_iter = grids(seed, cell_seeds)
    with (GCMonitor() as monitor, OBS.capture() as reg,
          tracer.patched(RELIABILITY_PATCHES)):
        tracer.active = monitor.active = True
        _, traced_wall, _ = _sweeps(grid_iter, work, expected, outcome, certs,
                                    tracer, monitor, count=len(reports))
        monitor.active = False
        counters = {name: reg.counters().get(name, 0)
                    for name in RELIABILITY_COUNTERS}
    top = tracer.top
    with tracer.patched(SOLVER_PATCHES + GENERATOR_PATCHES):
        summaries = _replay(reports, outcome, tracer)
    tracer.active = False
    tracer.top = top
    merged = merge_cell_counters(summaries)
    counters.update({name: merged.get(name, 0) for name in SOLVER_COUNTERS})
    solve_cell_s = tracer.total("experiments.solve_cell")
    tracer.totals["reliability.isolation"] = traced_wall - solve_cell_s / JOBS
    trace_layers(outcome, tracer, monitor, counters, traced_wall,
                 untraced_wall, len(summaries))
    return outcome
