"""Experiment modules, one per paper artifact (see DESIGN.md's index)."""

from .harness import (
    ExperimentResult,
    Table,
    all_experiments,
    experiment,
    get_experiment,
    run_recorded,
)
from .parallel import (
    SweepCell,
    default_jobs,
    solve_cell,
    sweep_cells,
)

__all__ = [
    "ExperimentResult",
    "Table",
    "all_experiments",
    "experiment",
    "get_experiment",
    "run_recorded",
    "SweepCell",
    "default_jobs",
    "solve_cell",
    "sweep_cells",
]
