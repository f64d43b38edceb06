"""Experiment modules, one per paper artifact (see DESIGN.md's index)."""

from .harness import (
    ExperimentResult,
    Table,
    all_experiments,
    experiment,
    get_experiment,
)
from .parallel import (
    SweepCell,
    solve_cell,
    sweep_cells,
)

__all__ = [
    "ExperimentResult",
    "Table",
    "all_experiments",
    "experiment",
    "get_experiment",
    "SweepCell",
    "solve_cell",
    "sweep_cells",
]
