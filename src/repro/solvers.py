"""The solver registry: every CDS construction a caller can name.

The CLI (``solve``/``sweep``/``serve-client``), the sweep worker
:func:`repro.experiments.parallel.solve_cell` and the solve daemon all
resolve ``--algorithm`` names here, and ask :func:`takes` whether a
solver accepts a kernel pin (``kernel``, the kernelized solvers waf
and greedy) or a coverage multiplicity (``m``, the fault-tolerant
solvers mfold-greedy and mfold-2conn).
"""

from __future__ import annotations

import inspect
from typing import Callable

__all__ = ["solver_registry", "takes", "bind_solver"]


def solver_registry() -> dict[str, Callable]:
    """Algorithm name -> solver ``f(graph, **kwargs) -> CDSResult``."""
    from .baselines import ALL_BASELINES
    from .cds import (
        greedy_connector_cds,
        mfold_2conn_cds,
        mfold_greedy_cds,
        steiner_cds,
        waf_cds,
    )
    from .distributed.solvers import DISTRIBUTED_SOLVERS

    solvers = {
        "waf": waf_cds,
        "greedy": greedy_connector_cds,
        "steiner": steiner_cds,
        "mfold-greedy": mfold_greedy_cds,
        "mfold-2conn": mfold_2conn_cds,
    }
    solvers.update(ALL_BASELINES)
    solvers.update(DISTRIBUTED_SOLVERS)
    return solvers


def takes(solver: Callable, param: str) -> bool:
    """Whether ``solver`` accepts the keyword argument ``param``."""
    return param in inspect.signature(solver).parameters


def bind_solver(
    algorithm: str, kernel: str | None = None, m: int | None = None
) -> tuple[Callable, dict]:
    """The registered solver plus the keyword arguments pinning it.

    ``None`` leaves the solver's own default for that argument.

    Raises:
        KeyError: for an unregistered ``algorithm``.
        ValueError: when ``kernel`` (or ``m``) is given but the solver
            does not take it.
    """
    solver = solver_registry()[algorithm]
    kwargs = {}
    if kernel is not None:
        if not takes(solver, "kernel"):
            raise ValueError(
                f"algorithm {algorithm!r} does not take a kernel "
                "(only the kernelized solvers: waf, greedy)"
            )
        kwargs["kernel"] = kernel
    if m is not None:
        if not takes(solver, "m"):
            raise ValueError(
                f"algorithm {algorithm!r} does not take a coverage "
                "multiplicity m (only the fault-tolerant solvers: "
                "mfold-greedy, mfold-2conn)"
            )
        kwargs["m"] = m
    return solver, kwargs
