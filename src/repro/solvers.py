"""The solver registry: every CDS construction a caller can name.

:func:`check_solve` is the one rule for what a solve may name, applied
by every entry point before any work starts: ``solve`` and ``sweep``
after argument parsing (exit 2), the solve daemon in
:func:`repro.serve.protocol.normalize_request` (a ``ProtocolError``,
never batched), and :func:`bind_solver`, through which
:func:`repro.experiments.parallel.solve_summary` and ``solve`` reach a
solver.  A kernel pin is for the solvers that take ``kernel``, a
coverage multiplicity for those that take ``m`` (:func:`takes`).
"""

from __future__ import annotations

import inspect
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping

from .graphs.backend import KERNELS

__all__ = ["solver_registry", "takes", "check_solve", "bind_solver"]


@cache
def solver_registry() -> Mapping[str, Callable]:
    """Algorithm name -> solver ``f(graph, **kwargs) -> CDSResult``.

    Built once and read-only: the daemon checks every request against
    it."""
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
    return MappingProxyType(solvers)


def takes(solver: Callable, param: str) -> bool:
    """Whether ``solver`` accepts the keyword argument ``param``."""
    return param in inspect.signature(solver).parameters


def check_solve(
    algorithm: str, kernel: str | None = None, m: int | None = None
) -> Callable:
    """The solver ``algorithm`` names, once ``kernel`` and ``m`` are
    pins it takes (``None``, and ``kernel="auto"``, pin nothing).

    Raises:
        ValueError: for an unregistered ``algorithm``, a ``kernel``
            outside :data:`~repro.graphs.backend.KERNELS`, or a pin the
            solver does not take.
    """
    solvers = solver_registry()
    if algorithm not in solvers:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {', '.join(sorted(solvers))}"
        )
    if kernel is not None and kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    for param, noun, pinned in (
        ("kernel", "a kernel", kernel not in (None, "auto")),
        ("m", "a coverage multiplicity m", m is not None),
    ):
        if pinned and not takes(solvers[algorithm], param):
            takers = sorted(name for name, f in solvers.items() if takes(f, param))
            raise ValueError(
                f"algorithm {algorithm!r} does not take {noun} "
                f"(only {', '.join(takers)} do)"
            )
    return solvers[algorithm]


def bind_solver(
    algorithm: str, kernel: str | None = None, m: int | None = None
) -> tuple[Callable, dict]:
    """The solver :func:`check_solve` returns, plus the keyword
    arguments of the pins given (the solver's defaults stand for the
    rest).

    Raises:
        ValueError: whatever :func:`check_solve` refuses.
    """
    solver = check_solve(algorithm, kernel, m)
    pins = {"kernel": kernel, "m": m}
    return solver, {k: v for k, v in pins.items() if v not in (None, "auto")}
