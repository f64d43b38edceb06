"""``repro.solvers.check_solve``: the one rule for what a solve may name."""

import pytest

from repro.graphs.backend import KERNELS
from repro.solvers import bind_solver, check_solve, solver_registry, takes

REGISTRY = sorted(solver_registry().items())
PINS = [kernel for kernel in KERNELS if kernel != "auto"]


@pytest.mark.parametrize("algorithm, solver", REGISTRY)
def test_every_pin_accepted_exactly_when_the_solver_takes_it(algorithm, solver):
    for kernel in (None, "auto"):
        assert check_solve(algorithm, kernel) is solver
        assert bind_solver(algorithm, kernel) == (solver, {})
    for kernel in PINS:
        if takes(solver, "kernel"):
            assert check_solve(algorithm, kernel) is solver
            assert bind_solver(algorithm, kernel) == (solver, {"kernel": kernel})
        else:
            with pytest.raises(ValueError, match="does not take a kernel"):
                check_solve(algorithm, kernel)
    if takes(solver, "m"):
        assert check_solve(algorithm, m=3) is solver
        assert bind_solver(algorithm, m=3) == (solver, {"m": 3})
    else:
        with pytest.raises(ValueError, match="does not take a coverage multiplicity m"):
            check_solve(algorithm, m=3)


def test_refusals_name_the_solvers_that_do_take_the_pin():
    with pytest.raises(ValueError) as kernel_error:
        check_solve("steiner", "bitset")
    takers = sorted(a for a, s in REGISTRY if takes(s, "kernel"))
    assert str(kernel_error.value) == (
        f"algorithm 'steiner' does not take a kernel (only {', '.join(takers)} do)"
    )
    with pytest.raises(ValueError, match=r"\(only mfold-2conn, mfold-greedy do\)"):
        check_solve("greedy", m=2)


@pytest.mark.parametrize(
    "algorithm, kernel, message",
    [
        ("magic", None, "unknown algorithm 'magic'; known: "),
        ("", "auto", "unknown algorithm ''"),
        ("greedy", "gpu", "unknown kernel 'gpu'"),
        ("steiner", "gpu", "unknown kernel 'gpu'"),
    ],
)
def test_unknown_names_refused(algorithm, kernel, message):
    with pytest.raises(ValueError, match=message):
        check_solve(algorithm, kernel)
    with pytest.raises(ValueError, match=message):
        bind_solver(algorithm, kernel)
