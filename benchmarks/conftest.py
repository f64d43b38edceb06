"""Shared fixtures for the benchmark suite.

Each ``bench_*.py`` file regenerates one paper artifact (see the
per-experiment index in DESIGN.md): it asserts the paper's claimed
*shape* (bounds hold, tight constructions achieve their counts, the new
algorithm wins) and times the computation with pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only

The ``obs`` fixture exposes the instrumentation registry to benches
that want to assert operation counts.  ``check_counters.py`` (a plain
script, not a pytest bench) gates the deterministic counters of the
same fixtures; end-to-end timing lives in ``perfbench/``.
"""

from __future__ import annotations

import pytest

from repro.graphs import random_connected_udg


@pytest.fixture()
def obs():
    """The default ``repro.obs`` registry, reset and enabled per test.

    Benches opt in to counter assertions with it::

        def test_case(benchmark, udg60, obs):
            ...
            assert obs.counters()["gain.evaluations"] > 0

    Tracing is restored to its prior state afterwards so timing-only
    benches stay un-instrumented.
    """
    from repro.obs import OBS

    with OBS.capture() as registry:
        yield registry


@pytest.fixture(scope="session")
def udg20():
    """A connected 20-node UDG (exact optimum affordable)."""
    return random_connected_udg(20, 3.8, seed=1)[1]


@pytest.fixture(scope="session")
def udg60():
    """A connected 60-node UDG (heuristic scale)."""
    return random_connected_udg(60, 6.2, seed=2)[1]


@pytest.fixture(scope="session")
def udg150():
    """A connected 150-node UDG (scaling benchmarks)."""
    return random_connected_udg(150, 8.0, seed=3)[1]


@pytest.fixture(scope="session")
def udg20_gamma(udg20):
    """The exact connected domination number of ``udg20``."""
    from repro.cds import connected_domination_number

    return connected_domination_number(udg20)
