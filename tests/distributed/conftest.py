"""Fixtures for the distributed tests: access to the reference oracle."""

from contextlib import contextmanager

import pytest

from repro.distributed import Simulator, engine


@pytest.fixture
def reference_engine():
    """A context manager that runs every protocol on the oracle.

    ``make_simulator`` looks ``BatchedSimulator`` up in the engine
    module at call time, so swapping that one name for the reference
    :class:`~repro.distributed.Simulator` routes every protocol entry
    point to the per-message engine inside the ``with`` block::

        with reference_engine():
            leader, metrics = elect_leader(g)
    """

    @contextmanager
    def swap():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "BatchedSimulator", Simulator)
            yield

    return swap
