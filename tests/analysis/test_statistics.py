"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.analysis import summarize


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1 and s.maximum == 4

    def test_stdev_sample(self):
        s = summarize([2, 4, 4, 4, 5, 5, 7, 9])
        assert math.isclose(s.stdev, 2.138, rel_tol=1e-3)

    def test_singleton(self):
        s = summarize([5])
        assert s.stdev == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_accepts_any_numeric(self):
        s = summarize([1, 2.5])
        assert s.mean == 1.75
