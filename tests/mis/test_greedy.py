"""Unit tests for the lexicographic first-fit MIS."""

from repro.graphs import is_maximal_independent_set
from repro.mis import lexicographic_mis


class TestLexicographic:
    def test_path(self, path5):
        assert lexicographic_mis(path5) == [0, 2, 4]

    def test_is_mis(self, small_udg):
        _, g = small_udg
        assert is_maximal_independent_set(g, lexicographic_mis(g))
