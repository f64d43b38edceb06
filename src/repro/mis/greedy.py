"""Lexicographic first-fit MIS.

A maximal independent set that needs no spanning tree.  Its size is at
most ``alpha``, so the ``gamma_c`` lower bounds of
:mod:`repro.cds.exact` and :mod:`repro.analysis.ratios` feed it to
Corollary 7.
"""

from __future__ import annotations

from typing import Hashable, TypeVar

from ..graphs.graph import Graph
from .first_fit import first_fit_mis_in_order

N = TypeVar("N", bound=Hashable)

__all__ = ["lexicographic_mis"]


def lexicographic_mis(graph: Graph[N]) -> list[N]:
    """First-fit MIS over the sorted node order."""
    return first_fit_mis_in_order(graph, sorted(graph.nodes()))
