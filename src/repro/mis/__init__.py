"""Maximal / maximum independent set algorithms.

Phase 1 of the two-phased CDS framework (BFS first-fit MIS of [10]),
lexicographic first-fit, and an exact maximum
independent set solver used to measure ``alpha(G)`` in the Corollary 7
experiments.
"""

from .first_fit import FirstFitMIS, first_fit_mis, first_fit_mis_in_order
from .greedy import lexicographic_mis
from .exact import independence_number, maximum_independent_set

__all__ = [
    "FirstFitMIS",
    "first_fit_mis",
    "first_fit_mis_in_order",
    "lexicographic_mis",
    "independence_number",
    "maximum_independent_set",
]
