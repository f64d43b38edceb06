"""Ablation — phase-1 MIS order (DESIGN.md section 6).

The guarantees only need *some* 2-hop-separated MIS; this ablation
measures how the selection order (BFS first-fit of [10] or
lexicographic first-fit) affects |I| and the final CDS size when
phase 2 is the Section IV greedy.
"""

import pytest

from repro.cds import greedy_connectors, steiner_connectors
from repro.graphs import is_maximal_independent_set
from repro.mis import first_fit_mis, lexicographic_mis

ORDERS = {
    "bfs-first-fit": lambda g: list(first_fit_mis(g).nodes),
    "lexicographic": lexicographic_mis,
}


@pytest.mark.parametrize("order", list(ORDERS))
def test_mis_order_to_cds(benchmark, order, udg60):
    def build():
        mis = ORDERS[order](udg60)
        try:
            connectors, _, _ = greedy_connectors(udg60, mis)
        except ValueError:
            # Only the BFS first-fit order guarantees the 2-hop
            # separation Lemma 9 needs; other orders occasionally leave
            # dominator components 3 hops apart, where the Steiner
            # bridge still applies.
            connectors = steiner_connectors(udg60, mis)
        return mis, connectors

    mis, connectors = benchmark(build)
    assert is_maximal_independent_set(udg60, mis)
    total = len(set(mis) | set(connectors))
    # Sanity band: every order yields a backbone within 3x of |I|.
    assert len(mis) <= total <= 3 * len(mis)
