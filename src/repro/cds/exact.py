"""Exact minimum connected dominating set — ``gamma_c(G)``.

The paper proves worst-case ratios; to *measure* ratios on sampled
instances we need the true optimum.  Minimum CDS is NP-hard, so this is
a branch-and-bound over connected vertex subsets, built for the
experiment sizes (n up to ~35 on UDG densities):

* iterate target sizes ``k`` from a certified lower bound upward;
* enumerate connected induced subsets of size ``k`` by growing a
  frontier (each subset is generated once via the standard
  "extension only by higher-indexed border nodes" trick);
* prune a partial subset when even ``(k - |S|)`` more nodes of maximum
  closed-neighborhood size cannot dominate the rest.

Lower bounds used: the trivial ``n / (Δ+1)`` domination bound and the
paper's own Corollary 7 inverted (``gamma_c >= 3(alpha' - 1)/11`` for
any independent set of size ``alpha'`` — we feed it a cheap MIS).

:func:`minimum_mfold_cds` generalizes the same search to the exact
minimum ``(1, m)``-CDS (connected m-fold dominating set), which is what
makes the empirical ratios of :mod:`repro.cds.mfold` measurable.  The
m-fold feasibility test counts per-node coverage instead of unioning
closed neighborhoods, and the seeding uses
:func:`gamma_mfold_lower_bound` — the naive ``n / (Δ+1)`` bound is
*wrong* for ``m > 1`` (it ignores that each non-member consumes ``m``
units of supply, and that nodes with ``deg < m`` are forced members).
"""

from __future__ import annotations

import math
from typing import Hashable, TypeVar

from ..graphs.graph import Graph
from ..graphs.properties import is_connected_dominating_set, is_m_fold_cds
from ..graphs.traversal import is_connected
from ..mis.greedy import lexicographic_mis
from .bounds import gamma_c_lower_bound_from_alpha

N = TypeVar("N", bound=Hashable)

__all__ = [
    "minimum_cds",
    "minimum_mfold_cds",
    "connected_domination_number",
    "gamma_c_lower_bound",
    "gamma_mfold_lower_bound",
]


def gamma_c_lower_bound(graph: Graph[N]) -> int:
    """A certified lower bound on ``gamma_c``.

    Max of the degree bound ``ceil(n / (Δ+1))`` (any dominating set
    needs that many nodes) and the Corollary 7 bound fed with a greedy
    MIS (valid because ``|MIS| <= alpha``).  Returns at least 1.
    """
    n = len(graph)
    if n <= 1:
        return min(n, 1)
    degree_bound = math.ceil(n / (graph.max_degree() + 1))
    mis_size = len(lexicographic_mis(graph))
    corollary_bound = gamma_c_lower_bound_from_alpha(mis_size)
    return max(1, degree_bound, corollary_bound)


def gamma_mfold_lower_bound(graph: Graph[N], m: int) -> int:
    """A certified lower bound on ``gamma_{c,m}`` (minimum (1,m)-CDS).

    The max of four valid bounds:

    * ``min(m, n)`` — a proper subset leaves some node outside, and
      that node alone needs ``m`` distinct dominators;
    * the **demand bound** ``ceil(m*n / (Δ + m))`` — every node carries
      ``m`` units of demand (members meet their own by membership,
      capacity ``m``; each member supplies at most one unit to each of
      its ``<= Δ`` neighbors), so supply ``|D|(Δ + m)`` must cover
      demand ``m*n``.  At ``m=1`` this is exactly the classic
      ``n/(Δ+1)``;
    * the **forced-member count** ``|{v : deg(v) < m}|`` — a node with
      fewer than ``m`` neighbors can never be m-dominated from outside,
      so it must be in every m-fold dominating set.  This is the
      closed-neighborhood-deficit bound the naive seed misses: on the
      star ``K_{1,5}`` with ``m=2`` it certifies 5 while ``n/(Δ+1)``
      says 1;
    * :func:`gamma_c_lower_bound` — a connected m-fold dominating set
      is in particular a CDS, so every ``gamma_c`` bound applies.

    Raises:
        ValueError: for ``m < 1``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    n = len(graph)
    if n <= 1:
        return min(n, 1)
    max_deg = graph.max_degree()
    demand_bound = math.ceil(m * n / (max_deg + m))
    forced = sum(1 for v in graph if graph.degree(v) < m)
    return max(min(m, n), demand_bound, forced, gamma_c_lower_bound(graph))


def minimum_cds(graph: Graph[N], upper_bound: int | None = None) -> list[N]:
    """A minimum connected dominating set of a connected graph.

    Args:
        graph: connected, non-empty.
        upper_bound: optional known CDS size (e.g. from a heuristic);
            the search never considers sizes above it.

    Returns:
        An optimal CDS as a list (in discovery order).

    Raises:
        ValueError: if the graph is empty or disconnected.
    """
    n = len(graph)
    if n == 0:
        raise ValueError("minimum CDS of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("graph must be connected")
    if n == 1:
        return [next(iter(graph))]
    # gamma_c = 1 iff some node dominates everything.
    for v in graph:
        if graph.degree(v) == n - 1:
            return [v]

    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    closed: dict[N, set[N]] = {v: graph.closed_neighborhood(v) for v in nodes}
    max_closed = max(len(c) for c in closed.values())
    all_nodes = set(nodes)

    hi = upper_bound if upper_bound is not None else n
    lo = gamma_c_lower_bound(graph)

    for k in range(lo, hi + 1):
        found = _search_size_k(graph, nodes, index, closed, max_closed, all_nodes, k)
        if found is not None:
            return found
    raise AssertionError("no CDS found up to the upper bound; bound was wrong")


def _search_size_k(
    graph: Graph[N],
    nodes: list[N],
    index: dict[N, int],
    closed: dict[N, set[N]],
    max_closed: int,
    all_nodes: set[N],
    k: int,
) -> list[N] | None:
    """Find a connected dominating subset of exactly ``k`` nodes, or None.

    Enumerates connected subsets by seed + frontier extension.  To avoid
    generating a subset once per seed, the seed is required to be the
    *minimum-index* node of the subset: extensions only use nodes of
    higher index than the seed.
    """

    def dominated(subset: list[N]) -> bool:
        cover: set[N] = set()
        for v in subset:
            cover |= closed[v]
        return cover == all_nodes

    def prune(subset: list[N], slots_left: int) -> bool:
        """True if the partial subset can be pruned."""
        cover: set[N] = set()
        for v in subset:
            cover |= closed[v]
        return len(all_nodes) - len(cover) > slots_left * max_closed

    def extend(
        subset: list[N], border: list[N], forbidden: set[N], seed_idx: int
    ) -> list[N] | None:
        if len(subset) == k:
            return list(subset) if dominated(subset) else None
        if prune(subset, k - len(subset)):
            return None
        in_subset = set(subset)
        for i, w in enumerate(border):
            # Border nodes before w are *rejected* in this branch: a
            # subset containing any of them is generated by the sibling
            # branch that picked it, which keeps enumeration duplicate-free.
            branch_forbidden = forbidden | set(border[:i])
            new_border = list(border[i + 1 :])
            on_border = set(new_border)
            for u in graph.neighbors(w):
                if (
                    index[u] > seed_idx
                    and u not in in_subset
                    and u != w
                    and u not in branch_forbidden
                    and u not in on_border
                ):
                    new_border.append(u)
                    on_border.add(u)
            result = extend(subset + [w], new_border, branch_forbidden, seed_idx)
            if result is not None:
                return result
        return None

    for seed in nodes:
        si = index[seed]
        border = [u for u in graph.neighbors(seed) if index[u] > si]
        result = extend([seed], border, set(), si)
        if result is not None:
            assert is_connected_dominating_set(graph, result)
            return result
    return None


def minimum_mfold_cds(
    graph: Graph[N], m: int, upper_bound: int | None = None
) -> list[N]:
    """A minimum ``(1, m)``-CDS (connected m-fold dominating set).

    Same branch-and-bound skeleton as :func:`minimum_cds` — sizes from
    :func:`gamma_mfold_lower_bound` upward, connected subsets via the
    min-index-seed frontier enumeration — with m-aware feasibility
    (every non-member needs ``m`` subset neighbors) and pruning (one
    more member erases at most ``m + Δ`` units of remaining coverage
    deficit).  ``D = V`` is always feasible on a connected graph, so
    the search terminates.

    Args:
        graph: connected, non-empty.
        m: coverage multiplicity (``m >= 1``).
        upper_bound: optional known (1,m)-CDS size to cap the search.

    Returns:
        An optimal (1,m)-CDS as a list (in discovery order).

    Raises:
        ValueError: empty/disconnected graph or ``m < 1``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    n = len(graph)
    if n == 0:
        raise ValueError("minimum (1,m)-CDS of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("graph must be connected")
    if n == 1:
        return [next(iter(graph))]
    if m == 1:
        for v in graph:
            if graph.degree(v) == n - 1:
                return [v]

    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    max_deg = graph.max_degree()

    hi = upper_bound if upper_bound is not None else n
    lo = gamma_mfold_lower_bound(graph, m)

    for k in range(lo, hi + 1):
        found = _search_mfold_size_k(graph, nodes, index, m, max_deg, k)
        if found is not None:
            return found
    raise AssertionError("no (1,m)-CDS found up to the upper bound; bound was wrong")


def _search_mfold_size_k(
    graph: Graph[N],
    nodes: list[N],
    index: dict[N, int],
    m: int,
    max_deg: int,
    k: int,
) -> list[N] | None:
    """A connected m-fold dominating subset of exactly ``k`` nodes, or None.

    The enumeration is the duplicate-free seed + frontier scheme of
    :func:`_search_size_k`; only the feasibility and prune predicates
    change.
    """

    def coverage(subset: list[N]) -> dict[N, int]:
        cnt: dict[N, int] = {}
        for w in subset:
            for u in graph.neighbors(w):
                cnt[u] = cnt.get(u, 0) + 1
        return cnt

    def dominated(subset: list[N]) -> bool:
        in_subset = set(subset)
        cnt = coverage(subset)
        return all(v in in_subset or cnt.get(v, 0) >= m for v in nodes)

    def prune(subset: list[N], slots_left: int) -> bool:
        in_subset = set(subset)
        cnt = coverage(subset)
        deficit = sum(
            max(0, m - cnt.get(v, 0)) for v in nodes if v not in in_subset
        )
        # A new member erases its own deficit (<= m) and supplies one
        # unit to each of its <= Δ neighbors.
        return deficit > slots_left * (m + max_deg)

    def extend(
        subset: list[N], border: list[N], forbidden: set[N], seed_idx: int
    ) -> list[N] | None:
        if len(subset) == k:
            return list(subset) if dominated(subset) else None
        if prune(subset, k - len(subset)):
            return None
        in_subset = set(subset)
        for i, w in enumerate(border):
            branch_forbidden = forbidden | set(border[:i])
            new_border = list(border[i + 1 :])
            on_border = set(new_border)
            for u in graph.neighbors(w):
                if (
                    index[u] > seed_idx
                    and u not in in_subset
                    and u != w
                    and u not in branch_forbidden
                    and u not in on_border
                ):
                    new_border.append(u)
                    on_border.add(u)
            result = extend(subset + [w], new_border, branch_forbidden, seed_idx)
            if result is not None:
                return result
        return None

    for seed in nodes:
        si = index[seed]
        border = [u for u in graph.neighbors(seed) if index[u] > si]
        result = extend([seed], border, set(), si)
        if result is not None:
            assert is_m_fold_cds(graph, result, m)
            return result
    return None


def connected_domination_number(graph: Graph[N]) -> int:
    """``gamma_c(G)``: the size of a minimum CDS."""
    return len(minimum_cds(graph))

