"""Fault-tolerant CDS variants: ``(1, m)``- and ``(2, m)``-CDS.

The paper's backbone dies with its first node: one failed dominator
orphans its neighborhood, one failed connector splits the spine.  The
standard fixes are redundancy in both roles:

* a ``(1, m)``-CDS is a *connected m-fold dominating set* — every node
  outside the backbone has ``m`` distinct backbone neighbors (Zhang et
  al., arXiv:1510.05886 give the greedy with a provable ratio);
* a ``(2, m)``-CDS additionally keeps the backbone itself 2-connected,
  so deleting any single backbone node leaves it a connected dominating
  set (the (2,2) augmentation of Aneja et al., arXiv:1705.09643).

Both are built here on the existing substrate:

1. **Phase 1a** — the BFS first-fit MIS (identical to the paper's
   phase 1), which 1-dominates and seeds the component structure.
2. **Phase 1b** — the m-coverage greedy: repeatedly add the node
   closing the most remaining coverage *deficit* (its own ``m − cov``
   demand if still outside, plus one per deficient neighbor).  The
   frontier/dirty-cache pattern of
   :class:`~repro.cds.lazy_gain.LazyGainTracker` keeps re-scores to
   the 2-hop neighborhood of each addition; ``mfold.deficit_evaluations``
   counts cache misses only.
3. **Phase 2** — the Section IV greedy connectors over the full
   dominator set (every component of ``G[D]`` contains an MIS node, so
   Lemma 9 still supplies a positive-gain connector), reusing
   :func:`~repro.cds.greedy_connector.greedy_connectors` and therefore
   every kernel's gain tracker unchanged.
4. **Augmentation** (``(2, m)`` only) — while the induced backbone has
   a cut vertex, patch it with the shortest *ear*: a minimum-hop path
   through non-backbone nodes joining two of the components its removal
   leaves.  Each ear strictly grows the backbone, so the loop
   terminates; it needs the underlying graph to be 2-connected (a
   ``(2, m)``-CDS cannot exist otherwise), which is checked up front
   via :func:`repro.graphs.biconnectivity.is_k_connected`.

Survivability: with ``m >= 2`` the output of
:func:`mfold_2conn_cds` stays a connected dominating set after deleting
any single backbone node
(:func:`repro.graphs.properties.survives_node_removal`; property-tested
in ``tests/properties/test_variant_invariants.py``) — non-members keep
``m − 1 >= 1`` dominators, the backbone stays connected because no
member is a cut vertex of it, and the dead member is itself dominated
by a backbone neighbor.

Selections are bit-identical across kernels: phases 1b and the
augmentation run on the interned CSR rows every kernel view carries,
and phase 2 runs on the kernel's own tracker, which is already pinned
bit-identical by the equivalence suites.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence, TypeVar

from ..graphs.backend import adjacency_rows, build_kernel, choose_kernel
from ..graphs.biconnectivity import articulation_ids, is_k_connected
from ..graphs.bitset import BitsetGraph
from ..graphs.graph import Graph
from ..mis.first_fit import _smallest_node, first_fit_mis_nodes
from ..obs import OBS, trace
from .base import CDSResult
from .gain import _smaller
from .greedy_connector import greedy_connectors

N = TypeVar("N", bound=Hashable)

__all__ = [
    "augment_biconnected",
    "mfold_2conn_cds",
    "mfold_dominators",
    "mfold_greedy_cds",
]


def _wins_tie(index, challenger: int, incumbent: int, tie_break: str) -> bool:
    """The shared gain tie-break on interned ids (mirrors the trackers)."""
    if incumbent < 0:
        return True
    nodes = index.nodes
    if tie_break == "min":
        return _smaller(nodes[challenger], nodes[incumbent])
    if tie_break == "max":
        return _smaller(nodes[incumbent], nodes[challenger])
    ca = index.degree(challenger)
    cb = index.degree(incumbent)
    if ca != cb:
        return ca > cb
    return _smaller(nodes[challenger], nodes[incumbent])


def mfold_dominators(
    index, seed_dominators: Iterable[N], m: int, tie_break: str = "min"
) -> list[N]:
    """Extend a dominating set to an m-fold dominating set, greedily.

    Args:
        index: any kernel view of the topology.
        seed_dominators: the phase-1a set (typically the first-fit
            MIS); kept in full, extension nodes are appended after it.
        m: the coverage multiplicity (``m >= 1``).
        tie_break: deficit-gain tie resolution, same modes as the
            connector trackers ("min" / "max" / "degree").

    Returns:
        The seed nodes (original order) followed by the extension nodes
        in selection order.

    The gain of a candidate ``w`` is the total coverage deficit its
    addition erases: ``max(0, m − cov(w))`` for itself plus one per
    deficient non-member neighbor.  A deficient node is its own
    positive-gain candidate, so the loop always progresses and
    feasibility never needs a special case (nodes with ``deg < m`` end
    up inside, as they must).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    if tie_break not in ("min", "max", "degree"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    rows = adjacency_rows(index)
    n = len(rows)
    member = bytearray(n)
    seed = list(seed_dominators)
    for d in seed:
        member[index.id_of(d)] = 1
    cov = [0] * n
    for v in range(n):
        if member[v]:
            for u in rows[v]:
                cov[u] += 1
    deficient = {
        v for v in range(n) if not member[v] and cov[v] < m
    }
    if not deficient:
        return seed
    # Candidates: every non-member whose addition erases some deficit —
    # the deficient nodes themselves plus their non-member neighbors.
    candidates: set[int] = set()
    for v in deficient:
        candidates.add(v)
        for u in rows[v]:
            if not member[u]:
                candidates.add(u)
    gain_cache: dict[int, int] = {}
    added: list[N] = []
    evaluations = 0
    while deficient:
        best_id, best_gain = -1, 0
        for c in sorted(candidates):
            g = gain_cache.get(c)
            if g is None:
                g = max(0, m - cov[c]) + sum(
                    1 for u in rows[c] if not member[u] and cov[u] < m
                )
                gain_cache[c] = g
                evaluations += 1
            if g > best_gain or (
                g == best_gain > 0 and _wins_tie(index, c, best_id, tie_break)
            ):
                best_id, best_gain = c, g
        assert best_gain >= 1, "a deficient node is always its own candidate"
        w = best_id
        member[w] = 1
        deficient.discard(w)
        candidates.discard(w)
        gain_cache.pop(w, None)
        # Coverage changes only on N(w); gains depend on a node's own
        # deficit and its neighbors', so the dirty set is N(w) plus the
        # neighbors of any node whose deficit just moved — the 2-hop
        # ball around w (the LazyGainTracker invalidation pattern).
        for u in rows[w]:
            cov[u] += 1
            gain_cache.pop(u, None)
            if not member[u] and cov[u] >= m:
                deficient.discard(u)
            if cov[u] <= m:  # deficit moved (m−cov crossed downward)
                for x in rows[u]:
                    gain_cache.pop(x, None)
        for v in list(candidates):
            # Cheap prune: candidates that can no longer gain drop out.
            if gain_cache.get(v) == 0:
                candidates.discard(v)
        added.append(index.node_at(w))
    if OBS.enabled:
        OBS.incr("mfold.deficit_evaluations", evaluations)
        OBS.incr("mfold.coverage_added", len(added))
    return seed + added


def mfold_greedy_cds(
    graph: Graph[N],
    m: int = 2,
    root: N | None = None,
    tie_break: str = "min",
    kernel: str = "auto",
) -> CDSResult:
    """The greedy ``(1, m)``-CDS: connected m-fold dominating set.

    Phase 1a/1b/2 as described in the module docstring.  ``m=1``
    degenerates to the paper's Section IV algorithm (same node set; the
    coverage extension is a no-op because the MIS already 1-dominates).

    Args:
        graph: a connected topology.
        m: coverage multiplicity (``m >= 1``; default 2, the smallest
            fault-tolerant setting).
        root: phase-1 BFS root; defaults to the smallest node.
        tie_break: selection tie resolution for phases 1b and 2.
        kernel: kernel choice, as for the other kernelized solvers.

    Returns:
        :class:`CDSResult` with ``dominators`` = the m-fold dominating
        set (MIS first, coverage extensions after) and ``connectors`` =
        the phase-2 connectors; ``meta`` records ``m``, the gain
        trajectory, and the phase-1b size.

    Raises:
        ValueError: empty/disconnected graph, ``m < 1``, bad kernel.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    if len(graph) == 1:
        only = next(iter(graph))
        return CDSResult(
            algorithm="mfold-greedy",
            nodes=frozenset([only]),
            dominators=(only,),
            connectors=(),
            meta={"m": m, "coverage_added": 0},
        )
    kernel = choose_kernel(len(graph), kernel)
    index = build_kernel(graph, kernel)
    if isinstance(index, BitsetGraph):
        index.neighbor_masks
    if root is None:
        root = _smallest_node(graph)
    with trace("mfold.phase1"):
        mis_nodes = first_fit_mis_nodes(graph, root, index=index)
        dominators = mfold_dominators(index, mis_nodes, m, tie_break)
    with trace("mfold.phase2"):
        connectors, gains, q_values = greedy_connectors(
            graph, dominators, tie_break, index, kernel
        )
    return CDSResult(
        algorithm="mfold-greedy",
        nodes=frozenset(dominators) | frozenset(connectors),
        dominators=tuple(dominators),
        connectors=tuple(connectors),
        meta={
            "m": m,
            "root": root,
            "coverage_added": len(dominators) - len(mis_nodes),
            "gain_history": tuple(gains),
            "q_history": tuple(q_values),
        },
    )


def _induced_rows(rows: Sequence, member: bytearray, skip: int = -1):
    """Adjacency rows of the induced subgraph on ``member`` (minus
    ``skip``), relabeled to compact local ids.

    Returns ``(local_rows, locals_)`` where ``locals_[i]`` is the dense
    global id of local node ``i``, in ascending global-id order.
    """
    locals_ = [
        v for v in range(len(rows)) if member[v] and v != skip
    ]
    local_of = {v: i for i, v in enumerate(locals_)}
    local_rows = [
        [local_of[u] for u in rows[v] if member[u] and u != skip]
        for v in locals_
    ]
    return local_rows, locals_


def augment_biconnected(
    graph: Graph[N], backbone: Iterable[N], index=None
) -> tuple[list[N], int]:
    """Patch every cut vertex of the induced backbone via shortest ears.

    While ``G[S]`` has a cut vertex ``v``, find the minimum-hop path in
    ``G − v`` from the first component of ``G[S] − v`` to any other,
    routed through non-backbone nodes, and absorb its interior into
    ``S``.  Each ear adds at least one new node (two components of
    ``G[S] − v`` directly adjacent would be one component), so at most
    ``n − |S|`` iterations run.

    Args:
        graph: the topology; must be 2-connected when it has >= 3 nodes
            (otherwise some cut vertex of the *graph* is unpatchable).
        backbone: a connected dominating node set to harden.
        index: optional prebuilt kernel view of ``graph``.

    Returns:
        ``(ear_nodes, cut_vertices_repaired)`` — the added nodes in
        selection order and the number of patch iterations.

    Raises:
        ValueError: if ``graph`` has >= 3 nodes but is not 2-connected.
    """
    if index is None:
        index = build_kernel(graph, "indexed")
    rows = adjacency_rows(index)
    n = len(rows)
    if n >= 3 and not is_k_connected(index, 2):
        raise ValueError(
            "graph is not 2-connected; no (2,m)-CDS exists "
            "(a cut vertex of the graph itself cannot be patched)"
        )
    member = bytearray(n)
    for b in backbone:
        member[index.id_of(b)] = 1
    ears: list[N] = []
    repairs = 0
    while True:
        local_rows, locals_ = _induced_rows(rows, member)
        cuts = articulation_ids(local_rows)
        if not cuts:
            break
        v = locals_[cuts[0]]  # smallest global id → deterministic
        # Components of G[S] − v, over compact local ids.
        comp_rows, comp_locals = _induced_rows(rows, member, skip=v)
        comp_of = _component_labels(comp_rows)
        # Multi-source BFS in G − v from component 0, expanding through
        # non-backbone nodes, stopping at the first other-component
        # backbone node.  Adjacency order ties keep this deterministic.
        parent = {g: -1 for i, g in enumerate(comp_locals) if comp_of[i] == 0}
        queue = deque(sorted(parent))
        target = -1
        comp_of_global = {
            g: comp_of[i] for i, g in enumerate(comp_locals)
        }
        while queue and target < 0:
            x = queue.popleft()
            for u in rows[x]:
                if u == v or u in parent:
                    continue
                if member[u]:
                    if comp_of_global[u] != 0:
                        parent[u] = x
                        target = u
                        break
                    continue  # same-component backbone: not a source, skip
                parent[u] = x
                queue.append(u)
        assert target >= 0, "2-connected graph must reconnect the split"
        node = parent[target]
        while node >= 0 and not member[node]:
            member[node] = 1
            ears.append(index.node_at(node))
            node = parent[node]
        repairs += 1
    if OBS.enabled:
        OBS.incr("mfold.cut_vertices_repaired", repairs)
        OBS.incr("mfold.ear_nodes_added", len(ears))
    return ears, repairs


def _component_labels(rows: Sequence) -> list[int]:
    """Connected-component label per node, labels in first-seen order."""
    n = len(rows)
    label = [-1] * n
    current = 0
    for s in range(n):
        if label[s] != -1:
            continue
        label[s] = current
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in rows[v]:
                    if label[u] == -1:
                        label[u] = current
                        nxt.append(u)
            frontier = nxt
        current += 1
    return label


def mfold_2conn_cds(
    graph: Graph[N],
    m: int = 2,
    root: N | None = None,
    tie_break: str = "min",
    kernel: str = "auto",
) -> CDSResult:
    """The ``(2, m)``-CDS: a ``(1, m)``-CDS hardened to survive any
    single backbone death.

    Runs :func:`mfold_greedy_cds` and then
    :func:`augment_biconnected`.  With the default ``m=2`` the result
    passes :func:`repro.graphs.properties.survives_node_removal`:
    deleting any one backbone node leaves a connected dominating set.
    (``m=1`` is accepted — the backbone is still 2-connected — but
    singly-dominated neighbors of the dead node lose coverage, so only
    the backbone itself is guaranteed to survive.)

    Raises:
        ValueError: empty/disconnected input, ``m < 1``, or a graph
            with >= 3 nodes that is not 2-connected (no ``(2, m)``-CDS
            exists there).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    if len(graph) == 1:
        only = next(iter(graph))
        return CDSResult(
            algorithm="mfold-2conn",
            nodes=frozenset([only]),
            dominators=(only,),
            connectors=(),
            meta={"m": m, "cut_vertices_repaired": 0, "augmentation_cost": 0},
        )
    index = build_kernel(graph, kernel)
    base = mfold_greedy_cds(graph, m, root, tie_break, kernel)
    with trace("mfold.augment"):
        ears, repairs = augment_biconnected(graph, base.nodes, index)
    meta = dict(base.meta)
    meta.update(cut_vertices_repaired=repairs, augmentation_cost=len(ears))
    return CDSResult(
        algorithm="mfold-2conn",
        nodes=base.nodes | frozenset(ears),
        dominators=base.dominators,
        connectors=base.connectors + tuple(ears),
        meta=meta,
    )
