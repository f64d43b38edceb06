"""Lazy-heap gain maximisation for the Section IV greedy.

The array kernel's tracker (``kernel="array"``: the CSR view plus this
heap), the counterpart of
:class:`~repro.cds.lazy_gain.LazyGainTracker` and
:class:`~repro.cds.bitset_gain.BitsetGainTracker`.  The bitset tracker
owns the mid range, but both its memory and its per-round cost scale
with ``n`` (``n²/8``-byte masks, ``⌈n/64⌉``-word ops per whole-mask
step).  This tracker keeps every per-round step proportional to the
work the round causes, and each step is a few dozen plain-Python
operations on the CSR lists, so no per-round numpy call overhead
either:

* **Eager component labels.**  ``comp[i]`` is the root of included id
  ``i``'s component (``-1`` for ids not yet included), relabelled
  eagerly on merge: the smaller parts' member lists are rewritten into
  the largest part, ``O(n log n)`` ids moved over a whole run.  A
  candidate's gain is then one pass over its CSR row:
  ``|{comp[u] : u ∈ N(c)} \\ {-1}| − 1``.

* **A CELF lazy max-heap per tie-break** (Leskovec et al., KDD 2007).
  Entries are ``(-gain, rank, id)`` (``min``), ``(-gain, -rank, id)``
  (``max``) or ``(-gain, -degree, rank, id)`` (``degree``), where rank
  is the node's position in ascending value order, followed by the
  number of :meth:`add` calls made when the entry was scored.  An entry
  is exact only while that number is current.  A candidate's gain can
  rise only when it gains an included neighbor, so :meth:`add` checks
  ``w``'s non-included neighbors and pushes a fresh entry for each one
  whose gain rose into every built heap; everywhere else gains only
  fall, so each node's highest entry bounds its gain from above.
  :meth:`best_connector` therefore pops a stale top, re-scores it and
  pushes it back, until the top is exact — and an exact top beats every
  bound below it.

* **One numpy batch per heap build.**  A heap is built on a tie-break's
  first use by scoring the whole frontier ``N(I ∪ U) \\ (I ∪ U)`` at
  once: gather the rows (:func:`~repro.graphs.indexed.gather_rows`,
  over :meth:`~repro.graphs.indexed.IndexedGraph.arrays`), keep
  the included neighbors and count distinct ``owner·n + root`` keys.

Graphs whose nodes are not mutually orderable fall back to the lazy
tracker's explicit ascending-id scan with value comparisons.

Selections are **bit-identical** to both other trackers (and so to the
reference :class:`~repro.cds.gain.GainTracker`) under every tie-break
mode; ``tests/cds/test_array_gain.py`` pins the full ``(node, gain)``
sequence across all three kernels and step-locks this tracker against
the lazy one.  Counters: ``gain.dsu_unions`` keeps its per-merge
meaning, ``gain.evaluations`` counts candidate scorings (batch members,
stale heap tops re-scored and the neighbors each :meth:`add` checks),
and ``array.gather_elements`` the CSR entries the batches gathered.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, TypeVar

import numpy as np

from ..graphs.indexed import IndexedGraph, gather_rows
from ..obs import OBS
from .gain import _smaller

N = TypeVar("N", bound=Hashable)

__all__ = ["ArrayGainTracker"]

_NO_GAIN = (
    "no node with positive gain: dominators lack 2-hop separation "
    "or the graph is disconnected"
)


class ArrayGainTracker:
    """Incremental components of ``G[I ∪ U]`` with lazy gain heaps.

    Same constructor contract, :meth:`add` / :meth:`best_connector`
    semantics and error cases as the other trackers; only the data
    layout (eager component labels, per-tie-break lazy heaps) differs.

    Args:
        index: the CSR view of the full topology ``G``.
        dominators: the phase-1 MIS ``I`` (any dominating set works;
            adjacent dominator pairs are merged permissively).
    """

    __slots__ = (
        "_index",
        "_indptr",
        "_indices",
        "_valrank",
        "_value_ranked",
        "_dominators",
        "_comp",
        "_members",
        "_components",
        "_adds",
        "_heaps",
        "_degrees",
    )

    def __init__(self, index: IndexedGraph[N], dominators: Iterable[N]):
        self._index = index
        self._indptr = index.indptr
        self._indices = index.indices
        n = len(index)
        nodes = index.nodes
        # Tie-break rank space: the view's value order when the nodes
        # admit one (heap entries then order by rank), id order plus
        # explicit value comparisons otherwise.
        order = index.value_order()
        self._value_ranked = order is not None
        if order is None:
            order = range(n)
        valrank = [0] * n
        for r, i in enumerate(order):
            valrank[i] = r
        self._valrank = valrank

        dom_ids = set()
        for d in dominators:
            if d not in index:
                raise KeyError(f"dominator {d!r} not in graph")
            dom_ids.add(index.id_of(d))
        if not dom_ids:
            raise ValueError("dominator set must be non-empty")
        self._dominators = frozenset(nodes[i] for i in dom_ids)

        # Components of G[I]: one per dominator, minus permissive merges
        # of adjacent (non-independent) dominator pairs.
        comp = [-1] * n
        for d in dom_ids:
            comp[d] = d
        self._comp = comp
        self._members = {d: [d] for d in dom_ids}
        self._components = len(dom_ids)
        self._adds = 0
        #: per-tie-break lazy max-heaps, built on first use.
        self._heaps: dict[str, list] = {}
        self._degrees: list[int] | None = None
        dom_arr = np.array(sorted(dom_ids), dtype=np.int64)
        nbrs, counts = gather_rows(*index.arrays(), dom_arr)
        included = np.zeros(n, dtype=bool)
        included[dom_arr] = True
        inc_mask = included[nbrs]
        if inc_mask.any():
            # A proper MIS has no included-included arcs; this loop only
            # runs for permissive (non-independent) dominating sets.
            owners = np.repeat(dom_arr, counts)[inc_mask]
            for v, u in zip(owners.tolist(), nbrs[inc_mask].tolist()):
                if comp[v] != comp[u]:
                    self._merge([comp[v], comp[u]])

    # -- read API (mirrors LazyGainTracker) ------------------------------------

    @property
    def included(self) -> frozenset:
        """``I ∪ U`` so far, as original node objects."""
        nodes = self._index.nodes
        return frozenset(nodes[i] for i, r in enumerate(self._comp) if r >= 0)

    @property
    def dominators(self) -> frozenset:
        return self._dominators

    @property
    def component_count(self) -> int:
        """``q(U)`` for the current ``U``."""
        return self._components

    def adjacent_components(self, w: N) -> set:
        """Roots of the components of ``G[I ∪ U]`` adjacent to ``w``.

        Roots are original node objects (of arbitrary representatives),
        one per adjacent component.
        """
        nodes = self._index.nodes
        return {nodes[r] for r in self._roots_of(self._index.id_of(w))}

    def gain(self, w: N) -> int:
        """``Δ_w q(U)`` for the current ``U`` (computed fresh)."""
        wi = self._index.id_of(w)
        if self._comp[wi] >= 0:
            return 0
        return max(0, len(self._roots_of(wi)) - 1)

    def _roots_of(self, wi: int) -> set[int]:
        indptr = self._indptr
        row = self._indices[indptr[wi] : indptr[wi + 1]]
        roots = set(map(self._comp.__getitem__, row))
        roots.discard(-1)
        return roots

    # -- mutation -------------------------------------------------------------

    def _merge(self, parts: list[int]) -> None:
        """Relabel the components rooted at ``parts`` into the largest
        of them (ties to the smallest root id)."""
        members = self._members
        base = min(parts, key=lambda r: (-len(members[r]), r))
        comp = self._comp
        target = members[base]
        for r in parts:
            if r != base:
                moved = members.pop(r)
                for u in moved:
                    comp[u] = base
                target.extend(moved)
        self._components -= len(parts) - 1

    def add(self, w: N) -> int:
        """Add ``w`` to ``U`` and return the gain it realized.

        Merges ``w`` with its adjacent components (weighted relabel
        into the largest part).  A non-included neighbor ``c`` of ``w``
        is the only kind of node whose gain can rise, and it rises (by
        one) exactly when none of ``c``'s adjacent components touches
        ``w``; each such ``c`` gets a fresh entry in every built heap.

        Raises:
            ValueError: if ``w`` is already included.
        """
        wi = self._index.id_of(w)
        comp = self._comp
        if comp[wi] >= 0:
            raise ValueError(f"{w!r} already included")
        roots = self._roots_of(wi)
        heaps = self._heaps
        risen = []
        if heaps:
            indptr, indices = self._indptr, self._indices
            label = comp.__getitem__
            fresh = [c for c in indices[indptr[wi] : indptr[wi + 1]] if comp[c] < 0]
            for c in fresh:
                adjacent = set(map(label, indices[indptr[c] : indptr[c + 1]]))
                adjacent.discard(-1)
                if adjacent and adjacent.isdisjoint(roots):
                    risen.append((c, len(adjacent)))
            if OBS.enabled:
                OBS.incr("gain.evaluations", len(fresh))
        comp[wi] = wi
        self._members[wi] = [wi]
        self._components += 1
        self._merge([wi, *roots])
        self._adds += 1
        for c, g in risen:
            for tie_break, heap in heaps.items():
                heapq.heappush(heap, self._entry(tie_break, c, g))
        if OBS.enabled:
            OBS.incr("gain.dsu_unions", len(roots))
        return max(0, len(roots) - 1)

    # -- selection ------------------------------------------------------------

    def _entry(self, tie_break: str, c: int, g: int) -> tuple:
        """Heap entry for candidate ``c`` of gain ``g``, stamped with
        the current add count."""
        valrank = self._valrank
        if tie_break == "min":
            return (-g, valrank[c], c, self._adds)
        if tie_break == "max":
            return (-g, -valrank[c], c, self._adds)
        degrees = self._degrees
        if degrees is None:
            degrees = self._degrees = np.diff(self._index.arrays()[0]).tolist()
        return (-g, -degrees[c], valrank[c], c, self._adds)

    def _score_frontier(self) -> tuple[list[int], list[int]]:
        """Gains of every frontier candidate with gain >= 1, as one
        vectorized batch: ``(ids, gains)``."""
        indptr, indices = self._index.arrays()
        comp = np.array(self._comp, dtype=np.int64)
        included = comp >= 0
        nbrs, _ = gather_rows(indptr, indices, np.flatnonzero(included))
        cand = np.unique(nbrs[~included[nbrs]])
        rows, counts = gather_rows(indptr, indices, cand)
        inc_mask = included[rows]
        owners = np.repeat(np.arange(cand.size, dtype=np.int64), counts)
        n = comp.size
        # Distinct (candidate, root) pairs -> adjacent-component counts.
        pairs = np.unique(owners[inc_mask] * n + comp[rows[inc_mask]])
        gains = np.bincount(pairs // n, minlength=cand.size) - 1
        live = np.flatnonzero(gains >= 1)
        if OBS.enabled:
            OBS.incr("gain.evaluations", int(cand.size))
            OBS.incr("array.gather_elements", int(nbrs.size + rows.size))
        return cand[live].tolist(), gains[live].tolist()

    def _heap_for(self, tie_break: str) -> list:
        heap = self._heaps.get(tie_break)
        if heap is None:
            entry = self._entry
            heap = [entry(tie_break, c, g) for c, g in zip(*self._score_frontier())]
            heapq.heapify(heap)
            self._heaps[tie_break] = heap
        return heap

    def best_connector(self, tie_break: str = "min") -> tuple[N, int]:
        """The not-yet-included node of maximum gain.

        Same argmax, tie-break semantics ("min" / "max" / "degree") and
        error cases as the other trackers.  Stale heap tops are
        re-scored and pushed back until the top entry is exact.
        """
        if tie_break not in ("min", "max", "degree"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if self._components <= 1:
            raise ValueError("already connected; no connector needed")
        if not self._value_ranked:
            return self._scan_unranked(tie_break)
        heap = self._heap_for(tie_break)
        comp = self._comp
        adds = self._adds
        indptr, indices = self._indptr, self._indices
        label = comp.__getitem__
        pop, replace = heapq.heappop, heapq.heapreplace
        rescored = 0
        try:
            while heap:
                top = heap[0]
                c = top[-2]
                if comp[c] >= 0:
                    pop(heap)
                elif top[-1] == adds:
                    return self._index.nodes[c], -top[0]
                else:
                    rescored += 1
                    adjacent = set(map(label, indices[indptr[c] : indptr[c + 1]]))
                    adjacent.discard(-1)
                    g = len(adjacent) - 1
                    if g >= 1:
                        replace(heap, self._entry(tie_break, c, g))
                    else:
                        pop(heap)
            raise ValueError(_NO_GAIN)
        finally:
            if OBS.enabled:
                OBS.incr("gain.evaluations", rescored)

    def _scan_unranked(self, tie_break: str) -> tuple[N, int]:
        """Explicit ascending-id argmax for unorderable node mixes —
        the comparison structure of :meth:`LazyGainTracker.best_connector`."""
        comp = self._comp
        nodes = self._index.nodes
        degree = self._index.degree
        best_id = -1
        best_gain = 0
        for c in range(len(comp)):
            if comp[c] >= 0:
                continue
            g = len(self._roots_of(c)) - 1
            if g > best_gain:
                best_id, best_gain = c, g
                continue
            if g != best_gain or best_id < 0:
                continue
            if tie_break == "min":
                wins = _smaller(nodes[c], nodes[best_id])
            elif tie_break == "max":
                wins = _smaller(nodes[best_id], nodes[c])
            else:
                ca, cb = degree(c), degree(best_id)
                wins = ca > cb or (
                    ca == cb and _smaller(nodes[c], nodes[best_id])
                )
            if wins:
                best_id = c
        if best_id < 0:
            raise ValueError(_NO_GAIN)
        return nodes[best_id], best_gain
