"""Candidate-restricted lazy gain maximisation for the Section IV greedy.

:class:`~repro.cds.gain.GainTracker` re-scores **every** node of ``G``
on every connector round — ``O(n)`` gain evaluations per selection,
the dominant cost in the historical `BENCH_baseline.json`
(`gain.evaluations` = 2525 for 25 selections on the 150-node fixture).  Two structural facts make
almost all of that work redundant:

* **Candidate restriction.**  A node ``w ∉ I ∪ U`` has
  ``Δ_w q(U) ≥ 1`` only if it is adjacent to at least two components of
  ``G[I ∪ U]`` — in particular to at least one *included* node.  (This
  is the observation behind Lemma 9: because ``I`` is dominating, a
  useful connector is always a neighbor of the included set.)  So the
  argmax scan may be restricted to the frontier ``N(I ∪ U) \\ (I ∪ U)``
  without changing its outcome: every excluded node has gain 0 and a
  full scan never selects a zero-gain node (it raises instead).

* **Dirty-set invalidation.**  ``Δ_w q(U)`` is ``|{components of
  G[I ∪ U] adjacent to w}| − 1``.  That count changes only when (a) a
  component ``w`` was counted merges with anything, or (b) ``w`` gains
  a newly included neighbor.  Both happen only inside :meth:`add`, so a
  cached score stays exact until one of its *watched* component roots
  participates in a merge, or the added node is adjacent to ``w``.

:class:`LazyGainTracker` maintains exactly that: a candidate frontier,
a per-candidate cached gain, and a ``root → watching candidates`` map
driving invalidation.  Selections are **bit-identical** to the full
rescan under every tie-break mode — candidates are scanned in interned
id order, which is the source graph's iteration order, with the same
strict-improvement comparison — while ``gain.evaluations`` now counts
only genuine re-scores (cache misses), typically ``O(Δ)`` per round
instead of ``O(n)``.  The randomized equivalence suite in
``tests/cds/test_lazy_gain.py`` pins the equivalence against
:class:`~repro.cds.gain.GainTracker` on both counts.

The tracker runs on the interned CSR kernel
(:class:`repro.graphs.indexed.IndexedGraph`), so the inner loops index
flat arrays instead of hashing nodes; node objects appear only at the
API boundary (arguments, results, and tie comparisons, which must
compare the *original* node values to preserve semantics).
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from ..graphs.components import IntUnionFind
from ..graphs.indexed import IndexedGraph
from ..obs import OBS
from .gain import _smaller

N = TypeVar("N", bound=Hashable)

__all__ = ["LazyGainTracker"]


class LazyGainTracker:
    """Incremental components of ``G[I ∪ U]`` with lazy gain caching.

    The drop-in fast replacement for
    :class:`~repro.cds.gain.GainTracker` inside the greedy connector
    loop: same constructor contract (graph-wide topology plus the
    phase-1 dominators), same :meth:`add` / :meth:`best_connector`
    semantics and error cases, same counters except that
    ``gain.evaluations`` only counts actual re-scores.

    Args:
        index: the interned CSR view of the full topology ``G``
            (build once with :meth:`IndexedGraph.from_graph`).
        dominators: the phase-1 MIS ``I`` (any dominating set works;
            adjacent dominator pairs are merged permissively, exactly
            as :class:`~repro.cds.gain.GainTracker` does).
    """

    def __init__(self, index: IndexedGraph[N], dominators: Iterable[N]):
        self._index = index
        n = len(index)
        indptr, indices = index.indptr, index.indices
        included = bytearray(n)
        for d in dominators:
            if d not in index:
                raise KeyError(f"dominator {d!r} not in graph")
            included[index.id_of(d)] = 1
        self._included = included
        self._included_count = sum(included)
        if not self._included_count:
            raise ValueError("dominator set must be non-empty")
        self._dominators = frozenset(
            index.node_at(i) for i in range(n) if included[i]
        )
        # Components of G[I]: one per dominator, minus permissive merges
        # of adjacent (non-independent) dominator pairs.
        dsu = IntUnionFind(n)
        self._dsu = dsu
        components = self._included_count
        candidates: set[int] = set()
        for v in range(n):
            if not included[v]:
                continue
            for u in indices[indptr[v] : indptr[v + 1]]:
                if included[u]:
                    if dsu.union(u, v):
                        components -= 1
                else:
                    candidates.add(u)
        self._components = components
        self._candidates = candidates
        #: candidate id -> cached gain (exact while present).
        self._gain_cache: dict[int, int] = {}
        #: component root -> candidate ids whose cached score counted it.
        self._watchers: dict[int, set[int]] = {}

    # -- read API (mirrors GainTracker) ---------------------------------------

    @property
    def included(self) -> frozenset:
        """``I ∪ U`` so far, as original node objects."""
        index = self._index
        included = self._included
        return frozenset(
            index.node_at(i) for i in range(len(index)) if included[i]
        )

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
        index = self._index
        return {index.node_at(r) for r in self._adjacent_roots(index.id_of(w))}

    def gain(self, w: N) -> int:
        """``Δ_w q(U)`` for the current ``U`` (computed fresh)."""
        wi = self._index.id_of(w)
        if self._included[wi]:
            return 0
        return max(0, len(self._adjacent_roots(wi)) - 1)

    def _adjacent_roots(self, wi: int) -> set[int]:
        indptr, indices = self._index.indptr, self._index.indices
        included = self._included
        find = self._dsu.find
        return {
            find(u) for u in indices[indptr[wi] : indptr[wi + 1]] if included[u]
        }

    # -- mutation -------------------------------------------------------------

    def add(self, w: N) -> int:
        """Add ``w`` to ``U`` and return the gain it realized.

        Performs the component merges and then invalidates exactly the
        caches the merge could have changed: every candidate watching a
        merged component, plus every non-included neighbor of ``w``
        (which both becomes/stays a candidate and gains an included
        neighbor).

        Raises:
            ValueError: if ``w`` is already included.
        """
        index = self._index
        wi = index.id_of(w)
        included = self._included
        if included[wi]:
            raise ValueError(f"{w!r} already included")
        roots = self._adjacent_roots(wi)

        gain_cache = self._gain_cache
        watchers = self._watchers
        # (a) merged components: their watchers must re-score.
        for r in roots:
            for c in watchers.pop(r, ()):
                gain_cache.pop(c, None)

        included[wi] = 1
        self._included_count += 1
        self._components += 1  # w's own new component...
        dsu = self._dsu
        for r in roots:
            if dsu.union(wi, r):
                self._components -= 1  # ...merged with each adjacent one.

        # (b) w's neighbors: new candidates / new included neighbor.
        candidates = self._candidates
        candidates.discard(wi)
        gain_cache.pop(wi, None)
        indptr, indices = index.indptr, index.indices
        for u in indices[indptr[wi] : indptr[wi + 1]]:
            if not included[u]:
                candidates.add(u)
                gain_cache.pop(u, None)
        if OBS.enabled:
            OBS.incr("gain.dsu_unions", len(roots))
        return max(0, len(roots) - 1)

    # -- selection ------------------------------------------------------------

    def best_connector(self, tie_break: str = "min") -> tuple[N, int]:
        """The not-yet-included node of maximum gain.

        Same argmax, tie-break semantics ("min" / "max" / "degree") and
        error cases as :meth:`GainTracker.best_connector`; only the
        amount of scoring work differs.  Candidates are visited in
        interned id order — the source graph's iteration order — so even
        pathological ties (unorderable node mixes with equal ``repr``)
        resolve identically to the full scan.
        """
        if tie_break not in ("min", "max", "degree"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if self._components <= 1:
            raise ValueError("already connected; no connector needed")
        index = self._index
        indptr, indices = index.indptr, index.indices
        nodes = index.nodes
        included = self._included
        find = self._dsu.find
        gain_cache = self._gain_cache
        watchers = self._watchers
        cache_get = gain_cache.get
        best_id = -1
        best_gain = 0
        evaluations = 0
        for c in sorted(self._candidates):
            g = cache_get(c)
            if g is None:
                roots = {
                    find(u)
                    for u in indices[indptr[c] : indptr[c + 1]]
                    if included[u]
                }
                g = len(roots) - 1
                evaluations += 1
                gain_cache[c] = g
                for r in roots:
                    watcher_set = watchers.get(r)
                    if watcher_set is None:
                        watcher_set = watchers[r] = set()
                    watcher_set.add(c)
            if g > best_gain or (
                g == best_gain > 0
                and self._wins_tie(c, best_id, tie_break)
            ):
                best_id, best_gain = c, g
        if OBS.enabled:
            OBS.incr("gain.evaluations", evaluations)
        if best_id < 0 or best_gain < 1:
            raise ValueError(
                "no node with positive gain: dominators lack 2-hop separation "
                "or the graph is disconnected"
            )
        return nodes[best_id], best_gain

    def _wins_tie(self, challenger: int, incumbent: int, tie_break: str) -> bool:
        if incumbent < 0:
            return True
        nodes = self._index.nodes
        if tie_break == "min":
            return _smaller(nodes[challenger], nodes[incumbent])
        if tie_break == "max":
            return _smaller(nodes[incumbent], nodes[challenger])
        ca = self._index.degree(challenger)
        cb = self._index.degree(incumbent)
        if ca != cb:
            return ca > cb
        return _smaller(nodes[challenger], nodes[incumbent])
