"""Word-parallel gain maximisation for the Section IV greedy.

:class:`~repro.cds.lazy_gain.LazyGainTracker` (PR 2) cut the greedy
loop's re-scoring from ``O(n)`` per round to the cache misses its
watcher map cannot rule out — but that map is *conservative*: when a
component merges, **every** candidate that counted it is invalidated,
and once a giant component forms, nearly every candidate watches it.
On a 1000-node UDG that is ≈240 re-scores per round, ~30k over the run,
and it is the dominant cost of the whole solver.  This tracker replaces
the watcher map with bitmask algebra that invalidates *exactly* the
candidates whose gain changed, and makes each remaining step
word-parallel:

* **Exact invalidation.**  Adding ``w`` merges ``w`` with the adjacent
  components ``P₁..Pₖ``.  A candidate's count of adjacent components
  changes only if it is adjacent to **two or more** of the merging
  parts ``{w, P₁..Pₖ}``, or is a neighbor of ``w`` (its candidacy or
  ``w``-adjacency is new).  Keeping one neighborhood mask per live
  component makes "adjacent to ≥ 2 parts" a pairwise-overlap
  accumulation — ``seen_twice |= seen_once & part; seen_once |= part``
  — a handful of whole-mask ops per merge instead of a per-watcher
  walk.  (A candidate adjacent to exactly one part and not to ``w``
  keeps its count: the one part it counted still counts once merged.)

* **Gain-level buckets.**  Cached scores live in per-gain bitmasks
  (``levels[g]`` = candidates whose exact gain is ``g``), so the argmax
  is "highest non-empty level" — no per-round scan of the candidate
  set, which :class:`LazyGainTracker` still pays (``sorted`` over all
  candidates every round).  Gain-0 candidates are cached but never
  bucketed: no level is read below ``g = 1``.

* **Two bit spaces, each where it pays.**  Adjacency algebra runs in
  *id* space, straight off the view's bulk
  :attr:`~repro.graphs.bitset.BitsetGraph.neighbor_masks` list (built
  once per solve and shared with the MIS cover scan — the tracker
  touches essentially every row, so there is exactly one mask set per
  run).  The level buckets alone live in *value-rank*
  space — bit position order is ascending node-value order — so the
  "min" tie-break is the lowest set bit of the best level
  (``(m & -m).bit_length() - 1``) and "max" its highest, O(1) instead
  of a comparison per tied candidate at any instance size.  Graphs
  whose nodes are not mutually orderable fall back to interned-id bit
  order with explicit value comparisons, exactly
  :meth:`LazyGainTracker._wins_tie`.

Selections are **bit-identical** to :class:`LazyGainTracker` (and so to
the reference :class:`~repro.cds.gain.GainTracker`) under every
tie-break mode; the randomized suite in ``tests/cds/test_bitset.py``
pins the full ``(node, gain)`` sequence equivalence.  The
``gain.evaluations`` counter keeps its PR 2 meaning — genuine re-scores
— and shrinks further because exact invalidation re-scores strictly
fewer candidates than the watcher map.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from ..graphs.bitset import BitsetGraph, bit_indices, mask_of
from ..graphs.components import IntUnionFind
from ..obs import OBS
from .gain import _smaller

N = TypeVar("N", bound=Hashable)

__all__ = ["BitsetGainTracker"]


class BitsetGainTracker:
    """Incremental components of ``G[I ∪ U]`` on neighborhood bitmasks.

    The bitset-kernel counterpart of
    :class:`~repro.cds.lazy_gain.LazyGainTracker`: same constructor
    contract, same :meth:`add` / :meth:`best_connector` semantics and
    error cases, same counters (``gain.dsu_unions`` per merge attempt;
    ``gain.evaluations`` = actual re-scores only, here strictly fewer
    because invalidation is exact instead of per-watched-component).

    Args:
        bitset: the bitset view of the full topology ``G``; the
            tracker binds the view's bulk mask list (building it on
            first use), sharing one mask set with every other phase of
            the solve.
        dominators: the phase-1 MIS ``I`` (any dominating set works;
            adjacent dominator pairs are merged permissively).
    """

    __slots__ = (
        "_bitset",
        "_index",
        "_masks",
        "_order",
        "_valrank",
        "_value_ranked",
        "_included",
        "_included_count",
        "_dominators",
        "_dsu",
        "_components",
        "_comp_nbr",
        "_frontier",
        "_gains",
        "_valid",
        "_levels",
        "_degrees",
    )

    def __init__(self, bitset: BitsetGraph[N], dominators: Iterable[N]):
        self._bitset = bitset
        index = bitset.indexed
        self._index = index
        n = len(index)
        nodes = index.nodes
        # Level-bucket bit space: ascending node-value order when the
        # nodes admit one (so min/max ties are lsb/msb), id order
        # otherwise.  ``order``: rank -> id; ``valrank``: id -> rank.
        order = index.value_order()
        self._value_ranked = order is not None
        if order is None:
            order = list(range(n))
        self._order = order
        valrank = [0] * n
        for r, i in enumerate(order):
            valrank[i] = r
        self._valrank = valrank

        dom_ids = []
        for d in dominators:
            if d not in index:
                raise KeyError(f"dominator {d!r} not in graph")
            dom_ids.append(index.id_of(d))
        if not dom_ids:
            raise ValueError("dominator set must be non-empty")
        included = mask_of(dom_ids, n)
        self._included = included
        self._included_count = included.bit_count()
        self._dominators = frozenset(nodes[i] for i in bit_indices(included))

        # Components of G[I]: one per dominator, minus permissive merges
        # of adjacent (non-independent) dominator pairs; alongside, the
        # frontier N(I) and one neighborhood mask per component.  The
        # tracker touches essentially every row over a run, so it binds
        # the bulk mask list (already forced by the greedy pipeline).
        masks = bitset.neighbor_masks
        self._masks = masks
        dsu = IntUnionFind(n)
        self._dsu = dsu
        union = dsu.union
        components = self._included_count
        frontier = 0
        included_ids = bit_indices(included)
        for v in included_ids:
            m = masks[v]
            frontier |= m
            adjacent_included = m & included
            if adjacent_included:
                for u in bit_indices(adjacent_included):
                    if union(u, v):
                        components -= 1
        self._components = components
        self._frontier = frontier
        find = dsu.find
        comp_nbr: dict[int, int] = {}
        for v in included_ids:
            r = find(v)
            prev = comp_nbr.get(r)
            comp_nbr[r] = masks[v] if prev is None else prev | masks[v]
        self._comp_nbr = comp_nbr

        #: per-id cached gain, exact where the id bit is set in _valid.
        self._gains = [0] * n
        self._valid = 0
        #: levels[g] = rank-space bitmask of valid candidates with exact
        #: gain g >= 1 (gain-0 candidates are cached in _gains only).
        self._levels: list[int] = [0]
        self._degrees: list[int] | None = None
        if OBS.enabled:
            OBS.incr("bitset.word_ops", (2 * len(comp_nbr) + 2) * bitset.words)

    # -- read API (mirrors LazyGainTracker) ------------------------------------

    @property
    def included(self) -> frozenset:
        """``I ∪ U`` so far, as original node objects."""
        nodes = self._index.nodes
        return frozenset(nodes[i] for i in bit_indices(self._included))

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
        if self._included >> wi & 1:
            return 0
        return max(0, len(self._roots_of(wi)) - 1)

    def _roots_of(self, wi: int) -> set[int]:
        dsu = self._dsu
        parent = dsu._parent
        find = dsu.find
        m = self._masks[wi] & self._included
        roots: set[int] = set()
        seen = roots.add
        while m:
            lsb = m & -m
            m ^= lsb
            u = lsb.bit_length() - 1
            r = parent[u]
            if parent[r] != r:
                r = find(u)
            seen(r)
        return roots

    # -- mutation -------------------------------------------------------------

    def add(self, w: N) -> int:
        """Add ``w`` to ``U`` and return the gain it realized.

        Merges ``w`` with its adjacent components and invalidates
        exactly the candidates whose adjacent-component count could
        have changed: the pairwise overlap of the merging parts'
        neighborhood masks, plus ``N(w)``.

        Raises:
            ValueError: if ``w`` is already included.
        """
        index = self._index
        wi = index.id_of(w)
        included = self._included
        wbit = 1 << wi
        if included & wbit:
            raise ValueError(f"{w!r} already included")
        wmask = self._masks[wi]
        roots = self._roots_of(wi)

        # Merge the parts' neighborhood masks, accumulating the bits
        # seen in two or more of the *old* parts — those candidates'
        # counts change.  A candidate adjacent to exactly one old part
        # keeps its count even if it neighbors ``w`` (the one part it
        # counted is the merged component it now counts once); a
        # neighbor of ``w`` adjacent to no old part gains a component.
        comp_nbr = self._comp_nbr
        seen_once = 0
        seen_twice = 0
        for r in roots:
            part = comp_nbr.pop(r)
            seen_twice |= seen_once & part
            seen_once |= part

        included |= wbit
        self._included = included
        self._included_count += 1
        self._frontier |= wmask
        # Merge w's fresh singleton with each adjacent root.  All roots
        # are distinct and w is fresh, so every union merges; the
        # union-by-size bookkeeping is inlined on the DSU's arrays.
        dsu = self._dsu
        parent, size = dsu._parent, dsu._size
        base = wi
        for r in roots:
            if size[base] < size[r]:
                parent[base] = r
                size[r] += size[base]
                base = r
            else:
                parent[r] = base
                size[base] += size[r]
        dsu._count -= len(roots)
        self._components += 1 - len(roots)
        comp_nbr[base] = seen_once | wmask

        # Evict the stale scores: for each invalidated candidate that
        # holds a level bit, clear exactly that bit (levels are
        # rank-space, the stale set id-space, so eviction is per-bit —
        # a handful of nodes per round, by exactness).
        stale = ((seen_twice | (wmask & ~seen_once)) & ~included) | wbit
        evict = stale & self._valid
        if evict:
            gains = self._gains
            valrank = self._valrank
            levels = self._levels
            while evict:
                lsb = evict & -evict
                evict ^= lsb
                c = lsb.bit_length() - 1
                g = gains[c]
                if g:
                    levels[g] &= ~(1 << valrank[c])
            self._valid &= ~stale
        if OBS.enabled:
            OBS.incr("gain.dsu_unions", len(roots))
            OBS.incr(
                "bitset.word_ops",
                (2 * len(roots) + 8) * self._bitset.words,
            )
        return max(0, len(roots) - 1)

    # -- selection ------------------------------------------------------------

    def best_connector(self, tie_break: str = "min") -> tuple[N, int]:
        """The not-yet-included node of maximum gain.

        Same argmax, tie-break semantics ("min" / "max" / "degree") and
        error cases as :meth:`LazyGainTracker.best_connector`.  Only
        candidates invalidated since the last round are re-scored; the
        argmax itself reads the highest non-empty gain level and
        resolves ties inside that one bitmask.
        """
        if tie_break not in ("min", "max", "degree"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if self._components <= 1:
            raise ValueError("already connected; no connector needed")
        levels = self._levels
        stale = (self._frontier & ~self._included) & ~self._valid
        evaluations = 0
        if stale:
            masks = self._masks
            included = self._included
            dsu = self._dsu
            parent = dsu._parent
            find = dsu.find
            gains = self._gains
            valrank = self._valrank
            remaining = stale
            comp_nbr = self._comp_nbr
            k = stale.bit_count()
            if k > 4 * len(comp_nbr):
                # Population-scale rescore (the first round scores every
                # candidate at once): instead of per-candidate DSU
                # walks, accumulate "adjacent to >= j parts" masks over
                # the per-component neighborhood masks — word-parallel
                # in the population — and read exact gains off the
                # cascade (gain = #adjacent parts - 1, parts counted
                # once each by construction).
                cap = 8
                s = [0] * (cap + 1)
                p = 0
                for part in comp_nbr.values():
                    p += 1
                    for j in range(min(p, cap), 1, -1):
                        s[j] |= s[j - 1] & part
                    s[1] |= part
                for j in range(2, cap):
                    bucket = s[j] & ~s[j + 1] & stale
                    if not bucket:
                        continue
                    g = j - 1
                    while g >= len(levels):
                        levels.append(0)
                    lev = levels[g]
                    while bucket:
                        lsb = bucket & -bucket
                        bucket ^= lsb
                        c = lsb.bit_length() - 1
                        gains[c] = g
                        lev |= 1 << valrank[c]
                    levels[g] = lev
                # Gain-0 candidates need no level bit (levels[0] is
                # never read); candidates beyond the cascade cap — if
                # any — fall through to the per-candidate path.
                remaining = s[cap] & stale
                evaluations = k - remaining.bit_count()
                if OBS.enabled:
                    OBS.incr(
                        "bitset.word_ops",
                        (min(len(comp_nbr), cap) + cap) * self._bitset.words,
                    )
            while remaining:
                clsb = remaining & -remaining
                remaining ^= clsb
                c = clsb.bit_length() - 1
                # Adjacent components of c: drain the (sparse) mask of
                # included neighbors lowest-bit first.  A single
                # included neighbor is gain 0 without touching the DSU.
                m = masks[c] & included
                lsb = m & -m
                if m == lsb:
                    gains[c] = 0
                    evaluations += 1
                    continue
                roots = set()
                seen = roots.add
                while m:
                    lsb = m & -m
                    m ^= lsb
                    u = lsb.bit_length() - 1
                    r = parent[u]
                    if parent[r] != r:
                        r = find(u)
                    seen(r)
                g = len(roots) - 1
                gains[c] = g
                if g:
                    while g >= len(levels):
                        levels.append(0)
                    levels[g] |= 1 << valrank[c]
                evaluations += 1
            self._valid |= stale
        if OBS.enabled:
            OBS.incr("gain.evaluations", evaluations)
            OBS.incr(
                "bitset.word_ops", (2 * evaluations + 4) * self._bitset.words
            )
        for g in range(len(levels) - 1, 0, -1):
            m = levels[g]
            if m:
                break
        else:
            raise ValueError(
                "no node with positive gain: dominators lack 2-hop separation "
                "or the graph is disconnected"
            )
        return self._index.nodes[self._order[self._pick(m, tie_break)]], g

    def _pick(self, m: int, tie_break: str) -> int:
        """Resolve a gain tie inside the level mask ``m`` (non-empty);
        returns the winner's *rank* (bit position in level space)."""
        nodes, order = self._index.nodes, self._order
        if tie_break == "degree":
            degrees = self._degrees
            if degrees is None:
                degree = self._index.degree
                degrees = self._degrees = [degree(i) for i in order]
            best = -1
            best_deg = -1
            if self._value_ranked:
                # Ascending rank is ascending value: the first maximum
                # seen is the smallest tied node.
                for c in bit_indices(m):
                    d = degrees[c]
                    if d > best_deg:
                        best, best_deg = c, d
            else:
                for c in bit_indices(m):
                    d = degrees[c]
                    if d > best_deg or (
                        d == best_deg
                        and _smaller(nodes[order[c]], nodes[order[best]])
                    ):
                        best, best_deg = c, d
            return best
        if self._value_ranked:
            # Bit order is value order: min = lowest set bit, max = highest.
            if tie_break == "min":
                return (m & -m).bit_length() - 1
            return m.bit_length() - 1
        # Unorderable node mix: bit order is interned id order; compare
        # node values explicitly, as LazyGainTracker._wins_tie does.
        bits = bit_indices(m)
        best = bits[0]
        if tie_break == "min":
            for c in bits[1:]:
                if _smaller(nodes[order[c]], nodes[order[best]]):
                    best = c
        else:
            for c in bits[1:]:
                if _smaller(nodes[order[best]], nodes[order[c]]):
                    best = c
        return best
