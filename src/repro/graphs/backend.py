"""The kernel backend protocol: two views, three kernel names.

Every solver phase in this codebase runs on a *kernel view* of the
topology — a frozen, integer-indexed snapshot built once per run and
threaded through every ``index=`` seam.  There are two views:

* :class:`~repro.graphs.indexed.IndexedGraph` — CSR adjacency as
  Python lists, memoized on the graph together with its numpy copy
  (:meth:`~repro.graphs.indexed.IndexedGraph.arrays`).
* :class:`~repro.graphs.bitset.BitsetGraph` — neighborhoods as big-int
  bitmasks layered on that CSR view.  Word-parallel set algebra; masks
  cost ``n²/8`` bytes, so it owns the mid range
  (``~600 ≤ n < ~20 000``).

and three kernel names (:data:`KERNELS` minus ``"auto"``), each a view
plus the greedy gain tracker that runs on it:

* ``"indexed"`` — the CSR view and
  :class:`~repro.cds.lazy_gain.LazyGainTracker`;
* ``"bitset"`` — the bitset view and
  :class:`~repro.cds.bitset_gain.BitsetGainTracker` (and the fused
  BFS + first-fit scan of :mod:`repro.mis.first_fit`);
* ``"array"`` — the CSR view and the lazy-heap
  :class:`~repro.cds.array_gain.ArrayGainTracker`, which owns the
  large range (``n ≥ ~20 000``).

:func:`choose_kernel` resolves a ``kernel=`` argument (the three-way
auto table), :func:`build_kernel` builds the view for a name, and
:func:`gain_tracker` builds the tracker for a view and resolved name.
Everything but the greedy's phase 2 and the bitset kernel's fused
phase 1 — BFS, the first-fit scan, WAF's coverage scan, connectivity —
runs on the CSR view whatever the name.  Selections and traversals are
**bit-identical across kernels** at every size — that invariant is what
lets ``"auto"`` exist at all (serve's cache, checkpoint resume, and the
counter gates all rely on results not depending on the kernel) — so the
table is purely a performance decision; see ``docs/performance.md`` for
the measured crossovers and ``docs/architecture.md`` for where the
protocol sits in the stack.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Hashable,
    Iterable,
    Protocol,
    TypeVar,
    runtime_checkable,
)

from .graph import Graph
from .indexed import IndexedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..cds.array_gain import ArrayGainTracker
    from ..cds.bitset_gain import BitsetGainTracker
    from ..cds.lazy_gain import LazyGainTracker
    from .bitset import BitsetGraph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "ARRAY_AUTO_N",
    "BITSET_AUTO_N",
    "KERNELS",
    "Backend",
    "adjacency_rows",
    "build_kernel",
    "choose_kernel",
    "gain_tracker",
]

#: Node count at which ``kernel="auto"`` switches from the CSR kernel
#: to the bitset kernel.  Below it the mask builds cost more than the
#: word-parallel scans save (measured crossover is between the 150- and
#: 1000-node fixtures; see ``docs/performance.md`` §large-n).
BITSET_AUTO_N = 600

#: Node count at which ``kernel="auto"`` switches from the bitset
#: kernel to the array kernel.  Beyond it the bitset's ``n²/8``-byte
#: masks and ``⌈n/64⌉``-word per-round scans lose to the CSR view's
#: O(E) lists and the lazy-heap greedy, whose picks cost time in
#: proportion to the candidates they re-score.  The heap greedy also
#: beats the bitset one from n = 5000 up (``docs/performance.md`` §8);
#: this threshold has not been re-tuned to that.
ARRAY_AUTO_N = 20000

#: Valid ``kernel=`` arguments, CLI ``--kernel`` choices included.
KERNELS = ("auto", "indexed", "bitset", "array")


@runtime_checkable
class Backend(Protocol):
    """The read surface every graph kernel view provides.

    A ``Backend`` is a frozen view of one topology with dense integer
    ids ``0..n-1``: node interning at the boundary, O(1) degree/size
    queries, and order-preserving traversals (BFS visit order equals
    the dict-based reference's, which is what keeps results
    bit-identical across kernels).  :class:`IndexedGraph` and
    :class:`~repro.graphs.bitset.BitsetGraph` both satisfy it — build
    one with :func:`build_kernel` and thread it through every phase of
    a run.

    Kernel-specific *algorithm* structures hang off the view rather
    than living on it: gain trackers via :func:`gain_tracker`, the
    fused bitset first-fit scan inside :mod:`repro.mis.first_fit`.
    """

    @property
    def nodes(self) -> tuple: ...

    def id_of(self, node) -> int: ...

    def node_at(self, i: int): ...

    def __contains__(self, node) -> bool: ...

    def __len__(self) -> int: ...

    def degree(self, i: int) -> int: ...

    def edge_count(self) -> int: ...

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int]]: ...

    def bfs_order(self, root: int) -> list[int]: ...

    def connected_components(self) -> list[list[int]]: ...

    def is_connected(self) -> bool: ...


def choose_kernel(n: int, kernel: str = "auto", auto_bitset: bool = True) -> str:
    """Resolve a ``kernel=`` argument to ``"indexed"``, ``"bitset"``,
    or ``"array"``.

    ``"auto"`` reads the three-way size table: the CSR kernel below
    :data:`BITSET_AUTO_N` nodes, the bitset kernel from there up to
    :data:`ARRAY_AUTO_N`, and the array kernel (the CSR view with the
    heap greedy) beyond.  A solver with no greedy phase 2 (WAF, whose
    both phases run on the CSR view under every kernel) passes
    ``auto_bitset=False`` to keep ``"auto"`` from building masks it
    never reads; explicit kernel names are always honored.

    Raises:
        ValueError: on an unknown kernel name.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if kernel != "auto":
        return kernel
    if not auto_bitset or n < BITSET_AUTO_N:
        return "indexed"
    return "array" if n >= ARRAY_AUTO_N else "bitset"


def build_kernel(
    graph: Graph[N], kernel: str = "auto", auto_bitset: bool = True
) -> "IndexedGraph[N] | BitsetGraph[N]":
    """Build the view for the chosen kernel of ``graph`` (one pass,
    shared by every phase of a solver run): the bitset view for
    ``"bitset"``, the graph's memoized CSR view otherwise."""
    index = IndexedGraph.from_graph(graph)
    if choose_kernel(len(index), kernel, auto_bitset) == "bitset":
        from .bitset import BitsetGraph

        return BitsetGraph.from_indexed(index)
    return index


def adjacency_rows(view: Backend) -> list:
    """Every node's neighbor-id row, one CSR gather over the kernel.

    Returns a length-``n`` list; row ``i`` is a sequence of the dense
    neighbor ids of node ``i`` **in source adjacency insertion order**
    — the order :meth:`Graph.neighbors` would report, which is what
    keeps consumers (the simulator's cached receiver tuples, above all)
    bit-identical to the dict-based graph.  Both views carry an
    insertion-ordered CSR (:class:`~repro.graphs.bitset.BitsetGraph`
    wraps an :class:`IndexedGraph`), so the gather is one row-slice
    pass whatever the concrete type.

    Raises:
        TypeError: if ``view`` is not one of the known kernels.
    """
    index = getattr(view, "indexed", view)
    if not isinstance(index, IndexedGraph):
        raise TypeError(
            f"adjacency_rows needs a kernel view, got {type(view).__name__}"
        )
    indptr, indices = index.indptr, index.indices
    return [
        indices[indptr[i] : indptr[i + 1]] for i in range(len(index))
    ]


def gain_tracker(
    index: Backend, dominators: Iterable[N], kernel: str | None = None
) -> "LazyGainTracker | BitsetGainTracker | ArrayGainTracker":
    """The greedy-CDS gain tracker for ``index`` under ``kernel``.

    ``kernel`` is the resolved kernel name (:func:`choose_kernel`'s):
    the bitset view takes :class:`~repro.cds.bitset_gain.BitsetGainTracker`,
    and the CSR view takes :class:`~repro.cds.array_gain.ArrayGainTracker`
    under ``"array"`` and :class:`~repro.cds.lazy_gain.LazyGainTracker`
    otherwise.  ``None`` names the view's own kernel (``"bitset"`` or
    ``"indexed"``).

    All three trackers share one contract (constructor errors,
    ``add`` / ``best_connector`` semantics, ``gain.*`` counters) and
    produce bit-identical ``(node, gain)`` selection sequences; the
    randomized equivalence suites in ``tests/cds/`` pin that.  Imports
    are call-time because the trackers live above the graph layer.
    """
    from .bitset import BitsetGraph

    if isinstance(index, BitsetGraph):
        from ..cds.bitset_gain import BitsetGainTracker

        return BitsetGainTracker(index, dominators)
    if kernel == "array":
        from ..cds.array_gain import ArrayGainTracker

        return ArrayGainTracker(index, dominators)
    from ..cds.lazy_gain import LazyGainTracker

    return LazyGainTracker(index, dominators)
