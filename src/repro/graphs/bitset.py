"""The bitset graph kernel: neighborhoods as Python big-int bitmasks.

:class:`~repro.graphs.indexed.IndexedGraph` (PR 2) made neighborhood
*iteration* cheap; the hot loops that remained — "does ``v`` have a
selected neighbor?", "how many MIS nodes does ``u`` cover?", "which
components is ``w`` adjacent to?" — are all *set operations over
neighborhoods*, and a set over dense ids ``0..n-1`` is exactly one
Python ``int`` used as a bitmask.  CPython evaluates ``&``/``|`` over
those ints 64 bits per machine word in C, so a membership-heavy scan
that costs ``O(deg)`` interpreted steps per node on the CSR kernel
costs ``O(n/64)`` *word* operations on this one.

:class:`BitsetGraph` layers per-node neighborhood masks on
an :class:`IndexedGraph` (same dense ids, same node interning — the two
views are interchangeable at every ``index=`` seam).  The masks serve
the greedy's :class:`~repro.cds.bitset_gain.BitsetGainTracker` and the
fused BFS + first-fit scan of :mod:`repro.mis.first_fit`; every other
phase reads the CSR view underneath.  The module-level primitives
(:func:`bit_indices`, :func:`mask_of`) are the shared vocabulary of
every bitset hot path.

Masks cost ``⌈n/8⌉`` bytes per node (≈1.25 KB at ``n = 10 000``, so
≈12.5 MB per full mask set); kernel selection lives in
:mod:`repro.graphs.backend` (:func:`choose_kernel`'s three-way auto
table picks the representation per instance size — see
``docs/performance.md`` for the measured crossovers).  The selection
helpers are re-exported here for backward compatibility.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, Sequence, TypeVar

from ..obs import OBS
from .backend import (  # noqa: F401  (re-exported: historical home)
    ARRAY_AUTO_N,
    BITSET_AUTO_N,
    KERNELS,
    build_kernel,
    choose_kernel,
)
from .graph import Graph
from .indexed import IndexedGraph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "ARRAY_AUTO_N",
    "BITSET_AUTO_N",
    "KERNELS",
    "BitsetGraph",
    "bit_indices",
    "build_kernel",
    "choose_kernel",
    "mask_of",
]

#: Bit positions set in each possible byte value — the lookup table
#: behind :func:`bit_indices`.
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if byte >> b & 1) for byte in range(256)
)


def bit_indices(mask: int) -> list[int]:
    """The set-bit positions of ``mask``, ascending, as a list.

    Adaptive: sparse masks are drained lowest-set-bit first (``m & -m``
    — a few big-int ops per set bit), dense ones byte-at-a-time over
    the mask's little-endian bytes with a 256-entry lookup table
    (``O(n/8)`` byte steps plus one step per set bit).  The crossover
    sits around one set bit per three bytes of mask width.
    """
    if mask.bit_count() * 24 < mask.bit_length():
        out = []
        append = out.append
        while mask:
            lsb = mask & -mask
            append(lsb.bit_length() - 1)
            mask ^= lsb
        return out
    table = _BYTE_BITS
    return [
        (i << 3) + b
        for i, byte in enumerate(
            mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        )
        if byte
        for b in table[byte]
    ]


def mask_of(ids: Sequence[int] | Iterator[int], nbits: int) -> int:
    """The bitmask with exactly the given id bits set.

    Builds through a ``bytearray`` so the cost is one byte write per id
    plus a single ``int.from_bytes`` — no ``O(n/64)``-word big-int
    shift per element.
    """
    row = bytearray((nbits + 7) >> 3)
    for i in ids:
        row[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(row, "little")


def _masks_from_csr(n: int, indptr: list[int], indices: list[int]) -> list[int]:
    """All ``n`` per-node neighborhood masks from CSR arrays, one pass.

    Each row is ``sum(1 << u for u in row)`` — equal to the OR because
    CSR rows are duplicate-free — computed as a C-level ``sum(map(...))``
    over a power-of-two table, which beats both per-bit shifting and a
    bytearray-then-``from_bytes`` assembly.  The table is local so the
    ``O(n²/8)``-byte scratch is freed with the call.
    """
    pow2 = [1] * n
    p = 1
    for i in range(1, n):
        p <<= 1
        pow2[i] = p
    get = pow2.__getitem__
    return [
        sum(map(get, indices[indptr[i] : indptr[i + 1]])) for i in range(n)
    ]


class BitsetGraph(Generic[N]):
    """Neighborhood bitmasks layered on a CSR :class:`IndexedGraph`.

    Shares the underlying view's dense ids and node interning, so the
    two kernels are interchangeable wherever an ``index=`` argument is
    accepted; algorithms pick whichever representation fits the scan.
    The mask set (``n·⌈n/8⌉`` bytes) is built on first use and
    cached.
    """

    __slots__ = ("indexed", "_neighbor_masks")

    def __init__(self, indexed: IndexedGraph[N]):
        self.indexed = indexed
        self._neighbor_masks: list[int] | None = None

    @classmethod
    def from_indexed(cls, index: IndexedGraph[N]) -> "BitsetGraph[N]":
        """Wrap an existing CSR view (masks are built on first use)."""
        return cls(index)

    @classmethod
    def from_graph(cls, graph: Graph[N]) -> "BitsetGraph[N]":
        return cls(IndexedGraph.from_graph(graph))

    # -- mask sets ------------------------------------------------------------

    @property
    def neighbor_masks(self) -> list[int]:
        """Open neighborhood masks: bit ``u`` of ``neighbor_masks[i]``
        is set iff ``u`` is adjacent to ``i``."""
        masks = self._neighbor_masks
        if masks is None:
            index = self.indexed
            masks = _masks_from_csr(len(index), index.indptr, index.indices)
            self._neighbor_masks = masks
            if OBS.enabled:
                OBS.incr("bitset.word_ops", len(index) * self.words)
        return masks

    @property
    def full_mask(self) -> int:
        """All node bits set: ``(1 << n) - 1``."""
        return (1 << len(self.indexed)) - 1

    @property
    def words(self) -> int:
        """Machine words per whole-graph mask (``⌈n/64⌉``) — the unit
        the ``bitset.word_ops`` counter charges per mask operation."""
        return (len(self.indexed) + 63) >> 6

    # -- delegation to the CSR view -------------------------------------------

    @property
    def nodes(self) -> tuple:
        return self.indexed.nodes

    def id_of(self, node: N) -> int:
        return self.indexed.id_of(node)

    def node_at(self, i: int) -> N:
        return self.indexed.node_at(i)

    def __contains__(self, node: N) -> bool:
        return node in self.indexed

    def __len__(self) -> int:
        return len(self.indexed)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indexed)

    def degree(self, i: int) -> int:
        return self.indexed.degree(i)

    def edge_count(self) -> int:
        return self.indexed.edge_count()

    def bfs(self, root: int) -> tuple[list[int], list[int], list[int]]:
        """Order-preserving BFS, delegated to the CSR view (a
        frontier-OR bitset BFS would visit neighbors in ascending-id
        order, not adjacency insertion order, breaking bit-identity)."""
        return self.indexed.bfs(root)

    def bfs_order(self, root: int) -> list[int]:
        return self.indexed.bfs_order(root)

    def connected_components(self) -> list[list[int]]:
        return self.indexed.connected_components()

    def is_connected(self) -> bool:
        return self.indexed.is_connected()

    def __repr__(self) -> str:
        return f"BitsetGraph(|V|={len(self)}, |E|={self.edge_count()})"
