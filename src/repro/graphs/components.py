"""Disjoint-set union (union-find).

Used by the incremental gain structure of the Section IV greedy
connector phase: adding a connector ``w`` merges every component of
``G[I ∪ C]`` adjacent to ``w``, and the gain ``Δ_w q`` is the number of
distinct components merged minus one.  Union by size with full path
compression gives effectively-constant amortized operations.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = ["UnionFind", "IntUnionFind"]


class UnionFind(Generic[T]):
    """Disjoint sets over hashable elements.

    Elements are added lazily by :meth:`add` or the first time they
    appear in :meth:`find` / :meth:`union`.
    """

    def __init__(self, elements: Iterable[T] = ()):
        self._parent: dict[T, T] = {}
        self._size: dict[T, int] = {}
        self._count = 0
        for e in elements:
            self.add(e)

    def add(self, element: T) -> None:
        """Create a singleton set for ``element`` (no-op if present)."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1
            self._count += 1

    def __contains__(self, element: T) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        """Number of elements (not sets)."""
        return len(self._parent)

    @property
    def set_count(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def find(self, element: T) -> T:
        """Representative of the set containing ``element``.

        Adds the element as a singleton if it is new.  Iterative path
        compression (no recursion, safe for deep chains).
        """
        parent = self._parent
        if element not in parent:
            self.add(element)
            return element
        root = element
        while parent[root] != root:
            root = parent[root]
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def union(self, a: T, b: T) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns True if a merge happened (they were in different sets).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._count -= 1
        return True

    def connected(self, a: T, b: T) -> bool:
        """Whether two elements are in the same set."""
        return self.find(a) == self.find(b)

    def sets(self) -> list[list[T]]:
        """All disjoint sets, each as a list, in first-seen root order."""
        by_root: dict[T, list[T]] = {}
        for e in self._parent:
            by_root.setdefault(self.find(e), []).append(e)
        return list(by_root.values())


class IntUnionFind:
    """Disjoint sets over the dense ids ``0..n-1``, on flat arrays.

    The counterpart of :class:`UnionFind` for interned graphs
    (:class:`repro.graphs.indexed.IndexedGraph`): parents and sizes live
    in plain lists, so ``find`` is pure integer indexing with no hashing.
    All ``n`` elements exist as singletons from construction; there is
    no lazy :meth:`~UnionFind.add`.
    """

    __slots__ = ("_parent", "_size", "_count")

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._size = [1] * n
        self._count = n

    def __len__(self) -> int:
        """Number of elements (not sets)."""
        return len(self._parent)

    @property
    def set_count(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def find(self, i: int) -> int:
        """Representative of the set containing ``i``.

        Iterative path compression, as in :class:`UnionFind`.
        """
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns True if a merge happened (they were in different sets).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        size[ra] += size[rb]
        self._count -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether two elements are in the same set."""
        return self.find(a) == self.find(b)
