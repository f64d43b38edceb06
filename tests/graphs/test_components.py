"""Unit tests for the union-finds (hash-based and dense-integer)."""

import random

from repro.graphs import IntUnionFind, UnionFind


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind([1, 2, 3])
        assert uf.set_count == 3
        assert len(uf) == 3

    def test_union_merges(self):
        uf = UnionFind([1, 2, 3])
        assert uf.union(1, 2)
        assert uf.set_count == 2
        assert uf.connected(1, 2)
        assert not uf.connected(1, 3)

    def test_union_same_set_returns_false(self):
        uf = UnionFind([1, 2])
        uf.union(1, 2)
        assert not uf.union(2, 1)
        assert uf.set_count == 1

    def test_find_adds_lazily(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert "x" in uf

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(1)
        uf.add(1)
        assert uf.set_count == 1


    def test_sets_partition(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(3, 4)
        sets = uf.sets()
        assert sorted(sorted(s) for s in sets) == [[0, 1], [2, 3, 4], [5]]

    def test_long_chain_path_compression(self):
        uf = UnionFind(range(3000))
        for i in range(2999):
            uf.union(i, i + 1)
        # find on the far end must not blow the stack and must be fast.
        assert uf.connected(0, 2999)
        assert uf.set_count == 1

    def test_contains(self):
        uf = UnionFind([1])
        assert 1 in uf
        assert 2 not in uf

    def test_transitivity(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 2)
        assert uf.connected(0, 3)


class TestIntUnionFind:
    def test_initial_singletons(self):
        uf = IntUnionFind(4)
        assert len(uf) == 4
        assert uf.set_count == 4
        assert all(uf.find(i) == i for i in range(4))

    def test_union_merges_and_reports(self):
        uf = IntUnionFind(3)
        assert uf.union(0, 1)
        assert uf.set_count == 2
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)

    def test_redundant_unions_keep_count_invariant(self):
        # count must equal n minus the number of *successful* unions,
        # no matter how many redundant ones are interleaved.
        uf = IntUnionFind(6)
        merges = 0
        for a, b in [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2), (1, 2), (0, 3)]:
            merges += uf.union(a, b)
        assert merges == 3
        assert uf.set_count == 6 - merges

    def test_path_compression_flattens_chains(self):
        n = 5000
        uf = IntUnionFind(n)
        for i in range(n - 1):
            uf.union(i, i + 1)
        root = uf.find(0)
        # After one find, every node on the walked path points at the
        # root directly.
        assert uf._parent[0] == root
        assert uf.find(n - 1) == root
        assert uf.set_count == 1

    def test_union_by_size_attaches_small_under_large(self):
        uf = IntUnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)  # {0,1,2} with some root r
        big_root = uf.find(0)
        uf.union(3, 4)  # {3,4}
        uf.union(2, 3)
        # The larger set's root survives the merge.
        assert uf.find(3) == big_root

    def test_matches_hash_union_find_on_random_operations(self):
        rng = random.Random(42)
        n = 60
        dense, hashed = IntUnionFind(n), UnionFind(range(n))
        for _ in range(300):
            a, b = rng.randrange(n), rng.randrange(n)
            assert dense.union(a, b) == hashed.union(a, b)
            assert dense.set_count == hashed.set_count
        for i in range(n):
            for j in range(i + 1, i + 4):
                if j < n:
                    assert dense.connected(i, j) == hashed.connected(i, j)
