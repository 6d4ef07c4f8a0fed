from __future__ import annotations

from pathfactor.dsu import RollbackUnionFind


def test_rollback_union_find():
    uf = RollbackUnionFind(4)
    assert uf.union(1, 2)
    mark = uf.snapshot()
    assert uf.union(2, 3)
    assert not uf.union(1, 3)  # already connected: a cycle
    uf.rollback(mark)
    assert uf.find(1) != uf.find(3)
    assert uf.find(1) == uf.find(2)


def test_find_on_an_untouched_id_is_that_id():
    uf = RollbackUnionFind(5)
    assert uf.union(0, 1)
    assert [uf.find(v) for v in (2, 3, 4)] == [2, 3, 4]


def test_rollback_restores_the_sizes():
    # {0, 1, 2} absorbs 3, then the rollback must shrink it back to 3, so
    # that a tree of 4 hangs the smaller one under its own root
    uf = RollbackUnionFind(8)
    assert uf.union(0, 1) and uf.union(0, 2)
    mark = uf.snapshot()
    assert uf.union(0, 3)
    uf.rollback(mark)
    assert uf.find(3) == 3
    assert uf.union(4, 5) and uf.union(4, 6) and uf.union(4, 7)
    assert uf.union(0, 4)  # 3 against 4: 4's root wins, not a's
    assert uf.find(0) == uf.find(1) == uf.find(2) == 4


def test_union_ties_keep_the_first_root():
    uf = RollbackUnionFind(4)
    assert uf.union(1, 0)
    assert uf.find(0) == 1
    assert uf.union(3, 2) and uf.union(2, 0)  # two trees of 2
    assert uf.find(1) == uf.find(0) == 3
