from __future__ import annotations

from pathfactor.dsu import RollbackUnionFind


def test_rollback_union_find():
    uf = RollbackUnionFind()
    assert uf.union(1, 2)
    mark = uf.snapshot()
    assert uf.union(2, 3)
    assert not uf.union(1, 3)  # already connected: a cycle
    uf.rollback(mark)
    assert uf.find(1) != uf.find(3)
    assert uf.find(1) == uf.find(2)
