"""Disjoint-set structure backing the exhaustive oracle."""

from __future__ import annotations

from typing import Hashable


class RollbackUnionFind:
    """Union by size without path compression, so unions can be undone in
    LIFO order.  Used by backtracking searches."""

    def __init__(self):
        self._parent: dict = {}
        self._size: dict = {}
        self._trail: list = []

    def _ensure(self, v) -> None:
        if v not in self._parent:
            self._parent[v] = v
            self._size[v] = 1

    def find(self, v: Hashable):
        self._ensure(v)
        while self._parent[v] != v:
            v = self._parent[v]
        return v

    def union(self, a, b) -> bool:
        """Merge the components of a and b; False iff already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._trail.append((ra, rb))
        return True

    def snapshot(self) -> int:
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        while len(self._trail) > mark:
            ra, rb = self._trail.pop()
            self._parent[rb] = rb
            self._size[ra] -= self._size[rb]
