"""Disjoint-set structure backing the exhaustive oracle."""

from __future__ import annotations


class RollbackUnionFind:
    """Union by size without path compression over the ids 0..n-1, so
    unions can be undone in LIFO order.  Used by backtracking searches."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._size = [1] * n
        self._trail: list[tuple[int, int]] = []

    def find(self, v: int) -> int:
        while self._parent[v] != v:
            v = self._parent[v]
        return v

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; False iff already connected.
        On a tie in size, a's root stays the root."""
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
