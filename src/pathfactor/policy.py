"""Tie-break policies.

Every nondeterministic choice in the solver is routed through a policy,
so a (graph, policy) pair fixes the run byte for byte.  Candidates are
always comparable: the solver hands over integer vertex ids, so an X
vertex comes as |Y| + j.  RandomPolicy sorts them before consuming
randomness, which keeps its streams independent of the caller's
iteration order.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from .graph import _is_count

T = TypeVar("T")

# 32-bit words RandomPolicy takes from numpy per call
BLOCK = 256


class TieBreakPolicy:
    """pick() selects one candidate, order() ranks them all.

    pick_index(n) is pick() over an ascending pool the caller maintains:
    it returns the position of the chosen element, and must choose the
    element pick() would choose from the same pool.  Callers that keep
    an ordered pool across rounds use it to avoid rebuilding the pool.
    """

    def pick(self, candidates: Iterable[T]) -> T:
        raise NotImplementedError

    def pick_index(self, n: int) -> int:
        return self.pick(range(n))

    def order(self, candidates: Iterable[T]) -> Sequence[T]:
        raise NotImplementedError


class LexicographicPolicy(TieBreakPolicy):
    """Always the least candidate; stateless, the default everywhere."""

    def pick(self, candidates: Iterable[T]) -> T:
        return min(candidates)

    def pick_index(self, n: int) -> int:
        if n < 1:  # as pick() of an empty pool
            raise ValueError(f"pick_index needs n >= 1, got {n}")
        return 0

    def order(self, candidates: Iterable[T]) -> Sequence[T]:
        return sorted(candidates)

    def __repr__(self) -> str:
        return "LexicographicPolicy()"


class RandomPolicy(TieBreakPolicy):
    """Seeded random choices from a PCG64 stream.

    The choices are exactly those numpy's ``Generator(PCG64(seed))`` would
    make: pick_index(n) is ``integers(n)`` (Lemire's bounded rule), and
    order() is ``permutation(len(pool))`` applied to the sorted pool
    (Fisher-Yates with masked rejection).  Both consume the generator's
    32-bit words, which are fetched BLOCK at a time, so numpy is called
    once per block instead of once per choice.  A choice takes one or more
    words; a pool of one takes none.

    Stateful: the stream advances on every call, so reuse of one instance
    across runs yields different (still reproducible) runs.  Construct a
    fresh instance per run for repeatable output.
    """

    def __init__(self, seed: int):
        import numpy as np  # here, so that importing the package skips it
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._words: list[int] = []  # the rest of the block, next word last

    def _word(self) -> int:
        if not self._words:
            block = self._rng.integers(0, 1 << 32, size=BLOCK, dtype="uint32")
            self._words = block[::-1].tolist()
        return self._words.pop()

    def pick(self, candidates: Iterable[T]) -> T:
        pool = sorted(candidates)
        return pool[self.pick_index(len(pool))]

    def pick_index(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"pick_index needs 1 <= n <= 2**32, got {n}")
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def order(self, candidates: Iterable[T]) -> Sequence[T]:
        pool = sorted(candidates)
        for i in range(len(pool) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._word() & mask
            while j > i:
                j = self._word() & mask
            pool[i], pool[j] = pool[j], pool[i]
        return pool

    def __repr__(self) -> str:
        return f"RandomPolicy(seed={self.seed})"


def make_policy(spec: str) -> TieBreakPolicy:
    """Parse a policy spec: ``lex`` or ``random:<seed>``, the seed in
    ASCII digits."""
    if spec == "lex":
        return LexicographicPolicy()
    seed = spec.removeprefix("random:")
    if seed != spec and _is_count(seed):
        return RandomPolicy(int(seed))
    raise ValueError(
        f"unknown policy spec {spec!r}; want lex or random:<seed>")
