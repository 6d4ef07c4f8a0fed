"""Tie-break policies.

Every nondeterministic choice in the solver is routed through a policy,
so a (graph, policy) pair fixes the run byte for byte.  Candidates are
always comparable (vertex tuples or plain indices); RandomPolicy sorts
them before consuming randomness, which keeps its streams independent of
the caller's iteration order.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


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
        return 0

    def order(self, candidates: Iterable[T]) -> Sequence[T]:
        return sorted(candidates)

    def __repr__(self) -> str:
        return "LexicographicPolicy()"


class RandomPolicy(TieBreakPolicy):
    """Seeded random choices from a PCG64 stream.

    Stateful: the stream advances on every call, so reuse of one instance
    across runs yields different (still reproducible) runs.  Construct a
    fresh instance per run for repeatable output.
    """

    def __init__(self, seed: int):
        import numpy as np  # here, so that importing the package skips it
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def pick(self, candidates: Iterable[T]) -> T:
        pool = sorted(candidates)
        return pool[self.pick_index(len(pool))]

    def pick_index(self, n: int) -> int:
        return int(self._rng.integers(n))

    def order(self, candidates: Iterable[T]) -> Sequence[T]:
        pool = sorted(candidates)
        return [pool[i] for i in self._rng.permutation(len(pool))]

    def __repr__(self) -> str:
        return f"RandomPolicy(seed={self.seed})"


def make_policy(spec: str) -> TieBreakPolicy:
    """Parse a policy spec: ``lex`` or ``random:<seed>``."""
    if spec == "lex":
        return LexicographicPolicy()
    if spec.startswith("random:"):
        try:
            return RandomPolicy(int(spec.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"unknown policy spec {spec!r}; want lex or random:<seed>")
