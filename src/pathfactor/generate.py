"""Seeded random (3,4)-biregular instance generation.

Pairing 3 stubs per Y vertex with 4 stubs per X vertex under a random
permutation yields a biregular multigraph; duplicate pairs are then
removed by double edge swaps that preserve both degree sequences.  If a
pairing cannot be repaired within the swap budget, the whole attempt is
retried under a seed derived from (seed, attempt), so results stay a pure
function of (k, seed).  Each edge is held as the int code of graph.py,
y * |X| + x, from the pairing to the finished Bigraph.

All randomness comes from numpy's PCG64 via SeedSequence, which is
stable across platforms and versions of this package.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import GenerationError
from .graph import Bigraph, _build

if TYPE_CHECKING:
    import numpy as np

MAX_ATTEMPTS = 20
MAX_REPAIR_ROUNDS = 1000  # swap tries per attempt


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; (k, seed) fully determine the output."""

    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


def generate(config: GenConfig) -> Bigraph:
    """Generate a simple (3,4)-biregular bigraph with |Y| = 4k, |X| = 3k.

    Deterministic per config.  Raises GenerationError if every attempt
    exhausts its repair budget (not observed for any tested (k, seed), but
    the bound keeps termination unconditional), or if the 12k stubs of a
    side do not fit in a machine-size index, before sizing anything, or
    in memory.
    """
    if 12 * config.k > sys.maxsize:
        raise GenerationError(f"k={config.k} is too large: 12k stubs "
                              f"exceed the largest index {sys.maxsize}")
    import numpy as np  # here, so that importing the package skips it
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, attempt)))
        codes = _pair_stubs(config.k, rng)
        repaired = _repair_duplicates(codes, 3 * config.k, rng)
        if repaired is not None:
            return _build(Bigraph.__new__(Bigraph), 4 * config.k,
                          3 * config.k, repaired)
    raise GenerationError(
        f"could not produce a simple instance for k={config.k} "
        f"seed={config.seed} within {MAX_ATTEMPTS} attempts")


def _pair_stubs(k: int, rng: np.random.Generator) -> list[int]:
    """The codes y * 3k + x of a random stub pairing, by Y stub: stub t of
    y_{t//3} meets X stub perm[t] of x_{perm[t]//4}, so y < 4k, x < 3k.
    Raises GenerationError if numpy cannot size the stub arrays."""
    import numpy as np
    try:
        xs = rng.permutation(12 * k) // 4
        codes = (np.arange(12 * k) // 3 * (3 * k) + xs).tolist()
    except (MemoryError, ValueError):  # ValueError: "array is too big"
        codes = []
    if len(codes) != 12 * k:  # numpy may size an n near sys.maxsize at 0
        raise GenerationError(f"k={k} is too large: 12k stubs do not fit "
                              f"in memory")
    return codes


def _repair_duplicates(codes: list[int], x_count: int,
                       rng: np.random.Generator) -> list[int] | None:
    """Remove duplicate codes by double edge swaps; None if out of budget.

    Each round swaps one occurrence of the least duplicated code with a
    random partner occurrence, provided the swap joins four distinct
    vertices and creates no new duplicate, so the duplicate count strictly
    falls whenever a swap applies.  Codes sort as their (y, x) pairs do.
    """
    counts = Counter(codes)
    dupes = {c for c, n in counts.items() if n > 1}
    for _ in range(MAX_REPAIR_ROUNDS):
        if not dupes:
            return codes
        target = min(dupes)
        i = codes.index(target)
        t = int(rng.integers(len(codes)))
        yi, xi = divmod(target, x_count)
        yt, xt = divmod(codes[t], x_count)
        if yi == yt or xi == xt:
            continue
        new_a, new_b = yi * x_count + xt, yt * x_count + xi
        if counts[new_a] or counts[new_b]:
            continue
        for old in (target, codes[t]):
            counts[old] -= 1
            if counts[old] <= 1:
                dupes.discard(old)
        # both new codes were absent and differ, so neither is a duplicate
        counts[new_a] += 1
        counts[new_b] += 1
        codes[i], codes[t] = new_a, new_b
    return codes if not dupes else None


def fixture(name: str) -> Bigraph:
    """Built-in instances.

    "k34": the complete bipartite graph on 4 + 3 vertices, the unique
    simple instance at k = 1.

    "counterexample": the k = 1 multigraph with a claw at y0 and triple
    edges elsewhere; it is (3,4)-biregular but admits no path factor,
    which is why the solver insists on simple input.
    """
    if name == "k34":
        return Bigraph(4, 3, [(i, j) for i in range(4) for j in range(3)])
    if name == "counterexample":
        claw = [(0, j) for j in range(3)]
        triples = [(j + 1, j) for j in range(3) for _ in range(3)]
        return Bigraph(4, 3, claw + triples)
    raise ValueError(f"unknown fixture {name!r}; want k34 or counterexample")
