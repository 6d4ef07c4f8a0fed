from __future__ import annotations

import pytest

from pathfactor import (LexicographicPolicy, RandomPolicy, TieBreakPolicy,
                        Vertex, make_policy)


def test_lex_policy():
    p = LexicographicPolicy()
    assert p.pick([3, 1, 2]) == 1
    assert p.order({Vertex.x(2), Vertex.y(0)}) == [Vertex.y(0), Vertex.x(2)]


def test_random_policy_is_seed_deterministic():
    a = [RandomPolicy(42).pick(range(100)) for _ in range(1)]
    b = [RandomPolicy(42).pick(range(100)) for _ in range(1)]
    assert a == b
    assert RandomPolicy(1).order(range(20)) == RandomPolicy(1).order(range(20))
    assert RandomPolicy(1).order(range(20)) != RandomPolicy(2).order(range(20))


def test_random_policy_ignores_iteration_order():
    # candidates are sorted before consuming randomness
    assert RandomPolicy(7).pick([5, 3, 9, 1]) == RandomPolicy(7).pick([9, 1, 5, 3])
    assert RandomPolicy(7).order((4, 2, 6)) == RandomPolicy(7).order((6, 4, 2))


def test_pick_index_agrees_with_pick():
    for seed in range(8):
        for pool in ([4], [9, 2], list(range(17, 0, -3)), range(100),
                     {Vertex.x(5), Vertex.y(2), Vertex.y(9), Vertex.x(0)}):
            want = RandomPolicy(seed).pick(pool)
            got = sorted(pool)[RandomPolicy(seed).pick_index(len(pool))]
            assert got == want
            assert LexicographicPolicy().pick_index(len(pool)) == 0


def test_pick_index_default_routes_through_pick():
    class Largest(TieBreakPolicy):
        def pick(self, candidates):
            return max(candidates)

    assert Largest().pick_index(5) == 4


def test_random_policy_order_is_permutation():
    out = RandomPolicy(0).order(range(10))
    assert sorted(out) == list(range(10))


def test_make_policy():
    assert isinstance(make_policy("lex"), LexicographicPolicy)
    rp = make_policy("random:9")
    assert isinstance(rp, RandomPolicy) and rp.seed == 9
    for bad in ("", "rand", "random:", "random:x", "lex:1"):
        with pytest.raises(ValueError):
            make_policy(bad)
