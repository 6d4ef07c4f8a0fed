from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (LexicographicPolicy, RandomPolicy, TieBreakPolicy,
                        make_policy)
from pathfactor.policy import BLOCK


def test_lex_policy():
    p = LexicographicPolicy()
    assert p.pick([3, 1, 2]) == 1
    assert p.order({9, 0}) == [0, 9]


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
                     {25, 2, 9, 20}):
            want = RandomPolicy(seed).pick(pool)
            got = sorted(pool)[RandomPolicy(seed).pick_index(len(pool))]
            assert got == want
            assert LexicographicPolicy().pick_index(len(pool)) == 0


class _Largest(TieBreakPolicy):
    def pick(self, candidates):
        return max(candidates)


def test_pick_index_default_routes_through_pick():
    assert _Largest().pick_index(5) == 4


@pytest.mark.parametrize("policy", [LexicographicPolicy(), RandomPolicy(0),
                                    _Largest()])
@pytest.mark.parametrize("n", [0, -3])
def test_pick_index_of_an_empty_pool_raises(policy, n):
    # as pick() does on an empty pool
    with pytest.raises(ValueError):
        policy.pick([])
    with pytest.raises(ValueError):
        policy.pick_index(n)


def test_random_policy_order_is_permutation():
    out = RandomPolicy(0).order(range(10))
    assert sorted(out) == list(range(10))


def test_make_policy():
    assert isinstance(make_policy("lex"), LexicographicPolicy)
    rp = make_policy("random:9")
    assert isinstance(rp, RandomPolicy) and rp.seed == 9
    assert make_policy("random:0").seed == 0
    assert make_policy("random:123456789").seed == 123456789
    # a seed takes ASCII digits only, as every integer argument does
    for bad in ("", "rand", "random:", "random:x", "lex:1", "random:+5",
                "random: 5", "random:5_0", "random:\u0665"):
        with pytest.raises(ValueError, match="unknown policy spec"):
            make_policy(bad)


# RandomPolicy must make the choices numpy's Generator(PCG64(seed)) makes
# through integers(n) and permutation(n).  3 * 2**30 + 5 sends about a
# quarter of Lemire's draws through the rejection loop; 2**32 is the
# largest bound one 32-bit word serves.
SIZES = (1, 2, 3, 4, 100, 16000, 3 * 2**30 + 5, 2**32)
SMALL = tuple(n for n in SIZES if n <= 16000)  # pools that get built

_calls = st.one_of(
    st.tuples(st.just("pick_index"), st.sampled_from(SIZES)),
    st.tuples(st.sampled_from(["pick", "order"]), st.sampled_from(SMALL)))


def _pool(n):
    return list(range(n, 0, -1))  # descending, so the policy must sort


def _numpy_choice(ref, kind, n):
    if kind == "pick_index":
        return int(ref.integers(n))
    pool = sorted(_pool(n))
    if kind == "pick":
        return pool[int(ref.integers(n))]
    return [pool[i] for i in ref.permutation(n)]


def _policy_choice(policy, kind, n):
    if kind == "pick_index":
        return policy.pick_index(n)
    return getattr(policy, kind)(_pool(n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_calls, max_size=12))
def test_random_policy_makes_numpys_choices(seed, calls):
    policy, ref = RandomPolicy(seed), np.random.Generator(np.random.PCG64(seed))
    for kind, n in calls:
        want = _numpy_choice(ref, kind, n)
        assert _policy_choice(policy, kind, n) == want, (kind, n)


def test_random_policy_stream_crosses_blocks():
    policy, ref = RandomPolicy(99), np.random.Generator(np.random.PCG64(99))
    for t in range(3 * BLOCK):
        kind, n = ("pick_index", 3 * 2**30 + 5) if t % 3 else ("order", 4)
        assert _policy_choice(policy, kind, n) == _numpy_choice(ref, kind, n)


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_pick_index_rejects_an_unservable_bound(n):
    policy, ref = RandomPolicy(5), np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError):
        policy.pick_index(n)
    assert policy.pick_index(100) == int(ref.integers(100))  # nothing spent
