from __future__ import annotations

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathfactor import (Bigraph, GenConfig, GenerationError, check_biregular,
                        fixture, generate, serialize_graph)
from pathfactor.graph import _build
from conftest import edge_pairs

generate_module = importlib.import_module("pathfactor.generate")


def test_generation_is_deterministic():
    a = generate(GenConfig(k=4, seed=123))
    b = generate(GenConfig(k=4, seed=123))
    assert a == b
    assert serialize_graph(a) == serialize_graph(b)


def test_generated_graphs_are_simple_and_biregular():
    for k in (1, 2, 3, 7, 20):
        for seed in (0, 1, 99):
            g = generate(GenConfig(k=k, seed=seed))
            assert g.simple
            assert check_biregular(g) == k


def test_k1_is_always_complete_bipartite():
    # 4 degree-3 vertices against 3 degree-4 vertices leave no simple
    # alternative to K_{3,4}
    for seed in range(8):
        assert generate(GenConfig(k=1, seed=seed)) == fixture("k34")


def test_seeds_vary_the_instance():
    graphs = {generate(GenConfig(k=3, seed=s)) for s in range(6)}
    assert len(graphs) > 1


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        GenConfig(k=0, seed=1)


def test_generation_error_when_repair_always_fails(monkeypatch):
    monkeypatch.setattr(generate_module, "_repair_duplicates",
                        lambda *a, **kw: None)
    with pytest.raises(GenerationError, match="k=2 seed=5"):
        generate(GenConfig(k=2, seed=5))


def test_fixtures():
    k34 = fixture("k34")
    assert k34.simple and k34.edge_count == 12
    cx = fixture("counterexample")
    assert not cx.simple
    assert check_biregular(cx) == 1
    assert edge_pairs(cx).count((1, 0)) == 3
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")


# sha256 prefixes of serialize_graph(generate(GenConfig(k, seed))), recorded
# while _pair_stubs still looked up each stub's X end one at a time
GENERATED_DIGESTS = {
    (1, 0): "ec6ede7c836ce4c2", (1, 1): "ec6ede7c836ce4c2",
    (1, 2): "ec6ede7c836ce4c2", (2, 0): "0c232cc17a579ed1",
    (2, 1): "0b82bef4ba54fbb8", (2, 2): "4562ef0ad9849eb6",
    (20, 0): "a91f55c6db33cebc", (20, 1): "21594b10c1e5e611",
    (20, 2): "9bc027437afd41a5", (300, 0): "cb43e38fff6a5914",
    (300, 1): "c4efbd7518e00961", (300, 2): "c4861bee8fe0bf59",
    (4000, 0): "05b9d7ad6a5fb7de", (4000, 1): "c7d3047d201131d9",
    (4000, 2): "dfdd82dae87bff1f",
}


@pytest.mark.parametrize("k, seed", sorted(GENERATED_DIGESTS))
def test_generated_instance_is_pinned(k, seed):
    text = serialize_graph(generate(GenConfig(k=k, seed=seed)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == GENERATED_DIGESTS[k, seed]


def _pair_stubs_per_stub(k, rng):
    # the pairing as first written, one lookup per stub
    y_stubs = [i for i in range(4 * k) for _ in range(3)]
    x_stubs = [j for j in range(3 * k) for _ in range(4)]
    perm = rng.permutation(len(x_stubs))
    return [(y_stubs[t], x_stubs[perm[t]]) for t in range(len(y_stubs))]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 50), seed=st.integers(0, 2**64 - 1))
@example(k=1000, seed=0)  # ids above 256 are not interned by CPython
def test_pair_stubs_matches_the_per_stub_form(k, seed):
    codes = generate_module._pair_stubs(k, np.random.default_rng(seed))
    pairs = [divmod(c, 3 * k) for c in codes]  # codes are y * |X| + x
    assert pairs == _pair_stubs_per_stub(k, np.random.default_rng(seed))
    # the graph keeps each end as an int of one pool, not the codes' own
    # ints, so it holds one int object per vertex id, not one per stub
    g = _build(Bigraph.__new__(Bigraph), 4 * k, 3 * k, codes)
    assert len({id(v) for v in g._ey + g._ex}) <= 7 * k
