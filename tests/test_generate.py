from __future__ import annotations

import pytest

import importlib

from pathfactor import (GenConfig, GenerationError, check_biregular, fixture,
                        generate, serialize_graph)

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
    assert cx.edges.count((1, 0)) == 3
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")
