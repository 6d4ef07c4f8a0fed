from __future__ import annotations

import pytest

from pathfactor import (AlgorithmDefectError, AugmentingTrail, GenConfig,
                        PseudoPathFactor, Vertex, components_as_paths,
                        find_trail, fixture, generate, make_policy, rewire)
from pathfactor.builder import FactorState, step_i, step_zero


def _ypath(*indices):
    return tuple(Vertex.y(i) if t % 2 == 0 else Vertex.x(i)
                 for t, i in enumerate(indices))


def _k34_factor(*pairs):
    g = fixture("k34")  # complete: every (y, x) pair is an edge
    factor = PseudoPathFactor(g)
    for y, x in pairs:
        factor.add_edge(g.edge_id_between(Vertex.y(y), Vertex.x(x)))
    return g, factor


def test_add_edge_tracks_ends():
    g, factor = _k34_factor((0, 0), (1, 0), (1, 1))
    assert factor.paths == (_ypath(0, 0, 1, 1),)
    assert factor.same_path(Vertex.y(0), Vertex.x(1))
    assert factor.component_length_at(Vertex.y(1)) == 3
    assert factor.component_length_at(Vertex.y(2)) == 0
    assert (factor.path_count, factor.max_path_length) == (1, 3)


def test_add_edge_rejects_cycle():
    g, factor = _k34_factor((0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError, match="cycle"):
        factor.add_edge(g.edge_id_between(Vertex.y(0), Vertex.x(1)))
    assert factor.subgraph.edge_count == 3
    assert factor.paths == (_ypath(0, 0, 1, 1),)


def test_add_edge_rejects_interior():
    g, factor = _k34_factor((0, 0), (1, 0))
    with pytest.raises(ValueError, match="interior"):
        factor.add_edge(g.edge_id_between(Vertex.y(2), Vertex.x(0)))
    assert factor.subgraph.edge_count == 2
    assert factor.paths == (_ypath(0, 0, 1),)


def test_add_edge_merges_two_paths():
    g, factor = _k34_factor((0, 0), (1, 1), (2, 1), (1, 0))
    assert factor.paths == (_ypath(0, 0, 1, 1, 2),)
    assert (factor.path_count, factor.max_path_length) == (1, 4)
    assert factor.long_component_count == 1


def _assert_index_matches(factor):
    dec = components_as_paths(factor.subgraph)
    assert dec.ok
    assert factor.paths == dec.paths
    lengths = [len(p) - 1 for p in dec.paths]
    assert factor.path_count == len(lengths)
    assert factor.max_path_length == max(lengths, default=0)
    assert factor.long_component_count == sum(n >= 4 for n in lengths)
    length_at = {v: len(p) - 1 for p in dec.paths for v in p}
    for v in factor.graph.vertices():
        assert factor.component_length_at(v) == length_at.get(v, 0), v


@pytest.mark.parametrize("policy_kind", ["lex", "random"])
@pytest.mark.parametrize("k", [2, 5, 20])
def test_index_matches_fresh_decomposition(k, policy_kind):
    # after every scan step and every rewire of a hand-driven solve
    for seed in range(4):
        g = generate(GenConfig(k=k, seed=seed))
        spec = "lex" if policy_kind == "lex" else f"random:{seed}"
        policy = make_policy(spec)
        state = FactorState.initial(g)
        step_zero(state, policy)
        _assert_index_matches(state.factor)
        while state.current is not None:
            step_i(state, policy)
            _assert_index_matches(state.factor)
        factor = state.factor
        for y0 in factor.uncovered_ys():
            rewire(factor, find_trail(factor, y0, policy))
            _assert_index_matches(factor)
        assert not factor.uncovered_ys(), (k, seed, spec)


@pytest.mark.parametrize("vertices, match", [
    (_ypath(0, 0, 4), "factor edge outside F"),  # x0y4 is not in F
    (_ypath(1, 3, 4), "already covered"),
    (_ypath(0, 0, 0), "factor edge outside F"),
    (_ypath(0, 0, 1, 0, 1), "non-factor edge inside F"),
    (_ypath(0, 0, 1, 3, 4, 0, 1), "repeats an edge"),
    (_ypath(0, 0, 3), "multiplicity 0"),  # y3x0 is no edge at all
])
def test_rewire_rejects_a_malformed_trail_before_mutating(
        k2_pseudo, vertices, match):
    g, factor = k2_pseudo
    paths, eids = factor.paths, list(factor.subgraph.edge_ids())
    with pytest.raises(ValueError, match=match):
        rewire(factor, AugmentingTrail(vertices))
    assert factor.paths == paths
    assert list(factor.subgraph.edge_ids()) == eids
    assert factor.uncovered_ys() == [Vertex.y(0)]


def test_rewire_checks_coverage(k2_pseudo):
    # y1 ends the 12-path, so dropping x0y1 leaves it isolated
    g, factor = k2_pseudo
    with pytest.raises(AlgorithmDefectError, match="left y1 uncovered"):
        rewire(factor, AugmentingTrail(_ypath(0, 0, 1)))
