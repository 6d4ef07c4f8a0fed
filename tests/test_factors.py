from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from pathfactor import (AlgorithmDefectError, AugmentingTrail, Bigraph,
                        GenConfig, PathFactor,
                        PseudoPathFactor, brute_force_trails,
                        build_pseudo_factor, find_trail, fixture, generate,
                        make_policy, rewire, solve, validate_pseudo_factor)
from pathfactor.builder import FactorState, step_i, step_zero
from pathfactor.verify import audit_ids, walk_component
from conftest import (component_length, edge_id, edge_pairs, k2_stub_pairing,
                      trail_of, ypath)

_K34 = fixture("k34")  # complete: every (y, x) pair is an edge; |Y| = 4


def _k34_factor(*pairs):
    g = _K34
    factor = PseudoPathFactor(g)
    for y, x in pairs:
        factor.add_edge(edge_id(g, y, x))
    return g, factor


def _oriented(p):
    return tuple(p) if p[0] <= p[-1] else tuple(p)[::-1]


def test_add_edge_tracks_ends():
    g, factor = _k34_factor((0, 0), (1, 0), (1, 1))
    assert factor.ids == (ypath(g, 0, 0, 1, 1),)
    _assert_index_matches(factor)
    assert component_length(factor, 1) == 3
    assert component_length(factor, 2) == 0
    assert (factor.path_count, factor.max_path_length) == (1, 3)


@pytest.mark.parametrize("pairs, held", [
    # y0 x0 y1 is held as [y0 x0 y1], and x0 y0 x1 as [x1 y0 x0]
    (((0, 0), (1, 0), (0, 1)), "x1 y0 x0 y1"),  # a lone X at the head
    (((0, 0), (1, 0), (1, 1)), "y0 x0 y1 x1"),  # ... and at the tail
    (((0, 0), (0, 1), (1, 1)), "y1 x1 y0 x0"),  # a lone Y at the head
    (((0, 0), (0, 1), (1, 0)), "x1 y0 x0 y1"),  # ... and at the tail
    (((2, 1),), "y2 x1"),                       # two lone vertices
])
def test_add_edge_attaches_a_lone_end(pairs, held):
    g, factor = _k34_factor(*pairs)
    path = factor._path_of[pairs[0][0]]  # y_i has vertex id i
    assert " ".join(map(g.name, path)) == held
    assert factor._len_counts == {len(pairs): 1}
    _assert_index_matches(factor)


def test_add_edge_rejects_cycle():
    g, factor = _k34_factor((0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError, match="cycle"):
        factor.add_edge(edge_id(g, 0, 1))
    assert factor.edge_count == 3
    assert factor.ids == (ypath(g, 0, 0, 1, 1),)


def test_add_edge_rejects_interior():
    g, factor = _k34_factor((0, 0), (1, 0))
    with pytest.raises(ValueError, match="interior"):
        factor.add_edge(edge_id(g, 2, 0))
    assert factor.edge_count == 2
    assert factor.ids == (ypath(g, 0, 0, 1),)


def test_add_edge_merges_two_paths():
    g, factor = _k34_factor((0, 0), (1, 1), (2, 1), (1, 0))
    assert factor.ids == (ypath(g, 0, 0, 1, 1, 2),)
    assert (factor.path_count, factor.max_path_length) == (1, 4)


def _remove(g, factor, y, x):
    factor.remove_edge(edge_id(g, y, x))


# the 6-path y0 x0 y1 x1 y2 x2 y3, built edge by edge
_SIX_PATH = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2))


@pytest.mark.parametrize("y, x, pieces", [
    (1, 1, (ypath(_K34, 0, 0, 1), ypath(_K34, 3, 2, 2, 1))),
    (2, 1, (ypath(_K34, 0, 0, 1, 1), ypath(_K34, 2, 2, 3))),
])
def test_remove_edge_splits_an_inner_edge(y, x, pieces):
    g, factor = _k34_factor(*_SIX_PATH)
    _remove(g, factor, y, x)
    assert factor.ids == tuple(sorted(map(_oriented, pieces)))
    assert factor.edge_count == 5
    assert (factor.path_count, factor.max_path_length) == (2, 3)
    for piece in pieces:
        assert all(component_length(factor, v) == len(piece) - 1
                   for v in piece)
    _assert_index_matches(factor)  # also: one index entry per piece


@pytest.mark.parametrize("y, x", [(0, 0), (3, 2)])
def test_remove_edge_splits_off_an_end(y, x):
    g, factor = _k34_factor(*_SIX_PATH)
    _remove(g, factor, y, x)
    assert (factor.path_count, factor.max_path_length) == (1, 5)
    assert component_length(factor, y) == 0
    assert factor._path_of[y] is None  # unindexed
    assert component_length(factor, g.y_count + x) == 5
    _assert_index_matches(factor)


def test_remove_edge_empties_a_2_path():
    # a trail that crosses the same middle X twice removes both its edges
    g, factor = _k34_factor((0, 0), (1, 0), (2, 1), (3, 1))
    _remove(g, factor, 0, 0)
    _remove(g, factor, 1, 0)
    assert factor.ids == (ypath(g, 2, 1, 3),)
    assert (factor.path_count, factor.max_path_length) == (1, 2)
    for v in (0, 1, g.y_count):  # y0, y1, x0
        assert component_length(factor, v) == 0
        assert factor._path_of[v] is None
    _assert_index_matches(factor)


def test_remove_edge_rejects_an_edge_outside_f():
    g, factor = _k34_factor(*_SIX_PATH)
    with pytest.raises(ValueError, match="not in F"):
        _remove(g, factor, 0, 1)
    assert factor.edge_count == 6
    assert factor.ids == (ypath(g, 0, 0, 1, 1, 2, 2, 3),)
    _assert_index_matches(factor)


@pytest.mark.parametrize("method", ["add_edge", "remove_edge"])
@pytest.mark.parametrize("eid", [-1, 12])
def test_edge_ids_outside_the_graph_are_rejected(method, eid):
    # k34 has edges 0..11; -1 must not wrap to edge 11 (y3 x2, in F here)
    g, factor = _k34_factor(*_SIX_PATH)
    with pytest.raises(ValueError, match=r"not in range\(12\)"):
        getattr(factor, method)(eid)
    assert factor.edge_count == 6
    assert factor.ids == (ypath(g, 0, 0, 1, 1, 2, 2, 3),)
    _assert_index_matches(factor)


def _assert_index_matches(factor):
    # a fresh walk of F from each path end is the reference
    g, member = factor.graph, factor._member
    walked = sorted({_oriented(walk_component(g, member, v)[0])
                     for v, d in enumerate(factor.deg)
                     if d == 1})
    assert factor.ids == tuple(walked)
    assert audit_ids(factor, range(g.y_count + g.x_count)) is None
    lengths = [len(p) - 1 for p in walked]
    assert factor.path_count == len(lengths)
    assert factor.max_path_length == max(lengths, default=0)
    assert factor.edge_count == sum(lengths) == len(factor.edge_ids())
    length_at = {v: len(p) - 1 for p in walked for v in p}
    for v in range(g.y_count + g.x_count):
        assert component_length(factor, v) == length_at.get(v, 0), v


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


def _assert_rejected(factor, walks, match, graph=None):
    # walks: one walk of indices y x y ..., or a tuple of walks whose edges
    # are concatenated; the trail is built on graph, F's own by default
    walks = (walks,) if isinstance(walks[0], int) else walks
    paths, eids = factor.ids, list(factor.edge_ids())
    with pytest.raises(ValueError, match=match):
        rewire(factor, trail_of(graph or factor.graph, *walks))
    assert factor.ids == paths
    assert list(factor.edge_ids()) == eids


@pytest.mark.parametrize("vertices, match", [
    ((0, 0, 4), "factor edge outside F"),  # x0y4 is not in F
    ((1, 3, 4), "already covered"),
    ((0, 0, 0), "factor edge outside F"),
    ((0, 0, 1, 0, 1), "non-factor edge inside F"),
    ((0, 0, 1, 3, 4, 0, 1), "repeats a Y vertex"),
    # y2x1 leaves x1, but y0x0 arrived at x0
    (((0, 0), (2, 1)), "does not meet"),
    # x0 and x1 lie inside the 12-path, not on 2-paths
    ((0, 0, 2, 5, 7), "crosses x0 on a component of length 12"),
    ((0, 1, 2, 5, 7), "crosses x1 on a component of length 12"),
])
def test_rewire_rejects_a_malformed_trail_before_mutating(
        k2_pseudo, vertices, match):
    # vertices: the indices of a walk y x y ..., or a tuple of such walks
    g, factor = k2_pseudo
    _assert_rejected(factor, vertices, match)
    assert factor.uncovered_ys() == [0]


def test_rewire_checks_coverage(k2_pseudo):
    # y1 ends the 12-path, so dropping x0y1 would leave it isolated
    g, factor = k2_pseudo
    _assert_rejected(factor, (0, 0, 1), "ends at y1 of factor degree 1")


def test_rewire_rejects_a_trail_ending_on_a_2_path(k3_pseudo):
    g, factor = k3_pseudo
    _assert_rejected(factor, (0, 0, 1),
                     "ends on a component of length 2, want >= 4")


def test_rewire_reports_a_broken_rewire_as_a_defect(k2_pseudo):
    # F's index is out of step with its edge set: it places the uncovered
    # y0 on the 12-path, so adding y0x0 is refused mid-rewire
    g, factor = k2_pseudo
    factor._path_of[0] = factor._path_of[1]  # y_i has vertex id i
    with pytest.raises(AlgorithmDefectError,
                       match="broke the path structure: .*interior"):
        rewire(factor, trail_of(g, (0, 0, 2)))


def test_rewire_checks_the_ends_of_changed_paths():
    # F is broken beforehand: its path ends at x2.  Splitting it at x0y1
    # leaves that end on a piece through the trail vertex y1.
    g, factor = _k34_factor((0, 0), (1, 0), (1, 1), (2, 1), (2, 2))
    with pytest.raises(AlgorithmDefectError, match="non-even component"):
        rewire(factor, trail_of(g, (3, 0, 1)))


def test_rewire_checks_the_maximum_path_length():
    # x1 and x7 lie on two different long paths; rejoining their pieces
    # through y1 would make a path longer than either, but the trail is
    # refused first because it crosses x1 off a 2-path
    g = generate(GenConfig(k=3, seed=7))
    factor = build_pseudo_factor(g)
    assert factor.max_path_length == 12
    _assert_rejected(factor, (8, 1, 1, 7, 6),
                     "crosses x1 on a component of length 6")


def test_rewire_every_short_trail(k2_pseudo):
    # every alternating vertex sequence of 3 or 5 vertices from y0: rewire
    # accepts exactly the augmenting trails, and never fails midway
    g, factor = k2_pseudo
    f_eids = list(factor.edge_ids())
    ys, xs = range(g.y_count), range(g.x_count)
    accepted, rejected = [], 0
    for n in (3, 5):
        for rest in itertools.product(*[xs, ys] * (n // 2)):
            factor = PseudoPathFactor(g)
            for eid in f_eids:
                factor.add_edge(eid)
            paths = factor.ids
            try:
                # a vertex pair that is no edge is rejected here
                trail = trail_of(g, (0,) + rest)
                rewire(factor, trail)
            except ValueError:
                assert factor.ids == paths
                assert list(factor.edge_ids()) == f_eids
                rejected += 1
                continue
            assert validate_pseudo_factor(g, factor.edge_ids()).valid
            _assert_index_matches(factor)
            accepted.append(trail)
    assert rejected == 2347
    legal = brute_force_trails(k2_pseudo[1], 0)
    assert set(accepted) == set(legal)
    assert len(accepted) == 5


@pytest.mark.parametrize("edges, match", [
    ((), "even edge count >= 2, got 0"),
    ((0,), "even edge count >= 2, got 1"),
    ((0, 3, 4), "even edge count >= 2, got 3"),
    ((0, 4), "y1x1 does not meet the edge y0x0"),      # x0, then x1
    ((0, 3, 1, 4), "y0x1 does not meet the edge y1x0"),  # y1, then y0
])
def test_trail_rejects_a_malformed_edge_sequence(edges, match):
    g = fixture("k34")  # edge id 3y + x joins y and x
    with pytest.raises(ValueError, match=match):
        AugmentingTrail(g, edges)


@pytest.mark.parametrize("edges", [(-24, -18), (0, 24), (24, 30)])
def test_trail_rejects_edge_ids_outside_the_graph(k2_pseudo, edges):
    # -24 and -18 would wrap to the edges 0 and 6 of y0 x0 y2, a trail
    # that would compare unequal to AugmentingTrail(g, (0, 6)); 24 is |E|
    g, _ = k2_pseudo
    assert AugmentingTrail(g, (0, 6)) == trail_of(g, (0, 0, 2))
    with pytest.raises(ValueError, match=r"not all in range\(24\)"):
        AugmentingTrail(g, edges)


def test_from_pseudo_rejects_a_factor_that_misses_y():
    # the scan leaves y8 and y11 uncovered here, named in vertex order
    factor = build_pseudo_factor(generate(GenConfig(k=3, seed=1)))
    with pytest.raises(ValueError, match="^not spanning: y8 y11 uncovered$"):
        PathFactor.from_pseudo(factor)


class _CountingList(list):
    """A list that counts its item assignments."""

    writes = 0

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


def test_add_edge_copies_the_shorter_path():
    # One path grows edge by edge, each edge joining its end to a fresh
    # 2-vertex path y_{i+1} x_{i+1}.  Copying the shorter path onto the
    # longer writes 2 index entries per edge; copying the longer onto the
    # shorter would write the whole growing path each time, about m^2.
    m = 400
    g = Bigraph(m, m, [(i, i) for i in range(m)]
                + [(i + 1, i) for i in range(m - 1)])
    factor = PseudoPathFactor(g)
    for i in range(m):
        factor.add_edge(edge_id(g, i, i))
    factor._path_of = index = _CountingList(factor._path_of)
    for i in range(m - 1):
        factor.add_edge(edge_id(g, i + 1, i))
    assert factor.max_path_length == 2 * m - 1
    assert index.writes == 2 * (m - 1)


def test_trails_and_factors_are_hashable(k2_pseudo):
    # they hash through their graph, so an equal twin lands on one entry
    g, _ = k2_pseudo
    twin = Bigraph(g.y_count, g.x_count, edge_pairs(g))
    assert len({trail_of(g, (0, 0, 2)), trail_of(twin, (0, 0, 2))}) == 1
    result = solve(g)
    assert len({result, PathFactor(twin, result.ids)}) == 1


def test_rewire_rejects_a_trail_on_another_graph(k2_pseudo):
    # an equal graph is not enough: edge ids are only read in F's own
    g, factor = k2_pseudo
    twin = Bigraph(g.y_count, g.x_count, edge_pairs(g))
    assert twin == g
    _assert_rejected(factor, (0, 0, 2), "on another graph", twin)
    rewire(factor, trail_of(g, (0, 0, 2)))  # the same trail on g


def _random_pseudo_factor_eids(g, rng):
    # two random edges at every X vertex, kept if they make a pseudo path
    # factor that misses some Y vertex
    eids = [eid for j in range(g.x_count)
            for eid in rng.sample(g._inc[g.y_count + j], 2)]
    if validate_pseudo_factor(g, eids).valid and len(
            {g._ey[eid] for eid in eids}) < g.y_count:
        return sorted(eids)
    return None


def _pseudo_factor(g, eids):
    factor = PseudoPathFactor(g)
    for eid in eids:
        factor.add_edge(eid)
    return factor


def test_rewire_accepts_every_oracle_trail_on_multigraphs():
    # an edge id names one copy of a parallel edge, so every trail the
    # oracle finds on a multigraph can be applied
    rng = random.Random(5)
    trails = parallel = 0
    for _ in range(1500):
        g = k2_stub_pairing(rng)
        f_eids = _random_pseudo_factor_eids(g, rng)
        if g.simple or f_eids is None:
            continue
        ends = edge_pairs(g)
        multiplicity = Counter(ends)
        for y0 in _pseudo_factor(g, f_eids).uncovered_ys():
            for trail in brute_force_trails(_pseudo_factor(g, f_eids), y0):
                factor = _pseudo_factor(g, f_eids)
                rewire(factor, trail, checked=True)
                assert validate_pseudo_factor(g, factor.edge_ids()).valid
                assert factor.deg[y0] == 1
                trails += 1
                parallel += any(multiplicity[ends[eid]] > 1
                                for eid in trail.edges)
    assert trails > 200 and parallel > 50, (trails, parallel)


def test_find_trail_takes_an_oracle_trail_on_multigraphs():
    # two parallel non-factor edges at the trail tip lead to one X vertex;
    # find_trail takes either copy and must not call that a spent edge
    rng = random.Random(0)
    origins = parallel_tips = 0
    for _ in range(4000):
        g = k2_stub_pairing(rng)
        f_eids = _random_pseudo_factor_eids(g, rng)
        if f_eids is None:
            continue
        for y0 in _pseudo_factor(g, f_eids).uncovered_ys():
            factor = _pseudo_factor(g, f_eids)
            assert find_trail(factor, y0) in brute_force_trails(factor, y0)
            origins += 1
            tip_xs = [g._ex[eid] for eid in g._inc[y0]]
            parallel_tips += len(set(tip_xs)) < len(tip_xs)
    assert origins > 150 and parallel_tips > 40, (origins, parallel_tips)
