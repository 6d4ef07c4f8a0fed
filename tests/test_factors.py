from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (AlgorithmDefectError, AugmentingTrail, Bigraph,
                        GenConfig, PathFactor,
                        PseudoPathFactor, brute_force_trails,
                        build_pseudo_factor, find_trail, fixture, generate,
                        make_policy, rewire, solve, validate_pseudo_factor)
from pathfactor.builder import FactorState, step_i, step_zero
from pathfactor.verify import audit_ids, walk_component
from conftest import (component_length, edge_id, edge_pairs, flip_behind_ends,
                      k2_stub_pairing, trail_of, ypath)

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
    _assert_ends_match(factor)
    assert component_length(factor, 1) == 3
    assert component_length(factor, 2) == 0
    assert (factor.path_count, factor.max_path_length) == (1, 3)


@pytest.mark.parametrize("pairs, held", [
    # held: the path from one end to the other; the last edge attaches a
    # lone vertex to the end y0 x0 y1 or x0 y0 x1 grew to
    (((0, 0), (1, 0), (0, 1)), "x1 y0 x0 y1"),  # a lone X at y0's end
    (((0, 0), (1, 0), (1, 1)), "y0 x0 y1 x1"),  # ... and at y1's end
    (((0, 0), (0, 1), (1, 1)), "y1 x1 y0 x0"),  # a lone Y at x1's end
    (((0, 0), (0, 1), (1, 0)), "x1 y0 x0 y1"),  # ... and at x0's end
    (((2, 1),), "y2 x1"),                       # two lone vertices
])
def test_add_edge_attaches_a_lone_end(pairs, held):
    g, factor = _k34_factor(*pairs)
    names = {g.name(v): v for v in range(g.y_count + g.x_count)}
    a, *_, b = held.split()
    assert (factor._end[names[a]], factor._end[names[b]]) == (names[b],
                                                              names[a])
    assert factor._len[names[a]] == factor._len[names[b]] == len(pairs)
    assert factor._len_counts == {len(pairs): 1}
    assert factor.ids == (_oriented([names[u] for u in held.split()]),)
    _assert_ends_match(factor)


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
    _assert_ends_match(factor)


@pytest.mark.parametrize("y, x", [(0, 0), (3, 2)])
def test_remove_edge_splits_off_an_end(y, x):
    g, factor = _k34_factor(*_SIX_PATH)
    _remove(g, factor, y, x)
    assert (factor.path_count, factor.max_path_length) == (1, 5)
    assert component_length(factor, y) == 0
    assert (factor._end[y], factor._len[y]) == (y, 0)  # its own end
    far = 3 if y == 0 else 0  # the other end of the 6-path stays
    assert (factor._end[g.y_count + x], factor._end[far]) == (far,
                                                              g.y_count + x)
    assert factor._len[far] == factor._len[g.y_count + x] == 5
    assert component_length(factor, g.y_count + x) == 5
    _assert_ends_match(factor)


def test_remove_edge_empties_a_2_path():
    # a trail that crosses the same middle X twice removes both its edges
    g, factor = _k34_factor((0, 0), (1, 0), (2, 1), (3, 1))
    _remove(g, factor, 0, 0)
    _remove(g, factor, 1, 0)
    assert factor.ids == (ypath(g, 2, 1, 3),)
    assert (factor.path_count, factor.max_path_length) == (1, 2)
    for v in (0, 1, g.y_count):  # y0, y1, x0
        assert component_length(factor, v) == 0
        assert (factor._end[v], factor._len[v]) == (v, 0)
    _assert_ends_match(factor)


def test_remove_edge_rejects_an_edge_outside_f():
    g, factor = _k34_factor(*_SIX_PATH)
    with pytest.raises(ValueError, match="not in F"):
        _remove(g, factor, 0, 1)
    assert factor.edge_count == 6
    assert factor.ids == (ypath(g, 0, 0, 1, 1, 2, 2, 3),)
    _assert_ends_match(factor)


@pytest.mark.parametrize("method", ["add_edge", "remove_edge"])
@pytest.mark.parametrize("eid", [-1, 12])
def test_edge_ids_outside_the_graph_are_rejected(method, eid):
    # k34 has edges 0..11; -1 must not wrap to edge 11 (y3 x2, in F here)
    g, factor = _k34_factor(*_SIX_PATH)
    with pytest.raises(ValueError, match=r"not in range\(12\)"):
        getattr(factor, method)(eid)
    assert factor.edge_count == 6
    assert factor.ids == (ypath(g, 0, 0, 1, 1, 2, 2, 3),)
    _assert_ends_match(factor)


@pytest.mark.parametrize("pairs, eid, text", [
    # each check is O(1) and they run in this order, so an edge in F, or
    # one with an interior end on the same path, is not named a cycle
    (_SIX_PATH, 12, "edge id 12 is not in range(12)"),
    (_SIX_PATH, 4, "edge occurrence 4 is already in F"),  # y1 x1
    (_SIX_PATH, 1, "edge y0-x1 attaches to a path interior"),
    (_SIX_PATH, 5, "edge y1-x2 attaches to a path interior"),
    (((0, 0), (1, 0), (1, 1)), 1, "edge y0-x1 would close a cycle"),
])
def test_add_edge_refusals_leave_f_unchanged(pairs, eid, text):
    g, factor = _k34_factor(*pairs)
    before = _state(factor)
    with pytest.raises(ValueError) as refused:
        factor.add_edge(eid)
    assert str(refused.value) == text
    assert _state(factor) == before


@pytest.mark.parametrize("flip, text", [
    # y1x1 closes y0 x0 y1 x1 y0, and the walk from x0 over y0x0 is back
    ((1, 1), "edge occurrence 0 is on a cycle of F"),
    # y0x2 gives y0 three F edges: the walk from x0 stops there at once
    ((0, 2), "edge occurrence 0 meets a branch of F at y0"),
])
def test_remove_edge_refuses_a_corrupted_f_unchanged(flip, text):
    # F is the path x1 y0 x0 y1, plus one edge put in behind its ends
    g, factor = _k34_factor((0, 0), (0, 1), (1, 0))
    flip_behind_ends(factor, edge_id(g, *flip))
    before = _state(factor)
    with pytest.raises(ValueError) as refused:
        factor.remove_edge(edge_id(g, 0, 0))
    assert str(refused.value) == text
    assert _state(factor) == before


def _assert_ends_match(factor):
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
        _assert_ends_match(state.factor)
        while state.current is not None:
            step_i(state, policy)
            _assert_ends_match(state.factor)
        factor = state.factor
        for y0 in factor.uncovered_ys():
            rewire(factor, find_trail(factor, y0, policy))
            _assert_ends_match(factor)
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
    # F's ends are out of step with its edge set: the uncovered y0 records
    # x0 as its far end, so adding y0x0 is refused mid-rewire
    g, factor = k2_pseudo
    factor._end[0] = g.y_count  # y_i has vertex id i, x0 has |Y|
    with pytest.raises(AlgorithmDefectError,
                       match="broke the path structure: .*cycle"):
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
            _assert_ends_match(factor)
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
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


_M = 400  # the path y0 x0 y1 x1 ... x_{M-1} y_M, of 2M edges


@pytest.mark.parametrize("y, x, piece", [
    (1, 0, 2 * _M - 2),            # x0y1: y1 x1 ... y_M, on y1's side
    (1, 1, 2),                     # y1x1: y1 x0 y0
    (_M - 1, _M - 1, 2 * _M - 2),  # y_{M-1} x_{M-2} ... y0
    (_M - 1, _M - 2, 2),           # y_{M-1} x_{M-1} y_M
])
def test_remove_edge_visits_only_the_y_side_piece(y, x, piece):
    # remove_edge crosses the edge from its X end and walks the piece on
    # its Y side to its end, reading the incidence list of each of that
    # piece's vertices once and no other; the piece on the X side is read
    # off the path ends F records.  add_edge reads none.
    g = Bigraph(_M + 1, _M, [(i, i) for i in range(_M)]
                + [(i + 1, i) for i in range(_M)])
    eid = edge_id(g, y, x)
    g._inc = inc = _CountingList(g._inc)
    factor = PseudoPathFactor(g)
    for e in range(g.edge_count):
        factor.add_edge(e)
    assert (inc.reads, factor.max_path_length) == (0, 2 * _M)
    factor.remove_edge(eid)
    assert inc.reads == piece + 1
    lengths = sorted(factor._len[v] for v in (0, _M))  # y0 and y_M
    assert lengths == sorted([piece, 2 * _M - 1 - piece])
    _assert_ends_match(factor)


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


def _recount(factor):
    # F's degrees, the records at every path end, the length histogram
    # and the paths, recomputed from the membership bytes alone
    g, member = factor.graph, factor._member
    deg = [0] * len(factor.deg)
    for eid in factor.edge_ids():
        deg[g._ey[eid]] += 1
        deg[g._ex[eid]] += 1
    records, counts, paths = {}, Counter(), set()
    for v in range(len(deg)):
        path, edges = walk_component(g, member, v)
        if path[0] == v <= path[-1]:  # once per path, from its lower end
            records[v] = (path[-1], edges)
            records[path[-1]] = (v, edges)
            if edges:
                counts[edges] += 1
                paths.add(_oriented(path))
    return deg, records, dict(counts), tuple(sorted(paths))


def _state(factor):
    return (bytes(factor._member), list(factor.deg), list(factor._end),
            list(factor._len), dict(factor._len_counts))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 10**6), multi=st.booleans(),
       data=st.data())
def test_ends_match_a_recount_after_every_call(k, seed, multi, data):
    # any sequence of add_edge and remove_edge calls, ids in and out of
    # range: a call is refused exactly when a recount says the id is out
    # of range, the edge is outside F (remove) or would close a cycle or
    # meet an interior vertex (add), and a refused call changes nothing
    g = (k2_stub_pairing(random.Random(seed)) if multi
         else generate(GenConfig(k=k, seed=seed)))
    factor = PseudoPathFactor(g)
    m = g.edge_count
    calls = st.tuples(st.integers(-2, m + 1), st.booleans())
    for eid, add in data.draw(st.lists(calls, max_size=80)):
        deg, records, _, paths = _recount(factor)
        if not 0 <= eid < m:
            refuse = True
        elif add:
            y, x = g._ey[eid], g._ex[eid]
            same_path = any(y in p and x in p for p in paths)
            refuse = deg[y] == 2 or deg[x] == 2 or same_path
        else:
            refuse = not factor._member[eid]
        before = _state(factor)
        try:
            (factor.add_edge if add else factor.remove_edge)(eid)
        except ValueError:
            assert refuse, (eid, add)
            assert _state(factor) == before
            continue
        assert not refuse, (eid, add)
        deg, records, counts, paths = _recount(factor)
        assert factor.deg == deg
        assert {v: (factor._end[v], factor._len[v])
                for v in records} == records
        assert factor._len_counts == counts
        assert factor.ids == paths
