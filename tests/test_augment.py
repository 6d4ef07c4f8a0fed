from __future__ import annotations

import gc
import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (AlgorithmDefectError, AugmentingTrail, Bigraph,
                        GenConfig, NotSimpleError, PathFactor,
                        PseudoPathFactor, RandomPolicy, ValidationReport,
                        Violation, brute_force_trails,
                        build_pseudo_factor, find_trail, fixture,
                        format_factor, generate, make_policy, parse_graph,
                        rewire, serialize_graph, solve, validate_path_factor)
from conftest import edge_pairs, flip_behind_ends, trail_of, ypath


def test_k2_trail_is_golden(k2_pseudo):
    g, factor = k2_pseudo
    assert factor.uncovered_ys() == [0]
    trail = find_trail(factor, 0)
    assert trail == trail_of(g, (0, 0, 2))
    assert len(trail.edges) == 2


def test_k2_all_trails_enumerated(k2_pseudo):
    g, factor = k2_pseudo
    trails = brute_force_trails(factor, 0)
    assert trails == [trail_of(g, w) for w in [
        (0, 0, 2), (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 2, 4)]]
    assert find_trail(factor, 0) in trails


def test_k2_rewire_is_golden(k2_pseudo):
    g, factor = k2_pseudo
    before_max = factor.max_path_length
    before_uncovered = len(factor.uncovered_ys())
    trail = find_trail(factor, 0)
    rewire(factor, trail, checked=True)
    assert factor.ids == (
        ypath(g, 0, 0, 1),
        ypath(g, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7))
    assert factor.max_path_length == 10 < before_max
    assert len(factor.uncovered_ys()) == before_uncovered - 1


def test_rewire_swaps_exactly_the_trail_edges(k2_pseudo):
    g, factor = k2_pseudo
    trail = find_trail(factor, 0)

    def pairs(f):
        return {(g._ey[eid], g._ex[eid]) for eid in f.edge_ids()}

    before_pairs = pairs(factor)
    before_count = factor.edge_count
    rewire(factor, trail)
    # the trail alternates y x y ...: edges y_{j-1} x_j join F, x_j y_j leave
    ids = trail._vertex_ids()
    ys, xs = ids[0::2], ids[1::2]
    adopted = set(zip(ys, xs))
    dropped = set(zip(ys[1:], xs))
    assert pairs(factor) == (before_pairs - dropped) | adopted
    assert factor.edge_count == before_count


def test_k3_trail_crosses_the_short_path(k3_pseudo):
    g, factor = k3_pseudo
    trail = find_trail(factor, 0)
    assert trail == trail_of(g, (0, 0, 1, 1, 4))
    assert len(trail.edges) == 4
    assert repr(trail) == "AugmentingTrail(y0 x0 y1 x1 y4)"
    rewire(factor, trail, checked=True)
    assert factor.ids == (
        ypath(g, 0, 0, 2),
        ypath(g, 1, 1, 3),
        ypath(g, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 9, 7, 10, 8, 11))
    assert factor.max_path_length == 14
    assert not factor.uncovered_ys()


def test_find_trail_rejects_covered_origin(k2_pseudo):
    g, factor = k2_pseudo
    with pytest.raises(ValueError, match="^trail origin y1 must be an "
                                         "uncovered Y vertex$"):
        find_trail(factor, 1)


@pytest.mark.parametrize("search", [find_trail, brute_force_trails])
@pytest.mark.parametrize("index", [-1, 99])
def test_trail_origin_out_of_range_is_rejected(search, index):
    # only y7 is uncovered; y-1 must not wrap to it, nor y99 overrun |Y|
    factor = build_pseudo_factor(generate(GenConfig(2, 2)))
    assert factor.uncovered_ys() == [7]
    with pytest.raises(ValueError, match=f"^trail origin y{index} must be "
                                         "an uncovered Y vertex$"):
        search(factor, index)


# F = y0x1 y0x2 y1x0 y2x0 on k34: a 2-path y1 x0 y2, and x1, x2 at
# F-degree 1, so F is no pseudo path factor
_SHORT_F = (fixture("k34"), (1, 2, 3, 6), 3)


@pytest.mark.parametrize("instance, policy, message", [
    ((fixture("k34"), (), 0), "lex",
     "no interior Y vertex reachable at x0 on a component of length 0"),
    (_SHORT_F, "lex", "no unused factor edge at 2-path middle x1; trail so "
                     "far: y3 x0 y1 x1 y0 x0 y2 x1"),
    (_SHORT_F, "random:3",
     "trail revisited y0; trail so far: y3 x2 y0 x0 y1 x1"),
    ((Bigraph(2, 1, [(1, 0)]), (), 0), "lex",
     "no non-factor edge available at trail tip y0"),
])
def test_find_trail_reports_a_stuck_search_as_a_defect(instance, policy,
                                                        message):
    # success is guaranteed only on a pseudo path factor of a
    # (3,4)-biregular graph; on any other F each way to get stuck raises
    g, eids, y0 = instance
    factor = PseudoPathFactor(g)
    for eid in eids:
        factor.add_edge(eid)
    with pytest.raises(AlgorithmDefectError, match=f"^{re.escape(message)}$"):
        find_trail(factor, y0, make_policy(policy))


def test_solve_reports_a_rejected_trail_as_a_defect(monkeypatch):
    # a trail search that returns y0 x y0 hands rewire a factor edge
    # outside F; solve must not pass that off as the caller's error
    def bad_find_trail(factor, y0, policy):
        first = find_trail(factor, y0).edges[0]
        return AugmentingTrail(factor.graph, (first, first))

    monkeypatch.setattr("pathfactor.augment.find_trail", bad_find_trail)
    g = generate(GenConfig(k=3, seed=0))  # the scan leaves one Y uncovered
    with pytest.raises(AlgorithmDefectError,
                       match="rejected find_trail's own trail: .*outside F"):
        solve(g)


def test_solve_on_fixture_graphs(k2_pseudo, k3_pseudo):
    for g, _ in (k2_pseudo, k3_pseudo):
        factor = solve(g, checked=True)
        report = validate_path_factor(g, factor)
        assert report.valid, report.render()


def test_solve_k34_golden():
    factor = solve(fixture("k34"))
    assert format_factor(factor) == "y2 x2 y0 x0 y1 x1 y3\n"


def test_solve_rejects_multigraph():
    with pytest.raises(NotSimpleError):
        solve(fixture("counterexample"))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_checked_solve_validates(k, seed):
    g = generate(GenConfig(k=k, seed=seed))
    factor = solve(g, checked=True)
    report = validate_path_factor(g, factor)
    assert report.valid, report.render()
    assert len(factor.ids) == k
    assert sum(factor.lengths()) == 6 * k


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 10**6),
       pseed=st.integers(0, 100))
def test_random_policy_solve_validates(k, seed, pseed):
    g = generate(GenConfig(k=k, seed=seed))
    factor = solve(g, RandomPolicy(pseed), checked=True)
    assert validate_path_factor(g, factor).valid


def test_solve_is_byte_deterministic():
    g = generate(GenConfig(k=6, seed=13))
    a = format_factor(solve(g))
    b = format_factor(solve(g))
    assert a == b
    ra = format_factor(solve(g, RandomPolicy(5)))
    rb = format_factor(solve(g, RandomPolicy(5)))
    assert ra == rb


def test_augment_trace_format_and_monotone_max():
    # find a seed where augmentation actually runs, then check the trace
    pattern = re.compile(r"^augment y(\d+) trail_len (\d+) max_path (\d+)$")
    checked_any = False
    for seed in range(30):
        g = generate(GenConfig(k=2, seed=seed))
        if not build_pseudo_factor(g).uncovered_ys():
            continue
        lines = []
        solve(g, trace=lines.append)
        aug = [ln for ln in lines if ln.startswith("augment")]
        assert aug
        last_max = None
        for ln in aug:
            m = pattern.match(ln)
            assert m, ln
            assert int(m.group(2)) % 2 == 0
            if last_max is not None:
                assert int(m.group(3)) <= last_max
            last_max = int(m.group(3))
        checked_any = True
    assert checked_any


def test_emitted_trails_always_among_enumerated():
    # every trail the solver uses on small instances must be one the
    # exhaustive enumeration predicts
    from pathfactor import LexicographicPolicy
    hits = 0
    for seed in range(40):
        g = generate(GenConfig(k=2, seed=seed))
        factor = build_pseudo_factor(g)
        policy = LexicographicPolicy()
        while factor.uncovered_ys():
            y0 = policy.pick(factor.uncovered_ys())
            legal = brute_force_trails(factor, y0)
            trail = find_trail(factor, y0)
            assert trail in legal
            hits += 1
            rewire(factor, trail, checked=True)
    assert hits > 0


def _reference_solve(g, policy):
    # The plain loop solve() replaces with a maintained pool: rescan the
    # uncovered Y vertices every round and pick through policy.pick().
    factor = build_pseudo_factor(g, policy)
    while factor.uncovered_ys():
        y0 = policy.pick(factor.uncovered_ys())
        rewire(factor, find_trail(factor, y0, policy))
    return format_factor(PathFactor.from_pseudo(factor))


@pytest.mark.parametrize("spec", ["lex", "random:0", "random:11"])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_solve_matches_rescanning_reference(k, spec):
    for seed in range(6):
        g = generate(GenConfig(k=k, seed=seed))
        got = format_factor(solve(g, make_policy(spec)))
        assert got == _reference_solve(g, make_policy(spec)), (k, seed, spec)


# sha256 prefixes of format_factor(solve(...)).  The k = 5 and 50 ones come
# from the set-based scan and per-round rescan this package had before it
# kept both pools as lists, and pin the case-1 pick, which the rescanning
# reference above shares; the k = 200 ones come from the solver that still
# keyed F's path index by Vertex; the random:0, random:2, random:5 and
# random:123456789 ones from the RandomPolicy that made one numpy call per
# choice, and pin its stream.
PINNED_DIGESTS = {
    (5, 0, "lex"): "f7c3135cc855bd00",
    (5, 0, "random:7"): "fbf487888e7b0e57",
    (5, 1, "lex"): "415eb5b2db511032",
    (5, 1, "random:7"): "f13530d86ac84046",
    (50, 0, "lex"): "edcdf9d6d7964163",
    (50, 0, "random:7"): "e9222d1d37e2b24b",
    (50, 1, "lex"): "7e4284124294739b",
    (50, 1, "random:7"): "08eb5ae7fa13459c",
    (200, 1, "lex"): "4c2248ea2d893e0a",
    (200, 1, "random:3"): "607fb721552ccda4",
    (1, 0, "random:0"): "3f09619257a6ec08",
    (3, 2, "random:123456789"): "fc380779793c7c53",
    (20, 1, "random:5"): "0fe35bf9841dcf1f",
    (100, 4, "random:123456789"): "1b771d3586be55fd",
    (300, 3, "random:2"): "2ccfc20697f93be8",
    (300, 0, "random:123456789"): "39b1d40d50470ee3",
}


@pytest.mark.parametrize("k, seed, spec", sorted(PINNED_DIGESTS))
def test_solve_output_is_pinned(k, seed, spec):
    text = format_factor(solve(generate(GenConfig(k=k, seed=seed)),
                               make_policy(spec)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == PINNED_DIGESTS[k, seed, spec]


@pytest.mark.parametrize("spec", ["lex", "random:3"])
def test_a_library_solve_leaves_no_cyclic_garbage(spec):
    # parse, solve, validate and format make no reference cycles, so with
    # the cyclic GC off they leave nothing for it to find; running a whole
    # command with the GC off rests on this
    text = serialize_graph(generate(GenConfig(k=200, seed=1)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        g = parse_graph(text)
        factor = solve(g, make_policy(spec))
        valid = validate_path_factor(g, factor).valid
        format_factor(factor)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert valid
    assert found == 0


@pytest.mark.parametrize("spec", ["lex", "random:3"])
def test_solve_scans_for_uncovered_ys_a_bounded_number_of_times(
        monkeypatch, spec):
    # one scan after the build and one in PathFactor.from_pseudo, however
    # many augmentation rounds run; a per-round rescan is quadratic in k
    calls = []
    original = PseudoPathFactor.uncovered_ys

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(PseudoPathFactor, "uncovered_ys", counted)
    lines = []
    solve(generate(GenConfig(k=200, seed=1)), make_policy(spec),
          trace=lines.append)
    assert sum(ln.startswith("augment") for ln in lines) > 2
    assert len(calls) <= 2


def test_checked_rewire_catches_f_disagreeing_with_the_index(
        k2_pseudo, monkeypatch):
    # remove_edge splits the path in its degrees and ends but leaves the
    # edge's membership byte set, so after the swap F branches at the
    # trail's X vertex while its degrees and ends still look like a
    # family of even paths
    g, factor = k2_pseudo
    trail = find_trail(factor, 0)
    original = PseudoPathFactor.remove_edge

    def keeps_the_edge(self, eid):
        original(self, eid)
        self._member[eid] = 1

    monkeypatch.setattr(PseudoPathFactor, "remove_edge", keeps_the_edge)
    with pytest.raises(AlgorithmDefectError,
                       match="F has a branch-vertex at x0"):
        rewire(factor, trail, checked=True)


def test_checked_solve_catches_a_corruption_away_from_the_trail(monkeypatch):
    # after the last rewire, drop an F edge far from its trail from the
    # edge set and the degrees only: no rewire looks there again, so only
    # the check of F after augmentation can see it; a plain solve reads
    # its paths from F's edges and ends, and returns a broken factor
    g = generate(GenConfig(k=20, seed=0))
    rounds = len(build_pseudo_factor(g).uncovered_ys())
    assert rounds > 1
    calls = []

    def corrupting_rewire(factor, trail, *, checked=False):
        rewire(factor, trail, checked=checked)
        calls.append(1)
        if len(calls) == rounds:
            on_trail = set(trail._vertex_ids())
            eid = next(eid for eid, (y, x) in enumerate(edge_pairs(g))
                       if factor._member[eid] and factor.deg[y] == 2
                       and not {y, g.y_count + x} & on_trail)
            flip_behind_ends(factor, eid)

    monkeypatch.setattr("pathfactor.augment.rewire", corrupting_rewire)
    assert not validate_path_factor(g, solve(g)).valid
    calls.clear()
    with pytest.raises(AlgorithmDefectError,
                       match="rejected the augmented factor") as err:
        solve(g, checked=True)
    assert "FAIL x-degree" in str(err.value)


def test_checked_solve_reports_a_rejected_factor_as_a_defect(monkeypatch):
    # every earlier check passes; only the validator's verdict on the
    # solved factor, read lazily from pathfactor.verify, can stop it
    def rejecting(g, factor):
        return ValidationReport((Violation("spanning", ("y0",),
                                           "uncovered: y0"),))

    monkeypatch.setattr("pathfactor.verify.validate_path_factor", rejecting)
    g = generate(GenConfig(k=3, seed=0))
    assert solve(g).ids
    with pytest.raises(AlgorithmDefectError,
                       match="^validator rejected the solved factor:\n"
                             "FAIL spanning uncovered: y0\n$"):
        solve(g, checked=True)


@pytest.mark.parametrize("spec", ["lex", "random:3"])
def test_checked_solve_audits_in_full_only_at_phase_ends(monkeypatch, spec):
    # the per-step and per-trail audits are local; a full audit after
    # every step or trail is quadratic in k
    from pathfactor import builder, verify
    calls = {"state": 0, "pseudo": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(builder, "check_state_invariants",
                        counting("state", builder.check_state_invariants))
    monkeypatch.setattr(verify, "validate_pseudo_factor",
                        counting("pseudo", verify.validate_pseudo_factor))
    lines = []
    solve(generate(GenConfig(k=200, seed=1)), make_policy(spec),
          checked=True, trace=lines.append)
    assert sum(ln.startswith("augment") for ln in lines) > 2
    # once after the first scan step and once at the scan's end; once
    # after the scan and once after augmentation
    assert calls == {"state": 2, "pseudo": 2}


@pytest.mark.parametrize("spec", ["lex", "random:5"])
@pytest.mark.parametrize("k", [50, 500])
def test_checked_solve_matches_plain(k, spec):
    g = generate(GenConfig(k=k, seed=2))
    assert (solve(g, make_policy(spec), checked=True).ids
            == solve(g, make_policy(spec)).ids)
