from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (AlgorithmDefectError, Bigraph, GenConfig,
                        NotBiregularError, NotSimpleError, PathFactor,
                        PseudoPathFactor, RandomPolicy, ValidationReport,
                        Violation, build_pseudo_factor, fixture,
                        format_factor, generate, parse_factor, solve,
                        validate_path_factor, validate_pseudo_factor)
from pathfactor.builder import (FactorState, _grow_f, check_state_invariants,
                                step_i, step_zero)
from pathfactor.policy import LexicographicPolicy
from conftest import edge_id, edge_pairs, flip_behind_index, ypath

K34_TRACE = [
    "step 0 case 0 y0 F:[y0x2 y0x0] U:[y0x1]",
    "step 1 case 3b y1 F:[y1x1 y1x0] U:[y1x2]",
    "step 2 case 2 y2 F:[y2x2] U:[y2x0 y2x1]",
    "step 3 case 1 y3 F:[y3x1] U:[y3x0 y3x2]",
]


def test_k34_lex_trace_is_golden():
    lines = []
    build_pseudo_factor(fixture("k34"), checked=True, trace=lines.append)
    assert lines == K34_TRACE


def test_k34_lex_factor_is_golden():
    g = fixture("k34")
    factor = build_pseudo_factor(g)
    assert factor.ids == (ypath(g, 2, 2, 0, 0, 1, 1, 3),)
    assert factor.max_path_length == 6
    assert not factor.uncovered_ys()


def test_builder_rejects_bad_input():
    with pytest.raises(NotSimpleError):
        build_pseudo_factor(fixture("counterexample"))
    from pathfactor import Bigraph
    with pytest.raises(NotBiregularError):
        build_pseudo_factor(Bigraph(4, 4, [(0, 0)]))


def test_step_zero_requires_fresh_state():
    g = fixture("k34")
    state = step_zero(FactorState.initial(g), LexicographicPolicy())
    with pytest.raises(AlgorithmDefectError, match="fresh state"):
        step_zero(state, LexicographicPolicy())


def _forced_3b_state():
    # Both w's have F-degree 1, and the policy-preferred extension would
    # close a cycle, so the builder must take the other one.
    g = fixture("k34")
    state = FactorState.initial(g)
    for y, x in [(0, 0), (0, 1), (2, 2)]:
        _grow_f(state, edge_id(g, y, x))
    state.current = g.y_count  # x0
    state.step_no = 2
    check_state_invariants(state)
    return g, state


def test_dump_of_the_k34_state_after_step_zero_is_golden():
    state = step_zero(FactorState.initial(fixture("k34")),
                      LexicographicPolicy())
    assert state.dump() == ("step=1 current=x1 scanned=[y0] "
                            "F=[y0x0 y0x2] U=[y0x1]")


def _clear_current(g, state):
    state.current = None


def _fill_current(g, state):
    _grow_f(state, edge_id(g, 1, 0))  # x0 gets F-degree 2


@pytest.mark.parametrize("corrupt, message", [
    (_clear_current,
     "current vertex None is not an X vertex\n  step=2 current=None "
     "scanned=[y0 y2] F=[y0x0 y0x1 y2x2] U=[y0x2 y2x0 y2x1]"),
    (_fill_current,
     "current vertex x0 already has F-degree 2\n  step=2 current=x0 "
     "scanned=[y0 y1 y2] F=[y0x0 y0x1 y1x0 y2x2] "
     "U=[y0x2 y1x1 y1x2 y2x0 y2x1]"),
])
def test_step_i_guards_its_current_vertex(corrupt, message):
    g, state = _forced_3b_state()
    corrupt(g, state)
    with pytest.raises(AlgorithmDefectError) as info:
        step_i(state, LexicographicPolicy())
    assert str(info.value) == message


def test_case_3b_avoids_the_cycle():
    g, state = _forced_3b_state()
    lines = []
    step_i(state, LexicographicPolicy(), trace=lines.append, checked=True)
    # x1 joins y1 to the component already holding y0 and x0, so the
    # factor must extend through x2 even though x1 sorts first
    assert lines == ["step 2 case 3b y1 F:[y1x0 y1x2] U:[y1x1]"]
    assert state.current == g.y_count + 1  # x1
    pairs = edge_pairs(g)
    f_pairs = {pairs[eid] for eid in state.factor.edge_ids()}
    assert (1, 2) in f_pairs and (1, 1) not in f_pairs


def test_forced_3b_state_completes():
    g, state = _forced_3b_state()
    policy = LexicographicPolicy()
    while state.current is not None:
        step_i(state, policy, checked=True)
    assert all(d == 2 for d in state.factor.deg[g.y_count:])
    assert validate_pseudo_factor(g, state.factor.edge_ids()).valid


@pytest.mark.parametrize("pairs, match", [
    ([(1, 0), (1, 1)], "cycle"),  # y1 joins both ends of x0 y0 x1
    ([(0, 2)], "interior"),       # y0 is interior to x0 y0 x1
])
def test_grow_f_reports_a_non_path_as_a_defect(pairs, match):
    g, state = _forced_3b_state()
    with pytest.raises(AlgorithmDefectError,
                       match=f"family of paths: .*{match}"):
        for y, x in pairs:
            _grow_f(state, edge_id(g, y, x))


def test_grow_f_reports_a_stale_index_entry_as_a_defect():
    # x0's path index entry becomes an equal copy of its path; the live
    # path grows past the copy, so the next edge at x0 finds the copy's
    # length missing from the length histogram
    g = generate(GenConfig(3, 0))
    state = FactorState.initial(g)
    policy = LexicographicPolicy()
    step_zero(state, policy)
    while state.step_no < 5:
        step_i(state, policy)
    x0 = g.y_count
    state.factor._path_of[x0] = deque(state.factor._path_of[x0])
    with pytest.raises(AlgorithmDefectError) as info:
        while state.current is not None:
            step_i(state, policy, checked=True)
    assert str(info.value) == (
        "F stopped being a family of paths: the path index holds a path "
        "of length 8 that F lacks\n  step=5 current=x4 "
        "scanned=[y0 y3 y4 y5 y7 y8] F=[y0x1 y0x8 y3x0 y3x4 y4x2 y4x7 "
        "y5x4 y5x8 y7x0 y7x3 y8x1 y8x3] U=[y0x7 y3x2 y4x3 y5x1 y7x8 "
        "y8x4]")


def _add_f_at_unscanned_y(g, state):
    _grow_f(state, edge_id(g, 3, 2))  # y3 x2 y2: an F edge no step made


def _add_f_at_scanned_y(g, state):
    _grow_f(state, edge_id(g, 2, 0))  # y2 was scanned with y2x0 rejected


def _drop_f_edge(g, state):
    state.factor.remove_edge(edge_id(g, 2, 2))  # x2 stays pending


def _add_branch(g, state):
    flip_behind_index(state.factor, edge_id(g, 0, 2))  # y0 has F-degree 2


def _add_cycle(g, state):
    flip_behind_index(state.factor, edge_id(g, 1, 0))  # y1 closes x0 y0 x1
    flip_behind_index(state.factor, edge_id(g, 1, 1))


def _reject_every_edge_at_x(g, state):
    # y1 and y3 scanned with their F edges away from x0: x0 then has
    # F-degree 1 and its three other edges all rejected
    _grow_f(state, edge_id(g, 1, 2))
    _grow_f(state, edge_id(g, 3, 1))


def _desync_pending_x(g, state):
    state.pending_x.remove(g.y_count + 2)


def _share_index_entry(g, state):
    # the isolated y1 gets y0's path as its index entry
    state.factor._path_of[1] = state.factor._path_of[0]


@pytest.mark.parametrize("corrupt, match", [
    (_add_f_at_unscanned_y, "3 Y vertices scanned in 2 steps"),
    (_add_f_at_scanned_y, "shrank"),
    (_drop_f_edge, "1 Y vertices scanned in 2 steps"),
    (_add_branch, "F has a branch"),
    (_add_cycle, "F has a cycle"),
    (_reject_every_edge_at_x, "x0 has F-degree 1 yet 3 rejected edges"),
    (_desync_pending_x, "pending_x"),
    (_share_index_entry,
     r"^path index at y1 holds \[x1 y0 x0\] but F has \[y1\]\n"),
])
def test_audit_catches_a_corrupted_state(corrupt, match):
    g, state = _forced_3b_state()
    corrupt(g, state)
    with pytest.raises(AlgorithmDefectError, match=match):
        check_state_invariants(state)


def _copy_index_entry(g, state):
    # y0's path index entry becomes an equal copy of its path, so y0 no
    # longer shares the entry of the path it is on
    state.factor._path_of[0] = deque(state.factor._path_of[0])


def _requeue_x(g, state):
    state.pending_x.insert(0, g.y_count)  # x0 pending twice


def _count_an_extra_step(g, state):
    state.step_no += 1


def _bump_y_counter(g, state):
    state.factor.deg[0] += 1  # y0's counter alone: F keeps its edges


def _copy_index_entry_at_a_jump(g, state):
    # In k34 every X is a neighbour of every Y, so case 1 never jumps past
    # y_i's neighbours.  The state becomes a k = 3 scan one step before
    # case 1 jumps to the pending x6, whose index entry then becomes an
    # equal copy of its path y2 x6; no step reads that entry before x6's
    # own audit after the jump.
    other = FactorState.initial(generate(GenConfig(3, 0)))
    policy = LexicographicPolicy()
    step_zero(other, policy)
    while other.step_no < 8:
        step_i(other, policy)
    vars(state).update(vars(other))
    x6 = state.graph.y_count + 6
    state.factor._path_of[x6] = deque(state.factor._path_of[x6])


# (corruption, defect, dump of the state it is caught in): the defect
# text names the guard that catches it first, and the dump's step when.
# step_i's current-vertex guard catches _add_f_at_scanned_y and
# _add_cycle, its free-edge guard _reject_every_edge_at_x, and _grow_f's
# pending guard _desync_pending_x.  The local audit after a step catches
# _add_f_at_unscanned_y by its reject count at x1, _add_branch and
# _copy_index_entry by its path check and _requeue_x by its pending
# check; its path check of the X that case 1 jumps to catches
# _copy_index_entry_at_a_jump, which without that audit is caught only a
# step later.  The full audit when the scan ends catches _drop_f_edge (y2
# loses its only F edge and is scanned again) and _count_an_extra_step
# by its step count, and _bump_y_counter, which nothing else catches, by
# its comparison of the counters with F's edges.
SCAN_DEFECTS = [
    (_add_f_at_unscanned_y, "x1 has F-degree 1 yet 3 rejected edges",
     "step=3 current=x1 scanned=[y0 y1 y2 y3] F=[y0x0 y0x1 y1x0 y2x2 y3x2] "
     "U=[y0x2 y1x1 y1x2 y2x0 y2x1 y3x0 y3x1]"),
    (_add_f_at_scanned_y, "current vertex x0 already has F-degree 2",
     "step=2 current=x0 scanned=[y0 y2] F=[y0x0 y0x1 y2x0 y2x2] "
     "U=[y0x2 y2x1]"),
    (_drop_f_edge, "4 Y vertices scanned in 5 steps",
     "step=5 current=None scanned=[y0 y1 y2 y3] "
     "F=[y0x0 y0x1 y1x0 y1x2 y2x1 y3x2] U=[y0x2 y1x1 y2x0 y2x2 y3x0 y3x1]"),
    (_add_branch, "F has a branch-vertex at y0",
     "step=3 current=x1 scanned=[y0 y1 y2] F=[y0x0 y0x1 y0x2 y1x0 y2x2] "
     "U=[y1x1 y1x2 y2x0 y2x1]"),
    (_add_cycle, "current vertex x0 already has F-degree 2",
     "step=2 current=x0 scanned=[y0 y1 y2] F=[y0x0 y0x1 y1x0 y1x1 y2x2] "
     "U=[y0x2 y1x2 y2x0 y2x1]"),
    (_reject_every_edge_at_x,
     "no uncommitted edge at x0; the scan guarantees at least one",
     "step=2 current=x0 scanned=[y0 y1 y2 y3] F=[y0x0 y0x1 y1x2 y2x2 y3x1] "
     "U=[y0x2 y1x0 y1x1 y2x0 y2x1 y3x0 y3x2]"),
    (_desync_pending_x,
     "pending_x list out of sync: x2 reached F-degree 2 but is not pending",
     "step=2 current=x0 scanned=[y0 y1 y2] F=[y0x0 y0x1 y1x0 y1x2 y2x2] "
     "U=[y0x2 y1x1 y2x0 y2x1]"),
    (_copy_index_entry, "path index at y0 is not the one at y1 on its path",
     "step=3 current=x1 scanned=[y0 y1 y2] F=[y0x0 y0x1 y1x0 y1x2 y2x2] "
     "U=[y0x2 y1x1 y2x0 y2x1]"),
    (_requeue_x, "pending_x list out of sync at x0",
     "step=3 current=x1 scanned=[y0 y1 y2] F=[y0x0 y0x1 y1x0 y1x2 y2x2] "
     "U=[y0x2 y1x1 y2x0 y2x1]"),
    (_count_an_extra_step, "4 Y vertices scanned in 5 steps",
     "step=5 current=None scanned=[y0 y1 y2 y3] "
     "F=[y0x0 y0x1 y1x0 y1x2 y2x2 y3x1] U=[y0x2 y1x1 y2x0 y2x1 y3x0 y3x2]"),
    (_bump_y_counter, "y0 has F-degree 2 but its counter reads 3",
     "step=4 current=None scanned=[y0 y1 y2 y3] "
     "F=[y0x0 y0x1 y1x0 y1x2 y2x2 y3x1] U=[y0x2 y1x1 y2x0 y2x1 y3x0 y3x2]"),
    (_copy_index_entry_at_a_jump,
     "path index at y2 is not the one at x6 on its path",
     "step=9 current=x6 scanned=[y0 y1 y2 y3 y4 y5 y6 y7 y8] F=[y0x1 "
     "y0x8 y1x0 y1x5 y2x6 y3x2 y3x4 y4x2 y4x7 y5x4 y5x8 y6x5 y7x0 y7x3 "
     "y8x1 y8x3] U=[y0x7 y1x6 y2x2 y2x5 y3x0 y4x3 y5x1 y6x2 y6x4 y7x8 "
     "y8x4]"),
]


@pytest.mark.parametrize("corrupt, defect, dump", [
    pytest.param(*case, id=case[0].__name__) for case in SCAN_DEFECTS])
def test_checked_scan_catches_a_corrupted_state(corrupt, defect, dump):
    # the faults, met while the scan runs on: between them the local
    # audit after each step, the scan's own guards and the full audit when
    # the scan ends must catch every one, each at a pinned guard and step
    g, state = _forced_3b_state()
    corrupt(g, state)
    policy = LexicographicPolicy()
    with pytest.raises(AlgorithmDefectError) as info:
        while state.current is not None:
            step_i(state, policy, checked=True)
    assert str(info.value) == f"{defect}\n  {dump}"


def test_checked_step_catches_a_y_counter_that_ran_ahead(monkeypatch):
    # A Y vertex with an F edge is never free, so no corrupted state
    # reaches the local audit's check of the scanned Y's F-degree; a
    # counter that counts the scanned Y's first F edge twice does
    add_edge = PseudoPathFactor.add_edge

    def add_edge_counting_y_twice(factor, eid):
        y = factor.graph._ey[eid]
        first = factor.deg[y] == 0
        add_edge(factor, eid)
        factor.deg[y] += first

    g, state = _forced_3b_state()
    monkeypatch.setattr(PseudoPathFactor, "add_edge",
                        add_edge_counting_y_twice)
    with pytest.raises(AlgorithmDefectError) as info:
        step_i(state, LexicographicPolicy(), checked=True)
    assert str(info.value) == (
        "unscanned y1 had F-degree 1\n  step=3 current=x1 scanned=[y0 y1 "
        "y2] F=[y0x0 y0x1 y1x0 y1x2 y2x2] U=[y0x2 y1x1 y2x0 y2x1]")


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 40), seed=st.integers(min_value=0),
       pseed=st.none() | st.integers(0, 10**6))
def test_the_scanned_ys_are_those_with_an_f_edge(k, seed, pseed):
    # the scan stores no scanned set: after every step, the Y vertices
    # with an F edge are exactly those the trace has named, one per step
    g = generate(GenConfig(k=k, seed=seed))
    policy = LexicographicPolicy() if pseed is None else RandomPolicy(pseed)
    lines, named = [], set()
    state = step_zero(FactorState.initial(g), policy, trace=lines.append)
    while True:
        named.add(int(lines[-1].split()[4][1:]))  # step <n> case <c> y<i>
        deg = state.factor.deg
        assert {i for i in range(g.y_count) if deg[i]} == named
        assert len(named) == state.step_no
        if state.current is None:
            break
        step_i(state, policy, trace=lines.append)
    assert len(lines) == state.step_no


def test_checked_build_reports_a_rejected_factor_as_a_defect(monkeypatch):
    # the scan's own guards pass here; only the validator's verdict on the
    # built F, read lazily from pathfactor.verify, can stop it
    def rejecting(g, eids):
        return ValidationReport((Violation("x-degree", ("x0",),
                                           "deg(x0) = 1, want 2"),))

    monkeypatch.setattr("pathfactor.verify.validate_pseudo_factor", rejecting)
    g = fixture("k34")
    assert build_pseudo_factor(g).edge_count == 2 * g.x_count
    with pytest.raises(AlgorithmDefectError,
                       match="^validator rejected the built factor:\n"
                             "FAIL x-degree deg\\(x0\\) = 1, want 2\n"):
        build_pseudo_factor(g, checked=True)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_checked_build_validates(k, seed):
    g = generate(GenConfig(k=k, seed=seed))
    factor = build_pseudo_factor(g, checked=True)
    assert validate_pseudo_factor(g, factor.edge_ids()).valid
    assert factor.edge_count == 2 * g.x_count
    for p in factor.ids:
        assert (len(p) - 1) % 2 == 0
        assert p[0] < g.y_count and p[-1] < g.y_count


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 10**6),
       pseed=st.integers(0, 100))
def test_random_policy_build_validates(k, seed, pseed):
    g = generate(GenConfig(k=k, seed=seed))
    factor = build_pseudo_factor(g, RandomPolicy(pseed), checked=True)
    assert validate_pseudo_factor(g, factor.edge_ids()).valid


@pytest.mark.parametrize("policy", [LexicographicPolicy,
                                    lambda: RandomPolicy(0)])
def test_scan_builds_no_vertex(monkeypatch, policy):
    # the scan, and the whole solve path after it, checked or not, run on
    # integer vertex ids; Bigraph.name names a vertex only for a violation
    g = generate(GenConfig(k=1000, seed=0))
    named = []
    original = Bigraph.name

    def counted(self, vid):
        named.append(vid)
        return original(self, vid)

    monkeypatch.setattr(Bigraph, "name", counted)
    build_pseudo_factor(g, policy())
    assert named == []
    factor = solve(g, policy())
    assert validate_path_factor(g, factor).valid
    assert solve(g, policy(), checked=True) == factor
    text = format_factor(factor)
    assert validate_path_factor(g, parse_factor(text)).valid
    assert named == []
    # the count is live: without its first path, the factor's uncovered
    # vertices are named
    assert not validate_path_factor(g, PathFactor(g, factor.ids[1:])).valid
    assert sorted(named) == sorted(factor.ids[0])


def test_build_is_deterministic():
    g = generate(GenConfig(k=4, seed=11))
    assert (build_pseudo_factor(g).ids ==
            build_pseudo_factor(g).ids ==
            build_pseudo_factor(g, LexicographicPolicy()).ids)
    assert (build_pseudo_factor(g, RandomPolicy(3)).ids ==
            build_pseudo_factor(g, RandomPolicy(3)).ids)


def test_commit_split_is_half_and_half():
    # when the scan ends, every Y vertex is scanned, so F and U partition
    # all 12k edges into 6k factor edges and 6k rejected ones
    g = generate(GenConfig(k=5, seed=2))
    factor = build_pseudo_factor(g)
    assert factor.edge_count == 6 * 5


def test_scan_constructs_in_at_most_y_steps():
    g = generate(GenConfig(k=6, seed=0))
    lines = []
    build_pseudo_factor(g, trace=lines.append)
    assert len(lines) <= g.y_count
