from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (Bigraph, GenConfig, OracleSizeError, PathFactor,
                        PseudoPathFactor, Violation,
                        brute_force_factor, brute_force_trails,
                        build_pseudo_factor, find_trail, fixture,
                        format_factor, generate, make_policy, parse_factor,
                        rewire, solve, validate_path_factor,
                        validate_pseudo_factor)
from pathfactor import verify
from pathfactor.builder import FactorState, step_i, step_zero
from pathfactor.verify import _names, audit_ids, walk_component
from conftest import edge_id, flip_behind_ends, k2_stub_pairing


def _rules(report):
    return [v.rule for v in report.violations]


def _k34_f():
    g = fixture("k34")
    return g, build_pseudo_factor(g).edge_ids()


def test_pseudo_validator_accepts_builder_output():
    g, eids = _k34_f()
    report = validate_pseudo_factor(g, eids)
    assert report.valid
    assert report.render() == "OK\n"


def _pinned(report, *violations):
    # the whole report: each violation's rule, subjects (ascending) and
    # message, and the rendered text
    assert report.violations == tuple(
        Violation(rule, tuple(names.split()), message)
        for rule, names, message in violations)
    assert report.render() == "".join(f"FAIL {rule} {message}\n"
                                      for rule, _, message in violations)


def test_pseudo_validator_missing_edge():
    g, eids = _k34_f()
    eids.remove(edge_id(g, 0, 0))
    _pinned(validate_pseudo_factor(g, eids),
            ("odd-length", "y1 y3 x0 x1",
             "path component {y1 y3 x0 x1} has odd length 3"),
            ("x-degree", "x0", "deg(x0) = 1, want 2"))


def test_pseudo_validator_extra_edge():
    g, eids = _k34_f()
    eids.append(edge_id(g, 2, 0))
    _pinned(validate_pseudo_factor(g, eids),
            ("max-degree", "x0", "deg(x0) = 3, want <= 2"),
            ("cycle", "y0 y1 y2 y3 x0 x1 x2",
             "component {y0 y1 y2 y3 x0 x1 x2} has 7 edges on 7 vertices"),
            ("x-degree", "x0", "deg(x0) = 3, want 2"))


def test_pseudo_validator_pure_cycle(subgraph_of):
    g = fixture("k34")
    eids = subgraph_of(g, [(0, 0), (0, 1), (1, 0), (1, 1)])
    _pinned(validate_pseudo_factor(g, eids),
            ("cycle", "y0 y1 x0 x1",
             "component {y0 y1 x0 x1} has 4 edges on 4 vertices"),
            ("x-degree", "x2", "deg(x2) = 0, want 2"))


def test_pseudo_validator_foreign_subgraph():
    # a valid edge set plus one id that names no edge of g (12 is |E|), or
    # one edge a second time, is not an edge set of g: nothing else is
    # checked then
    g, eids = _k34_f()
    for bad, why in [(12, "not in range(12)"), (-1, "not in range(12)"),
                     (eids[0], "repeated")]:
        _pinned(validate_pseudo_factor(g, eids + [bad]),
                ("subgraph", "", f"edge id {bad} is {why}"))


def _name_lines(factor):
    return parse_factor(format_factor(factor))


def test_path_validator_accepts_solver_output():
    g = fixture("k34")
    factor = solve(g)
    assert validate_path_factor(g, factor).valid
    # name lines, as parse_factor gives them, are accepted too
    assert validate_path_factor(g, _name_lines(factor)).valid


def test_path_validator_spanning_counts_only_real_vertices():
    # x99999 in place of x_j is no vertex of g, so its line is no path:
    # |V| distinct vertices are named, yet the real ones on that line are
    # uncovered
    g = generate(GenConfig(k=3, seed=0))
    paths = _name_lines(solve(g))
    first = paths[0]
    paths[0] = (first[0], "x99999") + first[2:]
    report = validate_path_factor(g, paths)
    names = " ".join(paths[0])
    assert " x99999 " in names
    real = tuple(sorted(first, key=lambda u: (u[0] == "x", int(u[1:]))))
    assert report.violations == (
        Violation("not-a-path", paths[0],
                  f"line 1 [{names}] is not a simple path in the graph"),
        Violation("spanning", real, f"uncovered: {' '.join(real)}"))


def _k34_paths():
    return _name_lines(solve(fixture("k34")))


@pytest.mark.parametrize("mutate,expected", [
    (lambda ps: [], {"spanning", "path-count"}),
    (lambda ps: ps + ps, {"disjoint", "path-count"}),
    (lambda ps: [ps[0][1:]], {"endpoint-degree", "odd-length", "spanning"}),
    (lambda ps: [ps[0][:2]], {"endpoint-degree", "odd-length", "spanning"}),
    (lambda ps: [("y0", "x0", "y0")], {"not-a-path", "spanning"}),
    (lambda ps: [("y0", "y1")], {"not-a-path", "spanning"}),
    (lambda ps: [("y0", "x9")], {"not-a-path", "spanning"}),
    # names no factor file can hold name no vertex of any graph
    (lambda ps: [("z0", "y0")], {"not-a-path", "spanning"}),
    (lambda ps: [("y-1", "y0")], {"not-a-path", "spanning"}),
    # in place of the end y3, a name that reads as no vertex of g: zero
    # padded, digits int() reads but that are not ASCII or that it
    # refuses, another case or side letter, a separator, 5,000 digits, or
    # one past each side's range
    *[(lambda ps, u=u: [ps[0][:-1] + (u,)], {"not-a-path", "spanning"})
      for u in ("y007", "y003", "y\u0663", "y\u00b3", "Y3", "z3", "", "y",
                "y1_0", "y" + "1" * 5000, "y4", "x3")],
])
def test_path_validator_rule_ids(mutate, expected):
    g = fixture("k34")
    report = validate_path_factor(g, mutate(_k34_paths()))
    assert set(_rules(report)) == expected


_K5 = ["y2 x12 y14 x10 y5 x2 y13", "y3 x0 y4 x5 y10",
       "y6 x13 y7 x6 y0 x4 y8 x9 y11 x11 y16 x14 y12", "y9 x7 y18",
       "y17 x1 y15 x3 y1 x8 y19"]  # solve(generate(GenConfig(5, 0)))


def _k5_with(i, line):
    return _K5[:i] + [line] + _K5[i + 1:]


_K34 = "y2 x2 y0 x0 y1 x1 y3"
_K5_SPANNED = ("y0 y1 y2 y5 y6 y7 y8 y10 y11 y12 y13 y14 y15 y16 y17 y19 "
               "x1 x2 x3 x4 x5 x6 x8 x9 x10 x11 x12 x13 x14")


# One broken factor per rule: the graph, the factor lines and each
# violation's FAIL text and subjects, as the Vertex-keyed validator that
# the id core replaced reported them.
@pytest.mark.parametrize("graph, lines, expected", [
    pytest.param("4x4", [_K34], [
        ("graph-shape |X| = 4, want 3k = 3 to match |Y| = 4", ""),
        ("spanning uncovered: x3", "x3")], id="graph-shape"),
    pytest.param("k5", _k5_with(3, "y9 x0 y18"), [
        ("not-a-path line 4 [y9 x0 y18] is not a simple path in the graph",
         "y9 x0 y18"),
        ("spanning uncovered: y9 y18 x7", "y9 y18 x7")], id="non-edge"),
    pytest.param("k34", ["y0 x0 y0"], [
        ("not-a-path line 1 [y0 x0 y0] is not a simple path in the graph",
         "y0 x0 y0"),
        ("spanning uncovered: y0 y1 y2 y3 x0 x1 x2",
         "y0 y1 y2 y3 x0 x1 x2")], id="repeated-vertex"),
    pytest.param("k5", _k5_with(3, "y99999 x7 y18"), [
        ("not-a-path line 4 [y99999 x7 y18] is not a simple path in the "
         "graph", "y99999 x7 y18"),
        ("spanning uncovered: y9 y18 x7", "y9 y18 x7")], id="y99999"),
    # y25 is index 25 = |Y| + 5, where a naive id would read x5
    pytest.param("k5", _k5_with(1, "y3 x0 y4 y25 y10"), [
        ("not-a-path line 2 [y3 x0 y4 y25 y10] is not a simple path in "
         "the graph", "y3 x0 y4 y25 y10"),
        ("spanning uncovered: y3 y4 y10 x0 x5", "y3 y4 y10 x0 x5")],
        id="y25-aliasing-x5"),
    # a Y id in an X slot: y4 y5 and y5 y10 join two Y ids, so no X end
    # in inc[y4] or inc[y5] matches, though x5 is adjacent to y4 and y10
    pytest.param("k5", _k5_with(1, "y3 x0 y4 y5 y10"), [
        ("not-a-path line 2 [y3 x0 y4 y5 y10] is not a simple path in the "
         "graph", "y3 x0 y4 y5 y10"),
        ("spanning uncovered: y3 y4 y10 x0 x5", "y3 y4 y10 x0 x5")],
        id="y-name-in-an-x-slot"),
    # an X id in a Y slot next to a Y id in an X slot: y7 y0 joins two Y
    # ids, and y0 x0, looked up from its Y end y0, is no edge of g either
    pytest.param("k5", _k5_with(3, "y7 y0 x0"), [
        ("not-a-path line 4 [y7 y0 x0] is not a simple path in the graph",
         "y7 y0 x0"),
        ("spanning uncovered: y9 y18 x7", "y9 y18 x7")],
        id="x-name-in-a-y-slot"),
    # x15 is out of range on the X side, next to another unknown vertex
    pytest.param("k5", _k5_with(3, "y9 x15 y25"), [
        ("not-a-path line 4 [y9 x15 y25] is not a simple path in the graph",
         "y9 x15 y25"),
        ("spanning uncovered: y9 y18 x7", "y9 y18 x7")], id="x-beyond-X"),
    pytest.param("k34", [_K34, "y3"], [
        ("not-a-path line 2 [y3] is not a simple path in the graph", "y3"),
        ("path-count 2 paths, want k = 1", "")], id="single-vertex"),
    # y2 is out of range on the Y side, though an X index could be 2
    pytest.param("2x3", ["y0 y2 y1"], [
        ("graph-shape |Y| = 2 is not a multiple of 4", ""),
        ("not-a-path line 1 [y0 y2 y1] is not a simple path in the graph",
         "y0 y2 y1"),
        ("spanning uncovered: y0 y1 x0 x1 x2", "y0 y1 x0 x1 x2")],
        id="y-beyond-Y"),
    pytest.param("k34", ["x0 y0 x2 y1 x1"], [
        ("endpoint-degree endpoint x0 is on the degree-4 side, want Y",
         "x0"),
        ("endpoint-degree endpoint x1 is on the degree-4 side, want Y",
         "x1"),
        ("spanning uncovered: y2 y3", "y2 y3")], id="endpoint-degree"),
    pytest.param("k34", ["y2 x2 y0 x0 y1 x1"], [
        ("endpoint-degree endpoint x1 is on the degree-4 side, want Y",
         "x1"),
        ("odd-length line 1 [y2 x2 y0 x0 y1 x1] has odd length 5",
         "y2 x2 y0 x0 y1 x1"),
        ("spanning uncovered: y3", "y3")], id="odd-length"),
    pytest.param("k34", [_K34, "y1 x2 y3"], [
        ("disjoint y1 appears on lines 1 and 2", "y1"),
        ("disjoint x2 appears on lines 1 and 2", "x2"),
        ("disjoint y3 appears on lines 1 and 2", "y3"),
        ("path-count 2 paths, want k = 1", "")], id="disjoint"),
    pytest.param("k5", ["y9 x7 y18", "y9 x7 y18", "y3 x0 y4", "y3 x0 y4",
                        "y9 x7 y18"], [
        ("disjoint y9 appears on lines 1 and 2", "y9"),
        ("disjoint x7 appears on lines 1 and 2", "x7"),
        ("disjoint y18 appears on lines 1 and 2", "y18"),
        ("disjoint y3 appears on lines 3 and 4", "y3"),
        ("disjoint x0 appears on lines 3 and 4", "x0"),
        ("disjoint y4 appears on lines 3 and 4", "y4"),
        ("disjoint y9 appears on lines 1 and 5", "y9"),
        ("disjoint x7 appears on lines 1 and 5", "x7"),
        ("disjoint y18 appears on lines 1 and 5", "y18"),
        (f"spanning uncovered: {_K5_SPANNED}", _K5_SPANNED)],
        id="disjoint-thrice"),
    pytest.param("k34", ["y2 x2 y0 x0 y1"], [
        ("spanning uncovered: y3 x1", "y3 x1")], id="spanning"),
    pytest.param("k34", [], [
        ("spanning uncovered: y0 y1 y2 y3 x0 x1 x2",
         "y0 y1 y2 y3 x0 x1 x2"),
        ("path-count 0 paths, want k = 1", "")], id="path-count"),
])
def test_path_validator_pins_every_rule(graph, lines, expected):
    g = {"k34": fixture("k34"), "k5": generate(GenConfig(k=5, seed=0)),
         "4x4": Bigraph(4, 4, [(i, j) for i in range(4) for j in range(4)]),
         "2x3": Bigraph(2, 3, [(i, j) for i in range(2) for j in range(3)]),
         }[graph]
    paths = parse_factor("\n".join(lines))
    report = validate_path_factor(g, paths)
    assert report.render() == "".join(f"FAIL {text}\n"
                                      for text, _ in expected)
    assert [v.subjects for v in report.violations] == [
        tuple(names.split()) for _, names in expected]
    ids = {g.name(v): v for v in range(g.y_count + g.x_count)}
    if all(v in ids for p in paths for v in p):  # the fault fits ids
        factor = PathFactor(g, tuple(tuple(map(ids.get, p)) for p in paths))
        assert validate_path_factor(g, factor) == report


def test_path_validator_holds_no_copy_of_the_graph():
    # each step is looked up in g's own incidence lists; a per-edge set or
    # list built for the check would trace over 100 bytes an edge
    g = generate(GenConfig(k=1000, seed=0))
    factor = solve(g)
    for form, bound in ((factor, 40),
                        (parse_factor(format_factor(factor)), 120)):
        tracemalloc.start()
        try:
            report = validate_path_factor(g, form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.valid
        assert peak / g.edge_count < bound


def test_name_lines_are_read_without_a_name_table():
    # each y<i> / x<j> is read straight to its id: about 34 B per edge at
    # k = 1000, where a table of every vertex name of g traced 85 B
    g = generate(GenConfig(k=1000, seed=0))
    lines = parse_factor(format_factor(solve(g)))
    tracemalloc.start()
    try:
        report = validate_path_factor(g, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak / g.edge_count < 50


@pytest.mark.parametrize("line, names", [
    ((3, 55, 4), "y3 x35 y4"),  # 55 >= |V| = 35
    ((-1, 20, 4), "y-1 x0 y4"),
])
def test_path_validator_rejects_ids_outside_the_graph(line, names):
    g = generate(GenConfig(k=5, seed=0))
    report = validate_path_factor(g, PathFactor(g, (line,)))
    assert report.violations[0] == Violation(
        "not-a-path", tuple(names.split()),
        f"line 1 [{names}] is not a simple path in the graph")


def test_path_validator_graph_shape():
    g = Bigraph(4, 4, [(i, j) for i in range(4) for j in range(3)])
    report = validate_path_factor(g, _k34_paths())
    assert "graph-shape" in _rules(report)
    assert "spanning" in _rules(report)  # x3 is on no path


def test_path_validator_lets_a_fault_in_the_shape_check_through(
        monkeypatch):
    # only NotBiregularError is a graph-shape finding; any other error
    # there is a fault of this package, not of the graph
    def broken(g):
        raise RuntimeError("broken shape check")

    g = fixture("k34")
    factor = solve(g)
    monkeypatch.setattr("pathfactor.verify.check_biregular", broken)
    with pytest.raises(RuntimeError, match="broken shape check"):
        validate_path_factor(g, factor)


def test_oracle_k34_witness_is_stable():
    factor = brute_force_factor(fixture("k34"))
    assert format_factor(factor) == "y2 x1 y0 x0 y1 x2 y3\n"
    assert validate_path_factor(fixture("k34"), factor).valid


def _sha256(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _witness_text(g):
    factor = brute_force_factor(g)
    return "NONE\n" if factor is None else format_factor(factor)


# Digests of the oracle's witnesses, recorded before the oracle moved from
# Vertex objects to vertex ids; the search order fixes every witness.
@pytest.mark.parametrize("family, digest", [
    ("k1",
     "f5f7e90d711d22ce952a5c48f1b40b84bf50200552fd94691ecba078cc6bc0e2"),
    ("k2",
     "569fb12c7df18efac63b718bb728031b15125d5244eee710edf87e295dd00d0d"),
    ("stub",  # multigraphs; none of 300 such seeds lacks a factor
     "fe8b239da1e4945c6847d70f0b5f01121b6b91035bd365079ff2ac01bcd33b97"),
])
def test_oracle_witnesses_are_pinned(family, digest):
    graphs = [k2_stub_pairing(random.Random(s)) if family == "stub"
              else generate(GenConfig(int(family[1]), s)) for s in range(20)]
    assert _sha256(map(_witness_text, graphs)) == digest


def test_oracle_certifies_counterexample():
    assert brute_force_factor(fixture("counterexample")) is None


def _has_factor_by_choice(g):
    # independent of the oracle's pruning: try every choice of 2 of the 4
    # edges at each X, and keep one that covers Y and the validator takes
    at_x = [[e for e, x in enumerate(g._ex) if x == g.y_count + j]
            for j in range(g.x_count)]
    for pairs in product(*(combinations(a, 2) for a in at_x)):
        eids = [e for pair in pairs for e in pair]
        if (len({g._ey[e] for e in eids}) == g.y_count
                and validate_pseudo_factor(g, eids).valid):
            return True
    return False


def test_oracle_agrees_with_every_choice_on_every_k1_multigraph():
    # every (3,4)-biregular multigraph on 4 + 3 vertices: the count
    # matrices with row sums 3 (one row per Y) and column sums 4
    rows = [r for r in product(range(4), repeat=3) if sum(r) == 3]
    matrices = [m for m in product(rows, repeat=4)
                if all(sum(c) == 4 for c in zip(*m))]
    assert len(matrices) == 415
    without = 0
    for m in matrices:
        g = Bigraph(4, 3, [(y, x) for y, row in enumerate(m)
                           for x, c in enumerate(row) for _ in range(c)])
        witness = brute_force_factor(g)
        assert (witness is not None) == _has_factor_by_choice(g), m
        if witness is None:
            without += 1
        else:
            assert validate_path_factor(g, witness).valid, m
    assert without == 24


def test_oracle_agrees_with_solver_on_k2():
    for seed in range(10):
        g = generate(GenConfig(k=2, seed=seed))
        witness = brute_force_factor(g)
        assert witness is not None
        assert validate_path_factor(g, witness).valid
        assert validate_path_factor(g, solve(g)).valid


def _random_path_forest(seed):
    # 12 random edges of a k = 2 instance, each kept if F stays a path
    # forest: unlike a scan's F, it has short and odd paths
    rng = random.Random(seed)
    factor = PseudoPathFactor(generate(GenConfig(2, seed)))
    for eid in rng.sample(range(24), 12):
        try:
            factor.add_edge(eid)
        except ValueError:
            pass
    return factor


# Digests of every oracle trail list out of the Y vertices that F leaves
# uncovered, recorded with the witnesses above.  A k = 1 scan covers every
# Y vertex, and a k = 2 scan that does not leaves one 12-path, so the
# random path forests are what reach the crossing of short paths.
@pytest.mark.parametrize("family, digest", [
    ("lex",  # 57 trails from 12 origins
     "0d36aa05efa5c5fa00a9d5e4241f2fa8b9d064ff46c5650e0086aedc9063a76e"),
    ("random:3",  # 72 trails from 15 origins
     "f0248cf27e5eb3fcce2e51fb60ea846d7b56a70e60e197a7e3682df902c2b301"),
    ("forest",  # 140 trails from 26 origins
     "d38ca717d409a9ea9dda6e43ad0f7c95e68d56773a8ba8495477c57a23738d85"),
])
def test_oracle_trails_are_pinned(family, digest):
    texts = []
    for seed in range(20):
        factor = (_random_path_forest(seed) if family == "forest" else
                  build_pseudo_factor(generate(GenConfig(2, seed)),
                                      make_policy(family)))
        names = factor.graph.name
        for y in factor.uncovered_ys():
            texts.append(f"y{y}:")
            texts.extend(" ".join(map(names, t._vertex_ids()))
                         + "\n" for t in brute_force_trails(factor, y))
    assert _sha256(texts) == digest


def test_oracles_build_no_vertex(monkeypatch):
    # the oracles run on vertex ids and name none of them
    g = generate(GenConfig(k=2, seed=0))
    factor = build_pseudo_factor(g)
    origins = factor.uncovered_ys()
    named = []
    original = Bigraph.name

    def counted(self, vid):
        named.append(vid)
        return original(self, vid)

    monkeypatch.setattr(Bigraph, "name", counted)
    assert brute_force_factor(g) is not None
    assert all(brute_force_trails(factor, y) for y in origins)
    assert named == []
    assert g.name(8) == "x0" and named == [8]  # the count is live


def test_oracle_size_cap():
    with pytest.raises(OracleSizeError):
        brute_force_factor(generate(GenConfig(k=3, seed=0)))


def test_trail_oracle_size_cap(k3_pseudo):
    g, factor = k3_pseudo
    with pytest.raises(OracleSizeError):
        brute_force_trails(factor, 0)


def test_trail_oracle_rejects_covered_origin(k2_pseudo):
    g, factor = k2_pseudo
    with pytest.raises(ValueError, match="^trail origin y3 must be an "
                                         "uncovered Y vertex$"):
        brute_force_trails(factor, 3)


def test_reports_render_fail_lines():
    g = fixture("k34")
    report = validate_path_factor(g, [])
    text = report.render()
    assert text.startswith("FAIL ")
    assert "FAIL spanning" in text
    assert "FAIL path-count" in text


def _walked_audit(factor, ids):
    # audit_ids from walk_component: a fresh walk of F's edges from every
    # vertex not yet seen, then the records at both ends of each path,
    # the lower end first; the reference the audit's own walk must agree
    # with, fault text included
    g, member, end, length = (factor.graph, factor._member, factor._end,
                              factor._len)
    inc, seen = g._inc, set()
    for v in ids:
        if v in seen:
            continue
        comp, edges = walk_component(g, member, v)
        seen.update(comp)
        branch = [u for u in comp
                  if sum(map(member.__getitem__, inc[u])) >= 3]
        if branch:
            return f"F has a branch-vertex at {g.name(min(branch))}"
        if edges >= len(comp):
            return f"F has a cycle at {_names(g, sorted(comp))}"
        if comp[-1] < comp[0]:
            comp.reverse()
        for path in (comp, comp[::-1]):
            u, w = path[0], path[-1]
            if end[u] != w or length[u] != edges:
                return (f"{g.name(u)} records the far end {g.name(end[u])} "
                        f"at length {length[u]}, but F has "
                        f"[{_names(g, path)}]")
    return None


_CORRUPTIONS = ("flip", "end", "length", "swap", "none")


def _corrupt(factor, kind, rng):
    # one fault in F's membership bytes or in the ends and lengths it
    # records, at a random vertex; a record at an interior vertex is
    # stale by design, so a change there leaves a valid state, which the
    # audit must then pass
    g, end, length = factor.graph, factor._end, factor._len
    u = rng.randrange(len(end))
    if kind == "flip":  # an F edge in or out behind the ends
        flip_behind_ends(factor, rng.randrange(g.edge_count))
    elif kind == "end":  # by any id; ids from len(end) on are no vertex
        end[u] = rng.randrange(len(end) + 2)
    elif kind == "length":
        length[u] = max(0, length[u] + rng.choice((-1, 1)))
    elif kind == "swap":  # two vertices trade their records
        w = rng.randrange(len(end))
        end[u], end[w], length[u], length[w] = (end[w], end[u], length[w],
                                                length[u])


def _audit_state(k, seed, source, steps, corruptions):
    # a partial scan (then some rewires, once the scan is done) of a
    # k-instance, or a random path forest on it or on a k = 2 stub-pairing
    # multigraph, with the given corruptions applied
    rng = random.Random(seed)
    if source in ("lex", "random"):
        g = generate(GenConfig(k, seed))
        policy = make_policy("lex" if source == "lex" else f"random:{seed}")
        state = FactorState.initial(g)
        step_zero(state, policy)
        while state.current is not None and state.step_no < steps:
            step_i(state, policy)
        factor = state.factor
        if state.current is None:
            for y0 in factor.uncovered_ys()[:steps - state.step_no]:
                rewire(factor, find_trail(factor, y0, policy))
    else:
        g = (k2_stub_pairing(rng) if source == "multigraph"
             else generate(GenConfig(k, seed)))
        factor = PseudoPathFactor(g)
        for eid in rng.sample(range(g.edge_count),
                              min(steps, g.edge_count)):
            try:
                factor.add_edge(eid)
            except ValueError:
                pass
    for kind in corruptions:
        _corrupt(factor, kind, rng)
    return factor, rng


@settings(max_examples=250, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["lex", "random", "forest", "multigraph"]),
       steps=st.integers(0, 40),
       corruptions=st.lists(st.sampled_from(_CORRUPTIONS), max_size=3))
def test_audit_agrees_with_a_walk_of_every_component(k, seed, source, steps,
                                                     corruptions):
    # the audit's own walk and comparison of records must find the same
    # first fault, with the same text, as a walk_component of each path
    factor, rng = _audit_state(k, seed, source, steps, corruptions)
    n = len(factor.deg)
    some = rng.sample(range(n), rng.randrange(n + 1))
    for ids in (range(n), range(n - 1, -1, -1), some):
        assert audit_ids(factor, ids) == _walked_audit(factor, ids)


@pytest.mark.parametrize("spec", ["lex", "random:3"])
def test_checked_solve_walks_f_only_in_the_pseudo_validator(monkeypatch,
                                                             spec):
    # On a healthy run each audit walks its paths inline, and calls
    # walk_component only to name a fault, so walk_component runs only in
    # validate_pseudo_factor, after the scan and after augmentation: 310
    # walks under lex and 324 under random:3 on this instance.  Calling
    # it for every audited component made 3,804 and 3,845.
    walks = Counter()
    walk = verify.walk_component

    def counted(g, member, v):
        frame = sys._getframe(1)
        while frame and frame.f_code not in (audit_ids.__code__,
                                             validate_pseudo_factor.__code__):
            frame = frame.f_back
        walks[frame.f_code.co_name if frame else "elsewhere"] += 1
        return walk(g, member, v)

    monkeypatch.setattr(verify, "walk_component", counted)
    g = generate(GenConfig(200, 0))
    solve(g, make_policy(spec), checked=True)
    assert set(walks) == {"validate_pseudo_factor"}, walks
