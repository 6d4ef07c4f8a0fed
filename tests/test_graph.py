from __future__ import annotations

import gc
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathfactor import (Bigraph, GenConfig, GraphFormatError,
                        NotBiregularError, PathFactor, PseudoPathFactor,
                        check_biregular, fixture, format_factor, generate,
                        parse_factor, parse_graph, serialize_graph)
from pathfactor import graph as graph_module
from pathfactor.verify import audit_ids, walk_component
from conftest import (edge_id, edge_pairs, flip_behind_ends,
                      k2_stub_pairing, k2_stub_pairs, walk_pairs, ypath)

K34_TEXT = """\
p bbg 4 3 12
e y0 x0
e y0 x1
e y0 x2
e y1 x0
e y1 x1
e y1 x2
e y2 x0
e y2 x1
e y2 x2
e y3 x0
e y3 x1
e y3 x2
"""


def test_vertex_order_and_parse():
    g = fixture("k34")  # every y sorts before every x: y_i -> i, x_j -> 4 + j
    assert list(map(g.name, range(7))) == ["y0", "y1", "y2", "y3",
                                           "x0", "x1", "x2"]
    assert g.name(7) == "x3" and g.name(-1) == "y-1"  # ids outside g
    assert parse_factor("x12 y007 x0\n") == [("x12", "y7", "x0")]
    for bad in ("z3", "y", "x-1", "y1.5", "y\u00b2", "x\u0661", "Y3", "yx1"):
        with pytest.raises(GraphFormatError, match=re.escape(
                f"line 1: malformed vertex token {bad!r}")):
            parse_factor(bad)


def test_parse_k34():
    g = parse_graph(K34_TEXT)
    assert g == fixture("k34")
    assert g.simple
    assert g.edge_count == 12
    assert len(g._inc[0]) == 3  # y0
    assert len(g._inc[g.y_count + 2]) == 4  # x2
    assert [(g._ey[eid], g._ex[eid]) for eid in g._inc[1]] == [
        (1, 4), (1, 5), (1, 6)]  # x_j has vertex id 4 + j


def _parsed_shuffled(g, seed):
    # g's text with its edge lines shuffled, parsed, and the pairs read
    # back from those lines
    head, *lines = serialize_graph(g).splitlines()
    random.Random(seed).shuffle(lines)
    pairs = [(int(y[1:]), int(x[1:])) for _, y, x in map(str.split, lines)]
    return parse_graph("\n".join([head, *lines])), pairs


def _built(y_count, x_count, pairs):
    return Bigraph(y_count, x_count, iter(pairs)), pairs


@pytest.mark.parametrize("make", [
    lambda: (fixture("k34"), [(i, j) for i in range(4) for j in range(3)]),
    lambda: (fixture("counterexample"), [(0, 0), (0, 1), (0, 2)]
             + [(j + 1, j) for j in range(3) for _ in range(3)]),
    lambda: _parsed_shuffled(generate(GenConfig(k=50, seed=0)), 0),
    lambda: _built(8, 6, k2_stub_pairs(random.Random(3))),
    lambda: _built(8, 6, k2_stub_pairs(random.Random(8))),
    lambda: _built(5, 4, [(3, 2), (0, 0), (3, 0)]),  # y1 y2 y4 x1 x3 lone
    lambda: _built(2, 3, []),
])
def test_flat_edge_ends_match_edges(make):
    # _ey / _ex are the canonically sorted input pairs, held once as
    # vertex ids
    g, pairs = make()
    want = sorted(pairs)
    assert g._ey == [y for y, _ in want]
    assert g._ex == [g.y_count + x for _, x in want]


def test_a_parsed_graph_holds_each_edge_end_once():
    # each end is one pool int in _ey / _ex: about 106 B per edge with
    # _inc at k = 1000, where a graph that also kept its (y, x) tuples
    # held 222 B
    text = serialize_graph(generate(GenConfig(k=1000, seed=0)))
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_graph(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / g.edge_count < 150


def test_serialize_round_trip_bytes():
    g = fixture("k34")
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_multigraph_round_trip():
    cx = fixture("counterexample")
    assert not cx.simple
    text = serialize_graph(cx)
    assert text.count("e y1 x0") == 3  # multiplicity as repeated lines
    assert parse_graph(text) == cx
    assert hash(parse_graph(text)) == hash(cx)
    assert serialize_graph(parse_graph(text)) == text


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_generated_round_trip(k, seed):
    g = generate(GenConfig(k=k, seed=seed))
    twin = parse_graph(serialize_graph(g))
    assert twin == g and hash(twin) == hash(g)


def test_parse_comments_and_blanks():
    text = "c a comment\n\np bbg 1 1 1\nc\ne y0 x0\n"
    g = parse_graph(text)
    assert edge_pairs(g) == [(0, 0)]


_LONG = "1" * 5000  # past int()'s default limit of 4,300 digits
_INT_LIMIT = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                reason="this Python's int() has no limit")


@pytest.mark.parametrize("text,match", [
    ("e y0 x0\n", "before 'p bbg' header"),
    ("p bbg 4 3 12\np bbg 4 3 12\n", "duplicate header"),
    ("p wrong 4 3 1\ne y0 x0\n", "malformed header"),
    ("p bbg 0 3 0\n", "out of range"),
    ("p bbg 4 3 1\ne x0 y0\n", "a y then an x"),
    ("p bbg 4 3 1\ne y0 x5\n", "out of range"),
    ("p bbg 4 3 1\ne y0\n", "malformed edge"),
    ("p bbg 1 1 1\ne y0 z0\n", "^line 2: malformed vertex token 'z0'$"),
    ("p bbg 1 1 1\n\ne x-1 x0\n", "^line 3: malformed vertex token 'x-1'$"),
    ("p bbg 4 3 2\ne y0 x0\n", "edge count mismatch"),
    ("hello\n", "unrecognized line"),
    ("c only a comment\n", "missing 'p bbg' header"),
    # more digits than int() reads, in the edge line regex, the token
    # reader and the header
    *[pytest.param(text, f"^line {n}: number too long$", marks=_INT_LIMIT,
                   id=f"long-{where}")
      for where, text, n in [
          ("edge-line", f"p bbg 4 3 1\ne y{_LONG} x0\n", 2),
          ("vertex-token", f"p bbg 4 3 1\ne\xa0y0\xa0x{_LONG}\n", 2),
          ("header", f"c\np bbg 4 {_LONG} 1\n", 2)]],
])
def test_parse_errors(text, match):
    with pytest.raises(GraphFormatError, match=match):
        parse_graph(text)


def test_parse_error_reports_line_number():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("p bbg 4 3 2\ne y0 x0\ne y9 x0\n")


def test_check_biregular():
    assert check_biregular(fixture("k34")) == 1
    assert check_biregular(fixture("counterexample")) == 1  # degrees only
    assert check_biregular(generate(GenConfig(k=3, seed=0))) == 3
    with pytest.raises(NotBiregularError, match="multiple of 4"):
        check_biregular(Bigraph(5, 3, [(0, 0)]))
    with pytest.raises(NotBiregularError, match=r"\|X\| = 4"):
        check_biregular(Bigraph(4, 4, [(0, 0)]))
    short = [(y, x) for y in range(4) for x in range(3)
             if (y, x) != (3, 2)]
    with pytest.raises(NotBiregularError, match=r"deg\(y3\) = 2"):
        check_biregular(Bigraph(4, 3, short))


@pytest.mark.parametrize("bad", [1.0, True, "1", np.int64(1)])
def test_bigraph_rejects_a_non_int_endpoint(bad):
    # an int-valued stand-in would index and compare like an int, so it
    # must fail at construction instead of passing unnoticed
    with pytest.raises(TypeError):
        Bigraph(4, 3, [(0, 0), (bad, 1)])
    with pytest.raises(TypeError):
        Bigraph(4, 3, [(0, 0), (1, bad)])


@pytest.mark.parametrize("args, error, message", [
    ((0, 3, []), ValueError, "vertex counts must be positive"),
    ((4, -1, []), ValueError, "vertex counts must be positive"),
    ((4, 3, [(0, 0), (4, 1)]), ValueError, "edge (y4, x1) out of range"),
    ((4, 3, [(2, 0), (0, 3)]), ValueError, "edge (y0, x3) out of range"),
    ((4, 3, [(-1, 0)]), ValueError, "edge (y-1, x0) out of range"),
    ((4, 3, [(0, 0), (True, 1)]), TypeError,
     "edge (True, 1) has a non-int end"),
    ((4, 3, [(1, 2.0)]), TypeError, "edge (1, 2.0) has a non-int end"),
])
def test_bigraph_guards_its_own_arguments(args, error, message):
    # called directly: parse_graph's own checks would refuse these first
    with pytest.raises(error) as info:
        Bigraph(*args)
    assert str(info.value) == message


@st.composite
def _counts_and_pairs(draw):
    # counts past 256, where CPython interns no int, with few edges: the
    # top vertex id is then often below |Y| + |X|
    y_count, x_count = draw(st.integers(1, 400)), draw(st.integers(1, 400))
    pair = st.tuples(st.integers(0, y_count - 1),
                     st.integers(0, x_count - 1))
    pairs = draw(st.lists(pair, max_size=30))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=5)
                   if pairs else st.just([]))
    return y_count, x_count, draw(st.permutations(pairs + repeats))


def _one_int_per_value(g):
    objects = {}
    for v in [*g._ey, *g._ex, *(eid for eids in g._inc for eid in eids)]:
        if objects.setdefault(v, id(v)) != id(v):
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(case=_counts_and_pairs())
@example(case=(4, 3, []))
@example(case=(300, 300, [(299, 299), (0, 0), (299, 299)]))
@example(case=(300, 300, [(0, 1), (0, 0)]))
def test_the_code_build_matches_the_constructor(case):
    # parse_graph and generate hand their codes y * |X| + x straight to
    # the build behind Bigraph(...), which checks and encodes pairs first
    y_count, x_count, pairs = case
    g = Bigraph(y_count, x_count, pairs)
    codes = [y * x_count + x for y, x in pairs]
    h = graph_module._build(Bigraph.__new__(Bigraph), y_count, x_count,
                            codes)
    assert (h.y_count, h.x_count) == (y_count, x_count)
    assert (h._ey, h._ex, h._inc, h.simple) == (g._ey, g._ex, g._inc,
                                                g.simple)
    assert h.simple == (len(set(pairs)) == len(pairs))
    assert _one_int_per_value(g) and _one_int_per_value(h)


def test_edge_subgraph_bookkeeping():
    # F's edge set, degrees and edge count move with add_edge and
    # remove_edge; an edge already in F is refused as such
    g = fixture("k34")
    factor = PseudoPathFactor(g)
    assert (factor.edge_count, factor.edge_ids()) == (0, [])
    eid = edge_id(g, 1, 2)
    factor.add_edge(eid)
    assert (factor.edge_count, factor.edge_ids()) == (1, [eid])
    assert factor.deg == [0, 1, 0, 0] + [0, 0, 1]
    with pytest.raises(ValueError, match="is already in F"):
        factor.add_edge(eid)
    assert factor.deg == [0, 1, 0, 0] + [0, 0, 1]
    factor.remove_edge(eid)
    assert (factor.edge_count, factor.edge_ids()) == (0, [])
    assert factor.deg == [0] * 4 + [0] * 3
    with pytest.raises(ValueError, match="not in F"):
        factor.remove_edge(eid)


def _edge_set_state(factor):
    return (bytes(factor._member), list(factor.deg), factor.ids,
            dict(factor._len_counts))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans(), data=st.data())
def test_subgraph_degree_sums_agree(seed, multi, data):
    # any sequence of add_edge and remove_edge calls: a refused call
    # changes nothing, and the degrees always recount from F's edge set
    g = (k2_stub_pairing(random.Random(seed)) if multi
         else generate(GenConfig(k=2, seed=seed)))
    factor = PseudoPathFactor(g)
    calls = st.tuples(st.integers(0, g.edge_count - 1), st.booleans())
    for eid, toggle in data.draw(st.lists(calls, max_size=60)):
        # toggle: add a non-member or remove a member; else the reverse,
        # which add_edge and remove_edge must refuse
        add = bool(factor._member[eid]) != toggle
        before = _edge_set_state(factor)
        try:
            (factor.add_edge if add else factor.remove_edge)(eid)
        except ValueError:
            assert _edge_set_state(factor) == before
        deg = [0] * (g.y_count + g.x_count)
        for y, x in ((g._ey[e], g._ex[e]) for e in factor.edge_ids()):
            deg[y] += 1
            deg[x] += 1
        assert factor.deg == deg
        assert (sum(deg[:g.y_count]) == sum(deg[g.y_count:])
                == factor.edge_count == len(factor.edge_ids()))
        assert audit_ids(factor, range(g.y_count + g.x_count)) is None


def _member(g, eids):
    return [eid in eids for eid in range(g.edge_count)]


def test_components_single_edges_and_empty(subgraph_of):
    g = fixture("k34")
    assert walk_component(g, bytearray(g.edge_count), 0) == ([0], 0)
    member = _member(g, subgraph_of(g, [(2, 1)]))
    ends = ypath(g, 2, 1)
    for v in ends:
        comp, edges = walk_component(g, member, v)
        assert edges == 1
        assert sorted(comp) == list(ends)


def test_components_detect_cycle(subgraph_of):
    g = fixture("k34")  # y_i has vertex id i, x_j has 4 + j
    cycle = [(0, 0), (0, 1), (1, 0), (1, 1)]
    member = _member(g, subgraph_of(g, cycle))
    comp, edges = walk_component(g, member, 5)
    assert sorted(comp) == [0, 1, 4, 5]
    assert edges == 4
    factor = PseudoPathFactor(g)
    for y, x in cycle[:3]:
        factor.add_edge(edge_id(g, y, x))
    flip_behind_ends(factor, edge_id(g, *cycle[3]))
    assert audit_ids(factor, [3, 4]) == "F has a cycle at y0 y1 x0 x1"


def test_components_detect_branch(subgraph_of):
    g = fixture("k34")  # y_i has vertex id i, x_j has 4 + j
    star = [(0, j) for j in range(3)]
    member = _member(g, subgraph_of(g, star))
    comp, edges = walk_component(g, member, 6)
    assert sorted(comp) == [0, 4, 5, 6]
    assert edges == 3
    factor = PseudoPathFactor(g)
    for y, x in star[:2]:
        factor.add_edge(edge_id(g, y, x))
    flip_behind_ends(factor, edge_id(g, *star[2]))
    assert audit_ids(factor, [5]) == "F has a branch-vertex at y0"


def test_audit_names_a_branch_from_the_edges_it_walks():
    # F of the forced case-3b state, x1 y0 x0 and y2 x2, with y0x2 put in
    # the edge set alone: the degree counters still give y0 two edges
    g = fixture("k34")
    factor = PseudoPathFactor(g)
    for y, x in [(0, 0), (0, 1), (2, 2)]:
        factor.add_edge(edge_id(g, y, x))
    factor._member[edge_id(g, 0, 2)] = 1
    assert factor.deg[0] == 2
    assert audit_ids(factor, [0]) == "F has a branch-vertex at y0"


def test_components_orientation_and_sort(subgraph_of):
    # a path comes out in order from one end, whichever vertex the walk
    # starts from
    g = fixture("k34")
    walk = (3, 1, 1, 2, 0)  # y3 x1 y1 x2 y0
    member = _member(g, subgraph_of(g, walk_pairs(walk)))
    path = ypath(g, *walk)
    for v in path:
        comp, edges = walk_component(g, member, v)
        assert tuple(comp) in (path, path[::-1])
        assert edges == 4


def _member_incident(g, member, v):
    return [eid for eid in g._inc[v] if member[eid]]


def _other_end(g, eid, v):
    return g._ex[eid] if v < g.y_count else g._ey[eid]


def _flood(g, member, v):
    comp, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for eid in _member_incident(g, member, u):
            w = _other_end(g, eid, u)
            if w not in comp:
                comp.add(w)
                stack.append(w)
    return comp


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans(), data=st.data())
def test_walk_component_matches_a_flood_fill(seed, multi, data):
    # any edge subset, parallel edges included: branches, cycles,
    # lollipops and 2-cycles must all end the walk with the whole component
    g = fixture("counterexample") if multi else generate(GenConfig(2, seed))
    member = bytearray(g.edge_count)
    for eid in data.draw(st.sets(st.integers(0, g.edge_count - 1))):
        member[eid] = 1

    def degree(u):
        return len(_member_incident(g, member, u))

    for v in range(g.y_count + g.x_count):
        comp, edges = walk_component(g, member, v)
        assert len(comp) == len(set(comp))
        assert set(comp) == _flood(g, member, v)
        assert edges == sum(map(degree, comp)) // 2
        if edges == len(comp) - 1 and all(degree(u) <= 2 for u in comp):
            for a, b in zip(comp, comp[1:]):  # a path, in order
                assert any(_other_end(g, eid, a) == b
                           for eid in _member_incident(g, member, a))


def _reference_parse_graph(text):
    # parse_graph as it was before edge lines had a fast path: every line
    # is split into fields and each token checked on its own
    def token(tok, lineno):
        if tok[:1] not in ("y", "x") or not (tok[1:].isascii()
                                             and tok[1:].isdigit()):
            raise GraphFormatError(
                f"line {lineno}: malformed vertex token {tok!r}")
        return tok[0], int(tok[1:])

    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if (len(fields) != 5 or fields[1] != "bbg"
                    or not all(f.isascii() and f.isdigit()
                               for f in fields[2:])):
                raise GraphFormatError(
                    f"line {lineno}: malformed header {line!r}")
            header = tuple(map(int, fields[2:]))
            if header[0] < 1 or header[1] < 1:
                raise GraphFormatError(
                    f"line {lineno}: header counts out of range")
        elif fields[0] == "e":
            if header is None:
                raise GraphFormatError(
                    f"line {lineno}: edge before 'p bbg' header")
            if len(fields) != 3:
                raise GraphFormatError(
                    f"line {lineno}: malformed edge line {line!r}")
            (sa, a), (sb, b) = (token(f, lineno) for f in fields[1:])
            if (sa, sb) != ("y", "x"):
                raise GraphFormatError(
                    f"line {lineno}: edge must name a y then an x vertex")
            if not (a < header[0] and b < header[1]):
                raise GraphFormatError(
                    f"line {lineno}: endpoint out of range in {line!r}")
            edges.append((a, b))
        else:
            raise GraphFormatError(
                f"line {lineno}: unrecognized line {line!r}")
    if header is None:
        raise GraphFormatError("missing 'p bbg' header")
    if len(edges) != header[2]:
        raise GraphFormatError(
            f"edge count mismatch: header declares {header[2]}, "
            f"found {len(edges)}")
    return Bigraph(header[0], header[1], edges)


# blanks that str.split() and str.strip() take: some also end a line for
# str.splitlines() (\x0b, \x1c), some are not ASCII (\xa0, \u2003)
_BLANKS = ["\x0b", "\x1c", "\x1f", "\xa0", "\u2003", " \u2003"]
_TOKEN_MUTATIONS = ["non-ascii", "sign", "underscore", "empty",
                    "other side", "out of range"]
_LINE_MUTATIONS = ["blank", "short", "long", "before header",
                   "duplicate header", "comment", "count"]


def _mutated_token(draw, mutation, tok, count):
    side, digits = tok[0], tok[1:]
    if mutation == "non-ascii":
        return side + draw(st.sampled_from(["\u00b2", "\u0661", "\uff11"]))
    if mutation == "sign":
        return side + draw(st.sampled_from("+-")) + digits
    if mutation == "underscore":
        return tok + "_0"
    if mutation == "empty":
        return side
    if mutation == "other side":
        return "yx"[side == "y"] + digits
    return side + str(count)  # out of range


@st.composite
def _graph_texts(draw):
    """A valid graph text with varied blanks and leading zeros, then at
    most one mutation that may make it invalid."""
    counts = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, counts[0] - 1),
                                    st.integers(0, counts[1] - 1)),
                          min_size=1, max_size=6))
    zeros = st.sampled_from(["", "", "0", "00"])
    lines = [["p", "bbg", str(counts[0]), str(counts[1]), str(len(edges))]]
    lines += [["e", "y" + draw(zeros) + str(y), "x" + draw(zeros) + str(x)]
              for y, x in edges]
    mutation = draw(st.sampled_from([None] + _TOKEN_MUTATIONS
                                    + _LINE_MUTATIONS))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation in _TOKEN_MUTATIONS:
        at = draw(st.integers(1, len(lines) - 1))  # an edge line
        side = draw(st.sampled_from([1, 2]))
        lines[at][side] = _mutated_token(draw, mutation, lines[at][side],
                                         counts[side - 1])
    elif mutation == "short":
        lines[at].pop()
    elif mutation == "long":
        lines[at].append("x0")
    elif mutation == "before header":
        lines.insert(1, lines.pop(0))
    elif mutation == "duplicate header":
        lines.insert(at + 1, list(lines[0]))
    elif mutation == "count":
        lines[0][4] = str(len(edges) + 1)
    blank = st.sampled_from([" ", " ", "\t", "  ", " \t "])
    texts = [draw(blank).join(fields) for fields in lines]
    if mutation == "blank":
        texts[at] = draw(st.sampled_from(_BLANKS)).join(lines[at])
    elif mutation == "comment":
        texts.insert(at + draw(st.integers(0, 1)), draw(st.sampled_from(
            ["c", "c note", "c\tnote", "cnote", "", "\t"])))
    return "".join(draw(st.sampled_from(["", "", " ", "\t", "\xa0"])) + t
                   + draw(st.sampled_from(["", "", " ", "\t", "\u2003"]))
                   + "\n" for t in texts)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


@settings(max_examples=600, deadline=None)
@given(text=_graph_texts())
@example("p bbg 2 2 1\ne\ty01\t\tx1 \n")
@example("p bbg 2 2 1\ne y\u0661 x0\n")
@example("p bbg 2 2 1\ne y1 x\u00b2\n")
@example("p bbg 2 2 1\ne y+1 x0\n")
@example("p bbg 2 2 1\ne y1_0 x0\n")
@example("p bbg 2 2 1\ne\x1fy1\xa0x0\u2003\n")
@example("p bbg 2 2 1\ne y1\x0bx0\n")
@example("p bbg 2 2 1\ne y1\x1cx0\n")
@example("p bbg 2 2 1\ne y2 x0\n")
@example("e y0 x0\np bbg 2 2 1\n")
@example("p bbg 2 2 1\np bbg 2 2 1\ne y0 x0\n")
@example("c\tnote\np bbg 2 2 1\ne y0 x0\n")
@example("p bbg 2 2 1\nc y1 x0\ne y0 x0\n")
def test_parse_graph_matches_the_reference_parser(text):
    assert (_outcome(parse_graph, text)
            == _outcome(_reference_parse_graph, text))


def test_parse_graph_builds_no_vertex_for_a_well_formed_edge_line(
        monkeypatch):
    calls = []
    original = graph_module._read_vertex

    def counted(token, lineno):
        calls.append(token)
        return original(token, lineno)

    monkeypatch.setattr(graph_module, "_read_vertex", counted)
    text = serialize_graph(generate(GenConfig(k=1000, seed=0)))
    assert parse_graph(text).edge_count == 12000
    assert calls == []
    # an edge line out of range takes the field-by-field checks
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("p bbg 1 1 1\ne y0 x1\n")
    assert calls == ["y0", "x1"]


def test_factor_file_round_trip():
    g = fixture("k34")  # y_i has vertex id i, x_j has 4 + j
    text = format_factor(PathFactor(g, ((3, 4, 0), (1, 5, 2))))
    assert text == "y0 x0 y3\ny1 x1 y2\n"
    for source in (text, "c paths below\n\n" + text):
        paths = parse_factor(source)
        assert paths == [tuple(map(g.name, p)) for p in ((0, 4, 3),
                                                         (1, 5, 2))]
        assert "".join(" ".join(p) + "\n" for p in paths) == text


def test_format_factor_renders_a_path_factor_canonically():
    # ids in any orientation and order give the canonical text;
    # y_i -> i and x_j -> 4 + j on k34
    g = fixture("k34")
    factor = PathFactor(g, ((1, 5, 2), (3, 4, 0)))
    assert format_factor(factor) == "y0 x0 y3\ny1 x1 y2\n"
    assert format_factor(PathFactor(g, ())) == ""


def test_parse_factor_bad_token():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_factor("y0 x0 y1\ny0 q7\n")
    if hasattr(sys, "set_int_max_str_digits"):
        with pytest.raises(GraphFormatError,
                           match="^line 3: number too long$"):
            parse_factor(f"y0 x0 y1\n\ny{_LONG} x0 y1\n")


@_INT_LIMIT
def test_the_parsers_read_the_digit_limit_from_int():
    # the parsers leave the limit to int(), so moving it moves them
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(GraphFormatError,
                           match="^line 2: number too long$"):
            parse_graph(f"p bbg 4 3 1\ne y{'1' * 641} x0\n")
        sys.set_int_max_str_digits(0)  # no limit
        with pytest.raises(GraphFormatError,
                           match="^line 2: endpoint out of range"):
            parse_graph(f"p bbg 4 3 1\ne y{_LONG} x0\n")
    finally:
        sys.set_int_max_str_digits(limit)
