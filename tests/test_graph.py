from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pathfactor import (Bigraph, EdgeSubgraph, GenConfig, GraphFormatError,
                        NotBiregularError, PseudoPathFactor, Vertex,
                        check_biregular, fixture, format_factor, generate,
                        orient_path, parse_factor, parse_graph,
                        serialize_graph)
from pathfactor.verify import audit_paths, walk_component

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
    assert Vertex.y(3) < Vertex.x(0)  # every y sorts before every x
    assert Vertex.x(1) < Vertex.x(2)
    assert str(Vertex.y(7)) == "y7"
    assert Vertex.parse("x12") == Vertex.x(12)
    for bad in ("z3", "y", "x-1", "y1.5", "", "y\u00b2", "x\u0661"):
        with pytest.raises(GraphFormatError):
            Vertex.parse(bad)


def test_parse_k34():
    g = parse_graph(K34_TEXT)
    assert g == fixture("k34")
    assert g.simple
    assert g.edge_count == 12
    assert g.degree(Vertex.y(0)) == 3
    assert g.degree(Vertex.x(2)) == 4
    assert g.neighbors(Vertex.y(1)) == (Vertex.x(0), Vertex.x(1), Vertex.x(2))


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
    assert serialize_graph(parse_graph(text)) == text


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_generated_round_trip(k, seed):
    g = generate(GenConfig(k=k, seed=seed))
    assert parse_graph(serialize_graph(g)) == g


def test_parse_comments_and_blanks():
    text = "c a comment\n\np bbg 1 1 1\nc\ne y0 x0\n"
    g = parse_graph(text)
    assert g.edges == ((0, 0),)


@pytest.mark.parametrize("text,match", [
    ("e y0 x0\n", "before 'p bbg' header"),
    ("p bbg 4 3 12\np bbg 4 3 12\n", "duplicate header"),
    ("p wrong 4 3 1\ne y0 x0\n", "malformed header"),
    ("p bbg 0 3 0\n", "out of range"),
    ("p bbg 4 3 1\ne x0 y0\n", "a y then an x"),
    ("p bbg 4 3 1\ne y0 x5\n", "out of range"),
    ("p bbg 4 3 1\ne y0\n", "malformed edge"),
    ("p bbg 4 3 2\ne y0 x0\n", "edge count mismatch"),
    ("hello\n", "unrecognized line"),
    ("c only a comment\n", "missing 'p bbg' header"),
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


def test_edge_subgraph_bookkeeping():
    g = fixture("k34")
    sub = EdgeSubgraph(g)
    assert sub.edge_count == 0
    eid = g.edge_id_between(Vertex.y(1), Vertex.x(2))
    sub.add(eid)
    assert sub.has(eid) and eid in sub
    assert sub.degree(Vertex.y(1)) == 1
    assert sub.degree(Vertex.x(2)) == 1
    with pytest.raises(ValueError, match="already a member"):
        sub.add(eid)
    sub.remove(eid)
    assert sub.edge_count == 0
    with pytest.raises(ValueError, match="not a member"):
        sub.remove(eid)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_subgraph_degree_sums_agree(seed, data):
    g = generate(GenConfig(k=2, seed=seed))
    members = data.draw(st.sets(st.integers(0, g.edge_count - 1)))
    sub = EdgeSubgraph(g)
    for eid in members:
        sub.add(eid)
    assert sum(sub.y_deg) == sum(sub.x_deg) == sub.edge_count == len(members)


def test_components_single_edges_and_empty():
    g = fixture("k34")
    assert walk_component(EdgeSubgraph(g), Vertex.y(0)) == ([Vertex.y(0)], 0)
    sub = EdgeSubgraph.from_pairs(g, [(Vertex.y(2), Vertex.x(1))])
    for v in (Vertex.y(2), Vertex.x(1)):
        comp, edges = walk_component(sub, v)
        assert edges == 1
        assert orient_path(comp) == (Vertex.y(2), Vertex.x(1))


def test_components_detect_cycle():
    g = fixture("k34")
    cycle = [(Vertex.y(0), Vertex.x(0)), (Vertex.y(0), Vertex.x(1)),
             (Vertex.y(1), Vertex.x(0)), (Vertex.y(1), Vertex.x(1))]
    sub = EdgeSubgraph.from_pairs(g, cycle)
    comp, edges = walk_component(sub, Vertex.x(1))
    assert sorted(comp) == [Vertex.y(0), Vertex.y(1), Vertex.x(0),
                            Vertex.x(1)]
    assert edges == 4
    factor = PseudoPathFactor(g)
    for a, b in cycle[:3]:
        factor.add_edge(g.edge_id_between(a, b))
    factor.subgraph.add(g.edge_id_between(*cycle[3]))
    assert (audit_paths(factor, [Vertex.y(3), Vertex.x(0)])
            == "F has a cycle at y0 y1 x0 x1")


def test_components_detect_branch():
    g = fixture("k34")
    star = [(Vertex.y(0), Vertex.x(j)) for j in range(3)]
    sub = EdgeSubgraph.from_pairs(g, star)
    comp, edges = walk_component(sub, Vertex.x(2))
    assert sorted(comp) == [Vertex.y(0)] + [Vertex.x(j) for j in range(3)]
    assert edges == 3
    factor = PseudoPathFactor(g)
    for a, b in star[:2]:
        factor.add_edge(g.edge_id_between(a, b))
    factor.subgraph.add(g.edge_id_between(*star[2]))
    assert (audit_paths(factor, [Vertex.x(1)])
            == "F has a branch-vertex at y0")


def test_components_orientation_and_sort():
    # a path comes out in order from one end, whichever vertex the walk
    # starts from
    g = fixture("k34")
    path = (Vertex.y(3), Vertex.x(1), Vertex.y(1), Vertex.x(2), Vertex.y(0))
    sub = EdgeSubgraph.from_pairs(g, zip(path, path[1:]))
    for v in path:
        comp, edges = walk_component(sub, v)
        assert tuple(comp) in (path, path[::-1])
        assert edges == 4


def _flood(sub, v):
    comp, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for eid in sub.member_incident(u):
            w = sub.parent.other_endpoint(eid, u)
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
    sub = EdgeSubgraph(g)
    for eid in data.draw(st.sets(st.integers(0, g.edge_count - 1))):
        sub.add(eid)
    for v in g.vertices():
        comp, edges = walk_component(sub, v)
        assert len(comp) == len(set(comp))
        assert set(comp) == _flood(sub, v)
        assert edges == sum(sub.degree(u) for u in comp) // 2
        if edges == len(comp) - 1 and all(sub.degree(u) <= 2 for u in comp):
            for a, b in zip(comp, comp[1:]):  # a path, in order
                assert any(g.other_endpoint(eid, a) == b
                           for eid in sub.member_incident(a))


def test_orient_path():
    p = (Vertex.y(3), Vertex.x(0), Vertex.y(1))
    assert orient_path(p) == (Vertex.y(1), Vertex.x(0), Vertex.y(3))
    assert orient_path(orient_path(p)) == orient_path(p)


def test_factor_file_round_trip():
    paths = [(Vertex.y(3), Vertex.x(0), Vertex.y(0)),
             (Vertex.y(1), Vertex.x(1), Vertex.y(2))]
    text = format_factor(paths)
    assert text == "y0 x0 y3\ny1 x1 y2\n"
    assert parse_factor(text) == [tuple(p) for p in parse_factor(text)]
    assert format_factor(parse_factor(text)) == text
    with_comments = "c paths below\n\n" + text
    assert format_factor(parse_factor(with_comments)) == text


def test_parse_factor_bad_token():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_factor("y0 x0 y1\ny0 q7\n")
