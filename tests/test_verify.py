from __future__ import annotations

import pytest

from pathfactor import (Bigraph, EdgeSubgraph, GenConfig, OracleSizeError,
                        Vertex, Violation, brute_force_factor,
                        brute_force_trails, build_pseudo_factor, fixture,
                        format_factor, generate, solve, validate_path_factor,
                        validate_pseudo_factor)
from conftest import edge_id


def _rules(report):
    return [v.rule for v in report.violations]


def _k34_f():
    g = fixture("k34")
    return g, build_pseudo_factor(g).subgraph


def test_pseudo_validator_accepts_builder_output():
    g, sub = _k34_f()
    report = validate_pseudo_factor(g, sub)
    assert report.valid
    assert report.render() == "OK\n"


def test_pseudo_validator_missing_edge():
    g, sub = _k34_f()
    sub.remove(edge_id(g, Vertex.y(0), Vertex.x(0)))
    rules = _rules(validate_pseudo_factor(g, sub))
    assert "x-degree" in rules and "odd-length" in rules


def test_pseudo_validator_extra_edge():
    g, sub = _k34_f()
    sub.add(edge_id(g, Vertex.y(2), Vertex.x(0)))
    rules = _rules(validate_pseudo_factor(g, sub))
    assert "max-degree" in rules and "cycle" in rules


def test_pseudo_validator_pure_cycle(subgraph_of):
    g = fixture("k34")
    sub = subgraph_of(g, [
        (Vertex.y(0), Vertex.x(0)), (Vertex.y(0), Vertex.x(1)),
        (Vertex.y(1), Vertex.x(0)), (Vertex.y(1), Vertex.x(1))])
    rules = _rules(validate_pseudo_factor(g, sub))
    assert "cycle" in rules and "x-degree" in rules


def test_pseudo_validator_foreign_subgraph():
    g = fixture("k34")
    other = generate(GenConfig(k=2, seed=0))
    report = validate_pseudo_factor(g, EdgeSubgraph(other))
    assert _rules(report) == ["subgraph"]


def test_path_validator_accepts_solver_output():
    g = fixture("k34")
    factor = solve(g)
    assert validate_path_factor(g, factor).valid
    # raw path lists are accepted too
    assert validate_path_factor(g, [tuple(p) for p in factor.paths]).valid


def test_path_validator_spanning_counts_only_real_vertices():
    # Vertex(2, j) passes the edge checks in place of x_j, so every path
    # is still a path and |V| distinct vertices are named, yet x_j is not
    g = generate(GenConfig(k=3, seed=0))
    paths = list(solve(g).paths)
    first = paths[0]
    j = first[1].index
    paths[0] = (first[0], Vertex(2, j)) + first[2:]
    report = validate_path_factor(g, paths)
    assert report.violations == (Violation(
        "spanning", (Vertex.x(j),), f"uncovered: x{j}"),)


def _k34_paths():
    return list(solve(fixture("k34")).paths)


@pytest.mark.parametrize("mutate,expected", [
    (lambda ps: [], {"spanning", "path-count"}),
    (lambda ps: ps + ps, {"disjoint", "path-count"}),
    (lambda ps: [ps[0][1:]], {"endpoint-degree", "odd-length", "spanning"}),
    (lambda ps: [ps[0][:2]], {"endpoint-degree", "odd-length", "spanning"}),
    (lambda ps: [(Vertex.y(0), Vertex.x(0), Vertex.y(0))],
     {"not-a-path", "spanning"}),
    (lambda ps: [(Vertex.y(0), Vertex.y(1))],
     {"not-a-path", "spanning"}),
    (lambda ps: [(Vertex.y(0), Vertex.x(9))],
     {"not-a-path", "spanning"}),
])
def test_path_validator_rule_ids(mutate, expected):
    g = fixture("k34")
    report = validate_path_factor(g, mutate(_k34_paths()))
    assert set(_rules(report)) == expected


def test_path_validator_graph_shape():
    g = Bigraph(4, 4, [(i, j) for i in range(4) for j in range(3)])
    report = validate_path_factor(g, _k34_paths())
    assert "graph-shape" in _rules(report)
    assert "spanning" in _rules(report)  # x3 is on no path


def test_oracle_k34_witness_is_stable():
    factor = brute_force_factor(fixture("k34"))
    assert format_factor(factor.paths) == "y2 x1 y0 x0 y1 x2 y3\n"
    assert validate_path_factor(fixture("k34"), factor).valid


def test_oracle_certifies_counterexample():
    assert brute_force_factor(fixture("counterexample")) is None


def test_oracle_agrees_with_solver_on_k2():
    for seed in range(10):
        g = generate(GenConfig(k=2, seed=seed))
        witness = brute_force_factor(g)
        assert witness is not None
        assert validate_path_factor(g, witness).valid
        assert validate_path_factor(g, solve(g)).valid


def test_oracle_size_cap():
    with pytest.raises(OracleSizeError):
        brute_force_factor(generate(GenConfig(k=3, seed=0)))


def test_trail_oracle_size_cap(k3_pseudo):
    g, factor = k3_pseudo
    with pytest.raises(OracleSizeError):
        brute_force_trails(factor, Vertex.y(0))


def test_trail_oracle_rejects_covered_origin(k2_pseudo):
    g, factor = k2_pseudo
    with pytest.raises(ValueError, match="uncovered"):
        brute_force_trails(factor, Vertex.y(3))


def test_reports_render_fail_lines():
    g = fixture("k34")
    report = validate_path_factor(g, [])
    text = report.render()
    assert text.startswith("FAIL ")
    assert "FAIL spanning" in text
    assert "FAIL path-count" in text
