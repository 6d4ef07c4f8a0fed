"""Shared fixtures: hand-built instances with known structure.

The k=2 and k=3 pseudo factors below are constructed so that trail search
and rewiring have exactly one lexicographic outcome each, worked out by
hand; tests pin those outcomes as goldens.
"""

from __future__ import annotations

import pytest

from pathfactor import AugmentingTrail, Bigraph, PseudoPathFactor, Vertex


def edge_id(g, a, b):
    """The occurrence id of the edge joining Vertex a and Vertex b, in
    either order; ValueError unless exactly one occurrence joins them."""
    y, x = (a, b) if a.is_y else (b, a)
    ids = [eid for eid in g._inc[g.vertex_id(y)]
           if g.edges[eid][1] == x.index]
    if len(ids) != 1:
        raise ValueError(f"edge {y}{x} has multiplicity {len(ids)}")
    return ids[0]


def component_length(factor, v):
    """The edge count of Vertex v's component in F; 0 when v is
    isolated."""
    path = factor._path_of[factor.graph.vertex_id(v)]
    return 0 if path is None else len(path) - 1


def flip_behind_index(factor, eid):
    """Put edge eid into F's edge set, or take it out, with both its
    degree counts, but leave the path index as it is: a corruption for
    the checks to find."""
    y, x = factor.graph.edges[eid]
    step = -1 if factor._member[eid] else 1
    factor._member[eid] ^= 1
    factor.y_deg[y] += step
    factor.x_deg[x] += step


def k2_stub_pairing(rng):
    """A k=2 (3,4)-biregular multigraph: 3 stubs per Y vertex matched to
    4 per X vertex by rng.shuffle; parallel edges stay."""
    xs = [x for x in range(6) for _ in range(4)]
    rng.shuffle(xs)
    return Bigraph(8, 6, zip([y for y in range(8) for _ in range(3)], xs))


def trail_of(g, *walks):
    """The AugmentingTrail on the edges of the given vertex walks, one
    walk after another; each consecutive pair names a unique edge."""
    return AugmentingTrail(g, tuple(edge_id(g, a, b) for w in walks
                                    for a, b in zip(w, w[1:])))


def _ypath(*indices):
    # alternating y/x vertex tuple from indices, starting on the Y side
    out = []
    for t, i in enumerate(indices):
        out.append(Vertex.y(i) if t % 2 == 0 else Vertex.x(i))
    return tuple(out)


def _factor_from_paths(y_count, x_count, f_paths, extra_edges):
    edges = []
    for p in f_paths:
        for a, b in zip(p, p[1:]):
            y, x = (a, b) if a.is_y else (b, a)
            edges.append((y.index, x.index))
    f_pairs = list(edges)
    edges.extend(extra_edges)
    g = Bigraph(y_count, x_count, edges)
    factor = PseudoPathFactor(g)
    for y, x in f_pairs:
        factor.add_edge(edge_id(g, Vertex.y(y), Vertex.x(x)))
    return g, factor


@pytest.fixture
def subgraph_of():
    """The edge ids of g named by (Vertex, Vertex) pairs, each naming a
    unique edge occurrence."""
    def build(g, pairs):
        return [edge_id(g, a, b) for a, b in pairs]
    return build


@pytest.fixture
def k2_pseudo():
    """k=2: one 12-path covering y1..y7, y0 uncovered.

    Trail search from y0 has five possible outcomes; the lexicographic
    one is (y0, x0, y2).
    """
    long_path = _ypath(1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7)
    extra = [(0, 0), (4, 0), (0, 1), (5, 1), (0, 2), (6, 2),
             (1, 3), (7, 3), (1, 4), (7, 4), (2, 5), (3, 5)]
    return _factor_from_paths(8, 6, [long_path], extra)


@pytest.fixture
def k3_pseudo():
    """k=3: a 2-path (y1, x0, y2) and a 16-path, y0 uncovered.

    Every trail from y0 must cross the 2-path; the lexicographic trail is
    (y0, x0, y1, x1, y4).
    """
    two_path = _ypath(1, 0, 2)
    long_path = _ypath(3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 9, 7, 10, 8, 11)
    extra = [(0, 0), (3, 0), (0, 1), (1, 1), (0, 2), (2, 2),
             (1, 3), (2, 3), (3, 4), (11, 4), (4, 5), (11, 5),
             (5, 6), (10, 6), (6, 7), (8, 7), (7, 8), (9, 8)]
    return _factor_from_paths(12, 9, [two_path, long_path], extra)
