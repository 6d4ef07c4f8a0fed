"""Shared fixtures: hand-built instances with known structure.

The k=2 and k=3 pseudo factors below are constructed so that trail search
and rewiring have exactly one lexicographic outcome each, worked out by
hand; tests pin those outcomes as goldens.
"""

from __future__ import annotations

import pytest

from pathfactor import AugmentingTrail, Bigraph, PseudoPathFactor


def edge_id(g, y, x):
    """The occurrence id of the edge joining y<y> and x<x>; ValueError
    unless exactly one occurrence joins them."""
    ids = [eid for eid in g._inc[y] if g._ex[eid] == g.y_count + x]
    if len(ids) != 1:
        raise ValueError(f"edge y{y}x{x} has multiplicity {len(ids)}")
    return ids[0]


def edge_pairs(g):
    """The (y, x) index pairs of g's edges, by edge id."""
    return [(y, x - g.y_count) for y, x in zip(g._ey, g._ex)]


def walk_pairs(walk):
    """The (y, x) index pairs along the walk y<i0> x<i1> y<i2> ..., given
    as its indices."""
    return [(a, b) if t % 2 == 0 else (b, a)
            for t, (a, b) in enumerate(zip(walk, walk[1:]))]


def ypath(g, *indices):
    """The vertex ids of the walk y<i0> x<i1> y<i2> ... of g."""
    return tuple(i + t % 2 * g.y_count for t, i in enumerate(indices))


def component_length(factor, v):
    """The edge count of vertex id v's component in F; 0 when v is
    isolated."""
    return factor._length(v)


def flip_behind_ends(factor, eid):
    """Put edge eid into F's edge set, or take it out, with both its
    degree counts, but leave the path ends F records as they are: a
    corruption for the checks to find."""
    step = -1 if factor._member[eid] else 1
    factor._member[eid] ^= 1
    factor.deg[factor.graph._ey[eid]] += step
    factor.deg[factor.graph._ex[eid]] += step


def k2_stub_pairs(rng):
    """The (y, x) pairs of a k=2 (3,4)-biregular multigraph: 3 stubs per
    Y vertex matched to 4 per X vertex by rng.shuffle."""
    xs = [x for x in range(6) for _ in range(4)]
    rng.shuffle(xs)
    return list(zip([y for y in range(8) for _ in range(3)], xs))


def k2_stub_pairing(rng):
    """The k2_stub_pairs multigraph; parallel edges stay."""
    return Bigraph(8, 6, k2_stub_pairs(rng))


def trail_of(g, *walks):
    """The AugmentingTrail on the edges of the given walks (as in
    walk_pairs), one walk after another; each step names a unique edge."""
    return AugmentingTrail(g, tuple(edge_id(g, y, x) for w in walks
                                    for y, x in walk_pairs(w)))


def _factor_from_paths(y_count, x_count, f_paths, extra_edges):
    f_pairs = [pair for p in f_paths for pair in walk_pairs(p)]
    g = Bigraph(y_count, x_count, f_pairs + extra_edges)
    factor = PseudoPathFactor(g)
    for y, x in f_pairs:
        factor.add_edge(edge_id(g, y, x))
    return g, factor


@pytest.fixture
def subgraph_of():
    """The edge ids of g named by (y, x) index pairs, each naming a
    unique edge occurrence."""
    def build(g, pairs):
        return [edge_id(g, y, x) for y, x in pairs]
    return build


@pytest.fixture
def k2_pseudo():
    """k=2: one 12-path covering y1..y7, y0 uncovered.

    Trail search from y0 has five possible outcomes; the lexicographic
    one is (y0, x0, y2).
    """
    long_path = (1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7)
    extra = [(0, 0), (4, 0), (0, 1), (5, 1), (0, 2), (6, 2),
             (1, 3), (7, 3), (1, 4), (7, 4), (2, 5), (3, 5)]
    return _factor_from_paths(8, 6, [long_path], extra)


@pytest.fixture
def k3_pseudo():
    """k=3: a 2-path (y1, x0, y2) and a 16-path, y0 uncovered.

    Every trail from y0 must cross the 2-path; the lexicographic trail is
    (y0, x0, y1, x1, y4).
    """
    two_path = (1, 0, 2)
    long_path = (3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 9, 7, 10, 8, 11)
    extra = [(0, 0), (3, 0), (0, 1), (1, 1), (0, 2), (2, 2),
             (1, 3), (2, 3), (3, 4), (11, 4), (4, 5), (11, 5),
             (5, 6), (10, 6), (6, 7), (8, 7), (7, 8), (9, 8)]
    return _factor_from_paths(12, 9, [two_path, long_path], extra)
