"""Factor structures.

A pseudo path factor is a subgraph whose components are all even paths
(both endpoints in Y) and in which every X vertex has degree exactly 2.
Y vertices of positive degree are "covered"; covered vertices are path
interiors or endpoints, uncovered ones are isolated.  A path factor is
the spanning special case: every Y vertex covered, which forces exactly
k vertex-disjoint paths on a (3,4)-biregular instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .graph import Bigraph, _run, walk_component


class PseudoPathFactor:
    """A factor F of a graph that keeps the ends of its paths.

    F is kept as its edge set, a membership byte per edge occurrence (so
    parallel edges are independent members), with the F-degree of every
    vertex in deg; at each path end, the far end in _end and the path's
    edge count in _len, both lists by integer vertex id (y_i -> i, x_j ->
    |Y| + j), where an isolated vertex is its own end at length 0 and an
    interior vertex's entries are stale; and a histogram of path lengths
    with no zero counts, so its largest key is the longest path.  F
    changes only through add_edge and remove_edge: the scan grows it edge
    by edge, and rewiring removes a trail's factor edges and adds its
    non-factor ones.  The maximum path length and the edge count are read
    off the histogram.
    """

    def __init__(self, graph: Bigraph):
        self.graph = graph
        self._member = bytearray(graph.edge_count)
        self.deg = [0] * (graph.y_count + graph.x_count)  # by vertex id
        self._end = list(range(len(self.deg)))
        self._len = [0] * len(self.deg)
        self._len_counts: dict[int, int] = {}  # length -> path count

    # -- path end maintenance ---------------------------------------------

    def add_edge(self, eid: int) -> None:
        """Add an edge to F, joining the paths that end at its endpoints,
        in O(1).

        Raises ValueError, leaving F unchanged, if the id is not in
        range(|E|), the edge is already in F, or it would attach to a
        path interior or close a cycle, tested in that order.
        """
        if not 0 <= eid < len(self._member):
            raise ValueError(
                f"edge id {eid} is not in range({len(self._member)})")
        if self._member[eid]:
            raise ValueError(f"edge occurrence {eid} is already in F")
        g = self.graph
        y, x = g._ey[eid], g._ex[eid]
        deg, end, length, counts = (self.deg, self._end, self._len,
                                    self._len_counts)
        # no Bigraph.name here: the factor oracle prunes on these refusals
        if deg[y] > 1 or deg[x] > 1:
            raise ValueError(
                f"edge y{y}-x{x - g.y_count} attaches to a path interior")
        if end[y] == x:
            raise ValueError(f"edge y{y}-x{x - g.y_count} would close a cycle")
        a, b, n = end[y], end[x], length[y] + length[x] + 1
        for m in (length[y], length[x]):  # both paths go, their union comes
            if m:
                if counts[m] == 1:
                    del counts[m]
                else:
                    counts[m] -= 1
        counts[n] = counts.get(n, 0) + 1
        self._member[eid] = 1
        deg[y] += 1
        deg[x] += 1
        end[a], end[b], length[a], length[b] = b, a, n, n

    def remove_edge(self, eid: int) -> None:
        """Remove an edge from F, splitting its path in two, in time
        proportional to the piece on the edge's Y side, which graph._run
        walks; the far end and length recorded where it stops give the
        other piece.  Raises ValueError, leaving F unchanged, if the id is
        not in range(|E|), the edge is not in F, or the walk meets a cycle
        or a branch of F."""
        if not 0 <= eid < len(self._member):
            raise ValueError(
                f"edge id {eid} is not in range({len(self._member)})")
        member = self._member
        if not member[eid]:
            raise ValueError(f"edge occurrence {eid} is not in F")
        g = self.graph
        y, x = g._ey[eid], g._ex[eid]
        side, d = _run(g, member, x, eid)  # y, ..., u: s edges from y
        if d != 1:  # back at x, or at a branch
            raise ValueError(f"edge occurrence {eid} is on a cycle of F"
                             if d == 0 else f"edge occurrence {eid} meets "
                             f"a branch of F at {g.name(side[-1])}")
        u, s = side[-1], len(side) - 1
        # u ends F's path too, so it holds the path's far end and length
        end, length, counts = self._end, self._len, self._len_counts
        far, n = end[u], length[u]
        if counts[n] == 1:
            del counts[n]
        else:
            counts[n] -= 1
        for m in (s, n - 1 - s):
            if m:
                counts[m] = counts.get(m, 0) + 1
        member[eid] = 0
        self.deg[y] -= 1
        self.deg[x] -= 1
        end[u], end[y], length[u], length[y] = y, u, s, s
        end[far], end[x] = x, far
        length[far] = length[x] = n - 1 - s

    def _length(self, v: int, exact: bool = True) -> int:
        """The edge count of v's path, 0 if v is isolated, read in O(1) at
        v or at an F-neighbour of v that is a path end.  An interior
        vertex with neither lies on a path of >= 4 edges, for which 4
        stands unless exact, when walk_component counts them."""
        deg = self.deg
        if deg[v] <= 1:
            return self._len[v]
        g, member = self.graph, self._member
        for eid in g._inc[v]:
            if member[eid]:
                u = g._ex[eid] if v < g.y_count else g._ey[eid]
                if deg[u] <= 1:
                    return self._len[u]
        return walk_component(g, member, v)[1] if exact else 4

    # -- queries ------------------------------------------------------------

    @property
    def ids(self) -> tuple[tuple[int, ...], ...]:
        """All component paths as vertex ids, each walked once from its
        lower end by graph._run, and sorted (ids sort Y before X)."""
        g, member, end = self.graph, self._member, self._end
        inc, paths = g._inc, []
        for v, d in enumerate(self.deg):
            if d == 1 and v < end[v]:
                for eid in inc[v]:
                    if member[eid]:
                        break
                paths.append((v, *_run(g, member, v, eid)[0]))
        paths.sort()
        return tuple(paths)

    @property
    def max_path_length(self) -> int:
        return max(self._len_counts, default=0)

    @property
    def path_count(self) -> int:
        return sum(self._len_counts.values())

    @property
    def edge_count(self) -> int:
        return sum(map(mul, self._len_counts, self._len_counts.values()))

    def edge_ids(self) -> list[int]:
        """The occurrence ids of F's edges, ascending."""
        return [eid for eid, m in enumerate(self._member) if m]

    def uncovered_ys(self) -> list[int]:
        """The indices of the Y vertices F misses, ascending."""
        return [i for i in range(self.graph.y_count) if self.deg[i] == 0]

    def __repr__(self) -> str:
        covered = sum(map(bool, self.deg[:self.graph.y_count]))
        return (f"PseudoPathFactor({self.path_count} paths, "
                f"{covered}/{self.graph.y_count} Y covered, "
                f"max length {self.max_path_length})")


@dataclass(frozen=True)
class AugmentingTrail:
    """An alternating trail y0, x1, y1, ..., x_{i+1}, y_{i+1}, held as the
    occurrence ids of its edges in graph, in order from the origin y0.

    Edges at even positions (y_{j-1} to x_j) lie outside the factor, edges
    at odd positions (x_j to y_j) inside it.  X vertices may repeat along
    the trail; Y vertices may not.  Rewiring swaps the two edge sets,
    which absorbs the uncovered origin y0.  An id names one copy of a
    parallel edge, so a trail is exact on multigraphs too.
    """

    graph: Bigraph
    edges: tuple[int, ...]

    def __post_init__(self):
        edges, g, n = self.edges, self.graph, len(self.edges)
        if n < 2 or n % 2:
            raise ValueError(f"trail needs an even edge count >= 2, got {n}")
        if min(edges) < 0 or max(edges) >= g.edge_count:
            raise ValueError(f"trail edge ids {edges} are not all in "
                             f"range({g.edge_count})")
        ey, ex = g._ey, g._ex
        for t, (a, b) in enumerate(zip(edges, edges[1:])):
            end = ey if t % 2 else ex  # even t meet at x_j, odd at y_j
            if end[a] != end[b]:
                raise ValueError(
                    f"trail edge y{ey[b]}{g.name(ex[b])} does not meet the "
                    f"edge y{ey[a]}{g.name(ex[a])} before it")

    def _vertex_ids(self) -> list[int]:
        """The vertex ids of y0, x1, y1, ..., y_{i+1}, from the edges."""
        g = self.graph
        ids = [g._ey[self.edges[0]]]
        for t, eid in enumerate(self.edges):
            ids.append(g._ey[eid] if t % 2 else g._ex[eid])
        return ids

    def __repr__(self) -> str:
        names = map(self.graph.name, self._vertex_ids())
        return "AugmentingTrail(" + " ".join(names) + ")"


@dataclass(frozen=True)
class PathFactor:
    """Vertex-disjoint even paths spanning the graph, endpoints in Y, held
    as vertex id tuples (y_i -> i, x_j -> |Y| + j)."""

    graph: Bigraph
    ids: tuple[tuple[int, ...], ...]

    @classmethod
    def from_pseudo(cls, factor: PseudoPathFactor) -> "PathFactor":
        uncovered = factor.uncovered_ys()
        if uncovered:
            names = " ".join([f"y{i}" for i in uncovered])
            raise ValueError(f"not spanning: {names} uncovered")
        return cls(factor.graph, factor.ids)

    def lengths(self) -> tuple[int, ...]:
        """Path edge counts, ascending."""
        return tuple(sorted([len(p) - 1 for p in self.ids]))
