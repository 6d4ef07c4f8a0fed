"""Factor structures.

A pseudo path factor is a subgraph whose components are all even paths
(both endpoints in Y) and in which every X vertex has degree exactly 2.
Y vertices of positive degree are "covered"; covered vertices are path
interiors or endpoints, uncovered ones are isolated.  A path factor is
the spanning special case: every Y vertex covered, which forces exactly
k vertex-disjoint paths on a (3,4)-biregular instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul

from .graph import Bigraph


class PseudoPathFactor:
    """A factor F of a graph with an incrementally maintained path index.

    F is kept as its edge set, a membership byte per edge occurrence (so
    parallel edges are independent members), with the F-degree of every
    vertex in deg; a path index from each vertex to the deque of ids of
    the path it lies on (None while isolated), both lists by integer
    vertex id (y_i -> i, x_j -> |Y| + j); and a histogram of path lengths
    with no zero counts, so its largest key is the longest path.  F
    changes only through add_edge and remove_edge: the scan grows it edge
    by edge, and rewiring removes a trail's factor edges and adds its
    non-factor ones.  Per-vertex component lookup is O(1); the maximum
    path length and the edge count are read off the histogram.
    """

    def __init__(self, graph: Bigraph):
        self.graph = graph
        self._member = bytearray(graph.edge_count)
        self.deg = [0] * (graph.y_count + graph.x_count)  # by vertex id
        self._path_of: list[deque[int] | None] = [None] * len(self.deg)
        self._len_counts: dict[int, int] = {}  # length -> path count

    # -- path index maintenance -------------------------------------------

    def add_edge(self, eid: int) -> None:
        """Add an edge to F, joining the paths that end at its endpoints.

        Raises ValueError, leaving F unchanged, if the id is not in
        range(|E|), or if the edge would close a cycle or attach to a path
        interior; an edge already in F has both ends on one path, so it is
        refused as a cycle.  A lone end is attached to the other end's
        path in O(1); otherwise the shorter path is copied onto the
        longer, so growing F edge by edge costs O(n log n).
        """
        if not 0 <= eid < len(self._member):
            raise ValueError(
                f"edge id {eid} is not in range({len(self._member)})")
        g = self.graph
        y, x = g._ey[eid], g._ex[eid]
        index, counts = self._path_of, self._len_counts
        a, b = index[y], index[x]
        # no Bigraph.name here: the factor oracle prunes on these refusals
        if a is b and a is not None:
            raise ValueError(f"edge y{y}-x{x - g.y_count} would close a cycle")
        if (a is not None and a[0] != y != a[-1]
                or b is not None and b[0] != x != b[-1]):
            raise ValueError(
                f"edge y{y}-x{x - g.y_count} attaches to a path interior")
        self._member[eid] = 1
        self.deg[y] += 1
        self.deg[x] += 1
        if a is None or b is None:  # a lone end x joins y's path, if any
            if a is None and b is not None:
                a, y, x = b, x, y
            n = 0 if a is None else len(a) - 1
            if a is None:
                a = index[y] = deque((y,))
            elif counts[n] == 1:
                del counts[n]
            else:
                counts[n] -= 1
            if a[-1] == y:
                a.append(x)
            else:
                a.appendleft(x)
            index[x] = a
            counts[n + 1] = counts.get(n + 1, 0) + 1
            return
        if len(a) < len(b):
            a, b, y, x = b, a, x, y  # a: the longer path
        if b[0] != x:
            b.reverse()
        # one histogram update: both paths go, their union comes
        for n in (len(a) - 1, len(b) - 1):
            if counts[n] == 1:
                del counts[n]
            else:
                counts[n] -= 1
        if a[-1] == y:
            a.extend(b)
        else:
            a.extendleft(b)
        n = len(a) - 1
        counts[n] = counts.get(n, 0) + 1
        for v in b:
            index[v] = a

    def remove_edge(self, eid: int) -> None:
        """Remove an edge from F, splitting its path in two.

        Raises ValueError, leaving F unchanged, if the id is not in
        range(|E|) or the edge is not in F.  The edge is found by a scan
        of its path and the shorter piece, the left one on a tie, is moved
        to a new path; a piece of one vertex leaves the index.
        """
        if not 0 <= eid < len(self._member):
            raise ValueError(
                f"edge id {eid} is not in range({len(self._member)})")
        if not self._member[eid]:
            raise ValueError(f"edge occurrence {eid} is not in F")
        self._member[eid] = 0
        y, x = self.graph._ey[eid], self.graph._ex[eid]
        self.deg[y] -= 1
        self.deg[x] -= 1
        path, counts = self._path_of[y], self._len_counts
        n = len(path) - 1
        if counts[n] == 1:
            del counts[n]
        else:
            counts[n] -= 1
        s = path.index(y)
        if s < n and path[s + 1] == x:
            s += 1  # so the edge joins positions s - 1 and s
        if s <= n + 1 - s:
            piece = deque(path.popleft() for _ in range(s))
        else:
            piece = deque(path.pop() for _ in range(n + 1 - s))
        for v in piece:
            self._path_of[v] = piece
        for p in (piece, path):
            if len(p) > 1:
                counts[len(p) - 1] = counts.get(len(p) - 1, 0) + 1
            else:
                self._path_of[p[0]] = None

    # -- queries ------------------------------------------------------------

    @property
    def ids(self) -> tuple[tuple[int, ...], ...]:
        """All component paths as vertex ids, canonically oriented and
        sorted (ids sort all of Y before all of X)."""
        oriented = (p if p[0] < p[-1] else reversed(p)
                    for v, p in enumerate(self._path_of)
                    if p is not None and p[0] == v)
        return tuple(sorted([tuple(p) for p in oriented]))

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
