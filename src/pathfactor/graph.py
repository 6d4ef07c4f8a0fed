"""Core graph types and file I/O.

A bigraph here is a bipartite multigraph with parts Y and X; every edge
joins a Y vertex to an X vertex, so the representation is loop-free and
bipartite by construction.  In the (3,4)-biregular case each Y vertex has
degree 3 and each X vertex degree 4, which forces |Y| = 4k, |X| = 3k and
|E| = 12k for some positive integer k.

Vertices are positional: past the parser, the i-th Y vertex is the
integer id i and the j-th X vertex the id |Y| + j, so ids sort all of Y
before all of X; only in text are they ``y<i>`` and ``x<j>``.  An edge is
its place in canonical (y, x) order, so parallel edges are distinct; each
end is held once, by edge id.

The text format for graphs mirrors DIMACS: ``c`` comment lines, one
``p bbg <y_count> <x_count> <edge_count>`` header, then one
``e y<i> x<j>`` line per edge occurrence.  A repeated edge line encodes
multiplicity.  Factor files carry one path per line as space-separated
vertex names; ``c`` comments are allowed there as well.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from operator import eq, mod
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import GraphFormatError, NotBiregularError

if TYPE_CHECKING:
    from .factors import PathFactor


def _is_count(token: str) -> bool:
    # int() alone would also take signs, underscores and non-ASCII digits
    return token.isascii() and token.isdigit()


# A well-formed edge line.  It accepts only lines the field-by-field checks
# accept, with the same (y, x); any other line takes those checks.
_EDGE_LINE = re.compile(r"[ \t]*e[ \t]+y([0-9]+)[ \t]+x([0-9]+)[ \t]*")


def _read_vertex(token: str, lineno: int) -> tuple[str, int]:
    """The side letter and index of a vertex token, such as ("y", 7) for
    y7 or y007."""
    if token[:1] not in ("y", "x") or not _is_count(token[1:]):
        raise GraphFormatError(
            f"line {lineno}: malformed vertex token {token!r}")
    return token[0], int(token[1:])


class Bigraph:
    """Immutable bipartite multigraph with parts Y and X.

    The flat lists _ey and _ex hold each edge's Y and X vertex id by edge
    id, its position in canonical (y, x) order, as ints of one pool that
    the edge ids share.  ``simple`` is true iff no (y, x) pair repeats.
    Instances never change and are safe to share.
    """

    __slots__ = ("y_count", "x_count", "simple", "_inc", "_ey", "_ex")

    def __init__(self, y_count: int, x_count: int,
                 edges: Iterable[tuple[int, int]]):
        if y_count < 1 or x_count < 1:
            raise ValueError("vertex counts must be positive")
        codes, bad = [], []
        for y, x in edges:
            if (type(y) is int and type(x) is int
                    and 0 <= y < y_count and 0 <= x < x_count):
                codes.append(y * x_count + x)
            else:
                bad.append((y, x))
        for y, x in sorted(bad)[:1]:  # the first bad one in canonical order
            if not (0 <= y < y_count and 0 <= x < x_count):
                raise ValueError(f"edge (y{y}, x{x}) out of range")
            raise TypeError(f"edge ({y!r}, {x!r}) has a non-int end")
        _build(self, y_count, x_count, codes)

    @property
    def edge_count(self) -> int:
        return len(self._ey)

    def name(self, vid: int) -> str:
        """The name of an integer vertex id, such as x0 for id |Y|."""
        ny = self.y_count
        return f"y{vid}" if vid < ny else f"x{vid - ny}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bigraph):
            return NotImplemented
        return (self.y_count, self.x_count, self._ey, self._ex) == \
               (other.y_count, other.x_count, other._ey, other._ex)

    def __hash__(self) -> int:
        # O(1); graphs that compare equal share all three counts
        return hash((self.y_count, self.x_count, self.edge_count))

    def __repr__(self) -> str:
        kind = "simple" if self.simple else "multi"
        return (f"Bigraph(|Y|={self.y_count}, |X|={self.x_count}, "
                f"|E|={self.edge_count}, {kind})")


def _build(g: Bigraph, y_count: int, x_count: int,
           codes: list[int]) -> Bigraph:
    """Fill g with the edges given as in-range codes y * |X| + x, which
    sort as (y, x) does, and return it; empties codes once read.  Bigraph
    checks its pairs first; parse_graph and generate pass their own codes
    with Bigraph.__new__(Bigraph)."""
    codes.sort()
    g.y_count, g.x_count = y_count, x_count
    g.simple = not any(map(eq, codes, islice(codes, 1, None)))
    # Edge ids and ends are ints of one pool, which keeps the solver's
    # reads in one small block; top, the largest end id, sizes it.
    top = y_count + max(map(mod, codes, repeat(x_count))) if codes else -1
    pool = list(range(max(len(codes), top + 1)))
    g._ey = [pool[c // x_count] for c in codes]
    g._ex = [pool[y_count + c % x_count] for c in codes]
    codes.clear()  # freed first, so the incidence lists reuse its memory
    inc: list[list[int]] = [[] for _ in range(y_count + x_count)]
    for eid, y, x in zip(pool, g._ey, g._ex):
        inc[y].append(eid)
        inc[x].append(eid)
    g._inc = inc  # by vertex id; tuples would double the build time
    return g


def check_biregular(g: Bigraph) -> int:
    """Return k for a (3,4)-biregular bigraph: |Y| = 4k, |X| = 3k, every Y
    degree 3 and every X degree 4.

    Raises NotBiregularError describing the first offense: a shape
    mismatch (part sizes not 4k and 3k for a common k), otherwise the
    first vertex in canonical order with a wrong degree.
    """
    if g.y_count % 4 != 0:
        raise NotBiregularError(
            f"|Y| = {g.y_count} is not a multiple of 4")
    k = g.y_count // 4
    if g.x_count != 3 * k:
        raise NotBiregularError(
            f"|X| = {g.x_count}, want 3k = {3 * k} to match |Y| = {g.y_count}")
    have, want = list(map(len, g._inc)), [3] * g.y_count + [4] * g.x_count
    if have != want:
        v = next(v for v, (h, w) in enumerate(zip(have, want)) if h != w)
        raise NotBiregularError(
            f"deg({g.name(v)}) = {have[v]}, want {want[v]}")
    return k


def parse_graph(text: str) -> Bigraph:
    """Parse the ``p bbg`` text format.

    A repeated edge line is a parallel edge, so multigraphs parse.
    Reports the first problem with its line number: a malformed line, an
    out-of-range endpoint, or an edge count that disagrees with the
    header.
    """
    edge_count: Optional[int] = None  # from the header
    codes: list[int] = []  # each edge as y * |X| + x: one int, no tuple
    y_count = x_count = 0  # no edge is in range before the header
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            hit = _EDGE_LINE.fullmatch(raw)
            if hit:
                y, x = int(hit[1]), int(hit[2])
                if y < y_count and x < x_count:
                    codes.append(y * x_count + x)
                    continue
            line = raw.strip()
            if not line or line == "c" or line.startswith("c "):
                continue
            fields = line.split()
            if fields[0] == "p":
                if edge_count is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate header")
                if (len(fields) != 5 or fields[1] != "bbg"
                        or not all(map(_is_count, fields[2:]))):
                    raise GraphFormatError(
                        f"line {lineno}: malformed header {line!r}")
                y_count, x_count, edge_count = map(int, fields[2:])
                if y_count < 1 or x_count < 1:
                    raise GraphFormatError(
                        f"line {lineno}: header counts out of range")
            elif fields[0] == "e":
                if edge_count is None:
                    raise GraphFormatError(
                        f"line {lineno}: edge before 'p bbg' header")
                if len(fields) != 3:
                    raise GraphFormatError(
                        f"line {lineno}: malformed edge line {line!r}")
                (a, y), (b, x) = (_read_vertex(t, lineno) for t in fields[1:])
                if a != "y" or b != "x":
                    raise GraphFormatError(
                        f"line {lineno}: edge must name a y then an x vertex")
                if not (y < y_count and x < x_count):
                    raise GraphFormatError(
                        f"line {lineno}: endpoint out of range in {line!r}")
                codes.append(y * x_count + x)
            else:
                raise GraphFormatError(
                    f"line {lineno}: unrecognized line {line!r}")
    except ValueError:  # int() refuses more digits than its set limit
        raise GraphFormatError(f"line {lineno}: number too long") from None
    if edge_count is None:
        raise GraphFormatError("missing 'p bbg' header")
    if len(codes) != edge_count:
        raise GraphFormatError(
            f"edge count mismatch: header declares {edge_count}, "
            f"found {len(codes)}")
    return _build(Bigraph.__new__(Bigraph), y_count, x_count, codes)


def serialize_graph(g: Bigraph) -> str:
    """Canonical text form: header then edges in sorted order, no comments.
    parse_graph(serialize_graph(g)) reproduces g byte for byte."""
    names = _vertex_names(g)  # faster than formatting each end's index
    lines = [f"p bbg {g.y_count} {g.x_count} {g.edge_count}"]
    lines.extend(f"e {names[y]} {names[x]}" for y, x in zip(g._ey, g._ex))
    return "\n".join(lines) + "\n"


def parse_factor(text: str) -> list[tuple[str, ...]]:
    """Parse a factor file: one path per line as space-separated vertex
    names, ``c`` comments and blank lines skipped.  Each name comes back
    canonical, so y007 reads as y7.  Content is not validated here; feed
    the result to validate_path_factor."""
    paths: list[tuple[str, ...]] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line == "c" or line.startswith("c "):
                continue
            paths.append(tuple([f"{side}{i}" for side, i in (
                _read_vertex(t, lineno) for t in line.split())]))
    except ValueError:  # int() refuses more digits than its set limit
        raise GraphFormatError(f"line {lineno}: number too long") from None
    return paths


def _vertex_names(g: Bigraph) -> list[str]:
    """Every vertex name of g, by vertex id."""
    return ([f"y{i}" for i in range(g.y_count)]
            + [f"x{j}" for j in range(g.x_count)])


def format_factor(factor: PathFactor) -> str:
    """Canonical factor text: each path oriented smaller-endpoint-first,
    lines sorted by first vertex."""
    names = _vertex_names(factor.graph)
    lines = [p if p[0] <= p[-1] else p[::-1] for p in factor.ids]
    return "".join(" ".join([names[u] for u in p]) + "\n"
                   for p in sorted(lines))
