"""Independent validators and exhaustive oracles.

The validators re-derive every structural claim from the raw subgraph or
path list; they share no bookkeeping with the solver.  The checked-mode
audit walks the subgraph the same way and holds the solver's path index
against that walk.  The oracle
enumerates all ways to keep exactly 2 of the 4 edges at every X vertex
(6 per vertex, 6^(3k) total), so it can certify both the existence and
the non-existence of a path factor.  It is deliberately capped at k <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .dsu import RollbackUnionFind
from .errors import OracleSizeError
from .factors import AugmentingTrail, PathFactor, PseudoPathFactor
from .graph import (Bigraph, EdgeSubgraph, Vertex, X_SIDE, Y_SIDE,
                    check_biregular, orient_path)

ORACLE_MAX_K = 2


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[Vertex, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """All violations found, in rule-check order; empty means valid."""

    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.valid:
            return "OK\n"
        return "".join(f"FAIL {v.rule} {v.message}\n"
                       for v in self.violations)


def walk_component(sub: EdgeSubgraph, v: int) -> tuple[list[int], int]:
    """The component of sub through vertex id v: its vertex ids and its
    edge count, in time proportional to the component.  The collection
    starts where a walk away from v first meets a vertex of degree other
    than 2, or v again on a cycle, so a path comes out in order."""
    g = sub.parent
    inc, ends, member, ny = g._inc, g.edges, sub._member, g.y_count
    start, prev_eid = v, -1
    while len(eids := [eid for eid in inc[start] if member[eid]]) == 2:
        prev_eid = eids[eids[0] == prev_eid]
        y, x = ends[prev_eid]
        start = ny + x if start < ny else y
        if start == v:
            break
    comp = {start: None}  # insertion-ordered set
    stack = [start]
    edges = 0
    while stack:
        u = stack.pop()
        for eid in inc[u]:
            if member[eid]:
                edges += 1
                y, x = ends[eid]
                w = ny + x if u < ny else y
                if w not in comp:
                    comp[w] = None
                    stack.append(w)
    return list(comp), edges // 2


def _names(g: Bigraph, ids: Iterable[int]) -> str:
    return " ".join(str(g.vertex(u)) for u in ids)


def audit_ids(factor: PseudoPathFactor, ids: Iterable[int]) -> Optional[str]:
    """Walk F afresh, once per component, through the given vertex ids.

    Each component met must be a path, and every vertex on it must map to
    one path index entry holding that path in either orientation (none
    for an isolated vertex).  Returns the first fault found, or None.
    """
    g, sub, index = factor.graph, factor.subgraph, factor._path_of
    ny, seen = g.y_count, set()
    for v in ids:
        if v in seen:
            continue
        comp, edges = walk_component(sub, v)
        seen.update(comp)
        branch = [u for u in comp
                  if (sub.y_deg[u] if u < ny else sub.x_deg[u - ny]) >= 3]
        if branch:
            return f"F has a branch-vertex at {g.vertex(min(branch))}"
        if edges >= len(comp):
            return f"F has a cycle at {_names(g, sorted(comp))}"
        held = index[v]
        path = tuple(comp)
        if tuple(held or (v,)) not in (path, path[::-1]):
            return (f"path index at {g.vertex(v)} holds "
                    f"[{_names(g, held or (v,))}] but F has "
                    f"[{_names(g, path)}]")
        for u in comp:
            if index[u] is not held:
                return (f"path index at {g.vertex(u)} is not the one at "
                        f"{g.vertex(v)} on its path")
    return None


def validate_pseudo_factor(g: Bigraph, sub: EdgeSubgraph) -> ValidationReport:
    """Check the pseudo path factor conditions.

    Rules, in order: "subgraph" (edge set belongs to g), "max-degree"
    (no vertex of degree >= 3), "cycle" (no cyclic component),
    "odd-length" (every path component has an even edge count),
    "x-degree" (every X vertex has degree exactly 2).
    """
    violations: list[Violation] = []
    if sub.parent != g:
        violations.append(Violation(
            "subgraph", (), "edge set does not belong to the given graph"))
        return ValidationReport(tuple(violations))
    for v in g.vertices():
        d = sub.degree(v)
        if d >= 3:
            violations.append(Violation(
                "max-degree", (v,), f"deg({v}) = {d}, want <= 2"))
    seen: set[int] = set()
    for v, d in enumerate(sub.y_deg + sub.x_deg):  # by vertex id
        if v in seen or d == 0:
            continue
        comp, edges = walk_component(sub, v)
        seen.update(comp)
        comp = sorted(map(g.vertex, comp))
        names = " ".join(map(str, comp))
        if edges >= len(comp):
            violations.append(Violation(
                "cycle", tuple(comp), f"component {{{names}}} has {edges} "
                f"edges on {len(comp)} vertices"))
        elif all(sub.degree(u) <= 2 for u in comp) and edges % 2 == 1:
            violations.append(Violation(
                "odd-length", tuple(comp),
                f"path component {{{names}}} has odd length {edges}"))
    for j in range(g.x_count):
        if sub.x_deg[j] != 2:
            violations.append(Violation(
                "x-degree", (Vertex.x(j),),
                f"deg(x{j}) = {sub.x_deg[j]}, want 2"))
    return ValidationReport(tuple(violations))


PathsLike = Union[PathFactor, Sequence[Sequence[Vertex]]]


def validate_path_factor(g: Bigraph, factor: PathsLike) -> ValidationReport:
    """Check the spanning path factor conditions.

    Rules, in order: "graph-shape" (g itself must be (3,4)-biregular for
    the path-count rule), "not-a-path" (each line is a simple path in g),
    "endpoint-degree" (both ends of each path in Y), "odd-length",
    "disjoint" (no vertex on two paths), "spanning" (every vertex on some
    path), "path-count" (exactly k paths).
    """
    paths = factor.paths if isinstance(factor, PathFactor) else factor
    violations: list[Violation] = []
    k: Optional[int] = None
    try:
        k = check_biregular(g)
    except Exception as exc:
        violations.append(Violation("graph-shape", (), str(exc)))
    edge_pairs = set(g.edges)
    seen: dict[Vertex, int] = {}

    def line(idx: int, seq: Sequence[Vertex]) -> str:  # for a violation only
        return f"line {idx + 1} [{' '.join(map(str, seq))}]"
    for idx, seq in enumerate(paths):
        seq = tuple(seq)
        ok_path = len(seq) >= 2 and len(set(seq)) == len(seq)
        if ok_path:
            for a, b in zip(seq, seq[1:]):
                y, x = (a, b) if a.side == Y_SIDE else (b, a)
                if (a.side == b.side
                        or (y.index, x.index) not in edge_pairs):
                    ok_path = False
                    break
        if not ok_path:
            violations.append(Violation(
                "not-a-path", tuple(seq),
                f"{line(idx, seq)} is not a simple path in the graph"))
            continue
        for end in (seq[0], seq[-1]):
            if not end.is_y:
                violations.append(Violation(
                    "endpoint-degree", (end,),
                    f"endpoint {end} is on the degree-4 side, want Y"))
        if (len(seq) - 1) % 2 == 1:
            violations.append(Violation(
                "odd-length", tuple(seq),
                f"{line(idx, seq)} has odd length {len(seq) - 1}"))
        for v in seq:
            if v in seen:
                violations.append(Violation(
                    "disjoint", (v,),
                    f"{v} appears on lines {seen[v] + 1} and {idx + 1}"))
            else:
                seen[v] = idx
    # Each key of seen lies on a path that passed the edge check.  If every
    # key has side Y or X, each stood for itself in an edge of g, so |V|
    # keys cover g; only otherwise list the vertices missing.
    if (len(seen) != g.y_count + g.x_count
            or not {side for side, _ in seen} <= {Y_SIDE, X_SIDE}):
        missing = [v for v in g.vertices() if v not in seen]
        if missing:
            violations.append(Violation(
                "spanning", tuple(missing),
                f"uncovered: {' '.join(map(str, missing))}"))
    if k is not None and len(paths) != k:
        violations.append(Violation(
            "path-count", (), f"{len(paths)} paths, want k = {k}"))
    return ValidationReport(tuple(violations))


def brute_force_factor(g: Bigraph) -> Optional[PathFactor]:
    """Exhaustive search over per-X edge pairs; None iff no factor exists.

    Accepts multigraphs (parallel edges are distinct occurrences; keeping
    both closes a 2-cycle and is pruned).  The first factor in
    lexicographic choice order is returned, so the witness is stable.
    Raises OracleSizeError for k > 2.
    """
    k = check_biregular(g)
    if k > ORACLE_MAX_K:
        raise OracleSizeError(
            f"exhaustive factor search is capped at k <= {ORACLE_MAX_K}, "
            f"got k = {k}")
    per_x = [list(combinations(g.incident_edge_ids(Vertex.x(j)), 2))
             for j in range(g.x_count)]
    y_deg = [0] * g.y_count
    dsu = RollbackUnionFind()
    chosen: list[tuple[int, int]] = []

    def feasible(pair: tuple[int, int]) -> bool:
        applied = 0
        for eid in pair:
            y, x = g.endpoints(eid)
            if y_deg[y.index] == 2 or not dsu.union(y, x):
                break
            y_deg[y.index] += 1
            applied += 1
        if applied == 2:
            return True
        for eid in pair[:applied]:
            y_deg[g.edges[eid][0]] -= 1
        return False

    def search(j: int) -> bool:
        if j == g.x_count:
            return all(d >= 1 for d in y_deg)
        for pair in per_x[j]:
            mark = dsu.snapshot()
            if feasible(pair):
                chosen.append(pair)
                if search(j + 1):
                    return True
                chosen.pop()
                for eid in pair:
                    y_deg[g.edges[eid][0]] -= 1
            dsu.rollback(mark)
        return False

    if not search(0):
        return None
    sub = EdgeSubgraph(g)
    for pair in chosen:
        for eid in pair:
            sub.add(eid)
    # the search kept every Y degree in {1, 2} and F acyclic, so each
    # component is a path, met here once from each of its two ends
    paths = {orient_path([g.vertex(u) for u in walk_component(sub, v)[0]])
             for v, d in enumerate(sub.y_deg + sub.x_deg) if d == 1}
    return PathFactor(g, tuple(sorted(paths)))


def brute_force_trails(factor: PseudoPathFactor,
                       y0: Vertex) -> list[AugmentingTrail]:
    """All augmenting trails out of y0, by exhaustive extension.

    A trail leaves each Y tip on an unused non-factor edge; a length-2
    component is crossed via an unused factor edge to a fresh Y vertex,
    and a longer component terminates the trail at any of its interior Y
    vertices.  Sorted by vertex sequence.  Raises OracleSizeError for
    k > 2 and ValueError when y0 is already covered.
    """
    g, sub = factor.graph, factor.subgraph
    k = check_biregular(g)
    if k > ORACLE_MAX_K:
        raise OracleSizeError(
            f"exhaustive trail search is capped at k <= {ORACLE_MAX_K}, "
            f"got k = {k}")
    if not y0.is_y or sub.degree(y0) != 0:
        raise ValueError(f"trail origin {y0} must be an uncovered Y vertex")
    found: list[AugmentingTrail] = []

    def extend(tip: Vertex, edges: tuple[int, ...],
               seen_ys: frozenset[Vertex]) -> None:
        for eid in g.incident_edge_ids(tip):
            if sub.has(eid) or eid in edges:
                continue
            x_next = Vertex.x(g.edges[eid][1])
            long_comp = factor.component_length_at(x_next) >= 4
            for feid in sub.member_incident(x_next):
                if feid in edges:
                    continue
                y_next = Vertex.y(g.edges[feid][0])
                if long_comp:
                    if sub.degree(y_next) == 2:
                        found.append(AugmentingTrail(g, edges + (eid, feid)))
                elif y_next not in seen_ys:
                    extend(y_next, edges + (eid, feid), seen_ys | {y_next})

    extend(y0, (), frozenset({y0}))
    found.sort(key=lambda t: t.vertices)
    return found
