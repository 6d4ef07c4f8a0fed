"""Independent validators and exhaustive oracles.

The validators re-derive every structural claim from the raw edge ids or
path list; they share no bookkeeping with the solver.  The checked-mode
audit walks each path it meets in F's edge set with graph.py's _run,
the step loop that F's ids walk with too, and holds its two ends
against the far end and length that F records at each.  The factor
oracle enumerates all ways to keep exactly 2 of the 4 edges at every X
vertex (6 per vertex, 6^(3k) total) on one PseudoPathFactor, pruning a
choice as soon as add_edge refuses it, so it can certify both the
existence and the non-existence of a path factor.  Both oracles are
deliberately capped at k <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .errors import NotBiregularError, OracleSizeError
from .factors import AugmentingTrail, PathFactor, PseudoPathFactor
from .graph import Bigraph, _is_count, _run, check_biregular, walk_component

ORACLE_MAX_K = 2


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]
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


def _names(g: Bigraph, ids: Iterable[int]) -> str:
    return " ".join(map(g.name, ids))


def audit_ids(factor: PseudoPathFactor, ids: Iterable[int]) -> Optional[str]:
    """Check F's component through each of the given vertex ids, once per
    component, against the ends F records.

    Each component must be a path, each of whose ends records the other
    as its far end and the path's edge count as its length; an isolated
    vertex records itself at length 0.  F is walked from its membership
    bytes alone, out from the vertex both ways to the path's ends.
    Returns the first fault, or None: a branch, then a cycle, each named
    from a fresh walk of the whole component, then a wrong record.
    """
    g, member, end, length = (factor.graph, factor._member, factor._end,
                              factor._len)
    inc, seen = g._inc, set()
    for v in ids:
        if v in seen:
            continue
        ends, n, side = [v, v], 0, 0
        for eid in inc[v]:
            if member[eid]:
                if side == 2:  # a third F edge at v
                    return _not_a_path(g, member, v)
                run, d = _run(g, member, v, eid)
                if d != 1:  # back at v, or at a branch
                    return _not_a_path(g, member, v)
                seen.update(run)
                n += len(run)
                ends[side] = run[-1]
                side += 1
        for u, w in sorted([ends, ends[::-1]]):  # the lower end first
            if end[u] != w or length[u] != n:  # a walk from an end: in order
                return (f"{g.name(u)} records the far end {g.name(end[u])} "
                        f"at length {length[u]}, but F has "
                        f"[{_names(g, walk_component(g, member, u)[0])}]")
    return None


def _not_a_path(g: Bigraph, member: Sequence[int], v: int) -> str:
    """The fault of vertex id v's component, known to be no path: a
    branch-vertex, the least, if it has one, else its cycle."""
    comp, edges = walk_component(g, member, v)
    branch = [u for u in comp if sum(map(member.__getitem__, g._inc[u])) >= 3]
    if branch:
        return f"F has a branch-vertex at {g.name(min(branch))}"
    return f"F has a cycle at {_names(g, sorted(comp))}"


def validate_pseudo_factor(g: Bigraph,
                           eids: Iterable[int]) -> ValidationReport:
    """Check the pseudo path factor conditions on an edge set of g, given
    as occurrence ids.

    Rules, in order: "subgraph" (every id names an edge of g, and no id
    repeats), "max-degree" (no vertex of degree >= 3), "cycle" (no cyclic
    component), "odd-length" (every path component has an even edge
    count), "x-degree" (every X vertex has degree exactly 2).
    """
    violations: list[Violation] = []
    m, ny, ey, ex = g.edge_count, g.y_count, g._ey, g._ex
    member, deg = bytearray(m), [0] * (ny + g.x_count)  # deg by vertex id
    for eid in eids:
        if 0 <= eid < m and not member[eid]:
            member[eid] = 1
            deg[ey[eid]] += 1
            deg[ex[eid]] += 1
        else:
            why = "repeated" if 0 <= eid < m else f"not in range({m})"
            violations.append(Violation(
                "subgraph", (), f"edge id {eid} is {why}"))
    if violations:
        return ValidationReport(tuple(violations))
    for v, d in enumerate(deg):
        if d >= 3:
            violations.append(Violation(
                "max-degree", (g.name(v),),
                f"deg({g.name(v)}) = {d}, want <= 2"))
    seen: set[int] = set()
    for v, d in enumerate(deg):
        if v in seen or d == 0:
            continue
        comp, edges = walk_component(g, member, v)
        seen.update(comp)
        if edges >= len(comp):
            rule, msg = "cycle", "component {{{}}} has {} edges on {} vertices"
        elif edges % 2 == 1 and all(deg[u] <= 2 for u in comp):
            rule, msg = "odd-length", "path component {{{}}} has odd length {}"
        else:
            continue  # the names are built only for a violation
        subjects = tuple(map(g.name, sorted(comp)))
        violations.append(Violation(rule, subjects, msg.format(
            " ".join(subjects), edges, len(comp))))
    for x in range(ny, len(deg)):
        if deg[x] != 2:
            v = g.name(x)
            violations.append(Violation(
                "x-degree", (v,), f"deg({v}) = {deg[x]}, want 2"))
    return ValidationReport(tuple(violations))


def validate_path_factor(
        g: Bigraph, factor: Union[PathFactor, Sequence[Sequence[str]]]
        ) -> ValidationReport:
    """Check the spanning path factor conditions.

    Rules, in order: "graph-shape" (g itself must be (3,4)-biregular for
    the path-count rule), "not-a-path" (each line is a simple path in g),
    "endpoint-degree" (both ends of each path in Y), "odd-length",
    "disjoint" (no vertex on two paths), "spanning" (every vertex on some
    path), "path-count" (exactly k paths).  Both forms, a PathFactor and
    lines of canonical vertex names, are checked on vertex ids, each step
    against the X ends of g._inc at its Y end; a PathFactor's ids are
    named only for a violation.
    """
    violations: list[Violation] = []
    k: Optional[int] = None
    try:
        k = check_biregular(g)
    except NotBiregularError as exc:
        violations.append(Violation("graph-shape", (), str(exc)))
    ny, n, inc, ex = g.y_count, g.y_count + g.x_count, g._inc, g._ex
    if isinstance(factor, PathFactor):
        lines, name = factor.ids, g.name
    else:
        # y<i> / x<j> is read straight to its id; a name not of g, such
        # as y25 when |Y| = 20 or y007, gets an id >= n in first-seen order
        past: dict[str, int] = {}
        width = len(str(max(ny, g.x_count)))  # no name of g has more digits
        lines = []
        for p in factor:
            ids = []
            for u in p:
                digits = u[1:]
                if (len(digits) <= width and _is_count(digits)
                        and (digits[0] != "0" or digits == "0")):
                    side = u[0]
                    i = int(digits) + (ny if side == "x" else 0)
                    if side == "y" and i < ny or side == "x" and i < n:
                        ids.append(i)
                        continue
                ids.append(past.setdefault(u, n + len(past)))
            lines.append(tuple(ids))
        names = list(past)

        def name(v: int) -> str:
            return g.name(v) if v < n else names[v - n]

    def line(idx: int, p: Sequence[int]) -> str:  # for a violation only
        return f"line {idx + 1} [{' '.join(map(name, p))}]"

    owner = [-1] * n  # vertex -> the first path line on it
    for idx, p in enumerate(lines):
        ok = len(set(p)) == len(p) > 1 and 0 <= min(p) and max(p) < n
        for a, b in zip(p, p[1:]) if ok else ():
            if a > b:  # ids sort Y first, so a step's Y end is the lesser
                a, b = b, a
            for eid in inc[a]:  # two X ids or two Y ids meet no X end b
                if ex[eid] == b:
                    break
            else:
                ok = False
                break
        if not ok:
            violations.append(Violation(
                "not-a-path", tuple(map(name, p)),
                f"{line(idx, p)} is not a simple path in the graph"))
            continue
        for u in (p[0], p[-1]):
            if u >= ny:
                v = name(u)
                violations.append(Violation(
                    "endpoint-degree", (v,),
                    f"endpoint {v} is on the degree-4 side, want Y"))
        if len(p) % 2 == 0:
            violations.append(Violation(
                "odd-length", tuple(map(name, p)),
                f"{line(idx, p)} has odd length {len(p) - 1}"))
        for u in p:
            if owner[u] < 0:
                owner[u] = idx
                continue
            v = name(u)
            violations.append(Violation(
                "disjoint", (v,),
                f"{v} appears on lines {owner[u] + 1} and {idx + 1}"))
    if -1 in owner:
        missing = [name(u) for u in range(n) if owner[u] < 0]
        violations.append(Violation(
            "spanning", tuple(missing),
            f"uncovered: {' '.join(missing)}"))
    if k is not None and len(lines) != k:
        violations.append(Violation(
            "path-count", (), f"{len(lines)} paths, want k = {k}"))
    return ValidationReport(tuple(violations))


def brute_force_factor(g: Bigraph) -> Optional[PathFactor]:
    """Exhaustive search over per-X edge pairs; None iff no factor exists.

    The search grows one PseudoPathFactor, X vertices ascending: a pair
    is kept only if add_edge takes both edges, so F stays a family of
    paths, and remove_edge undoes it on backtrack.  Accepts multigraphs
    (parallel edges are distinct occurrences; keeping both closes a
    2-cycle and is pruned).  The first factor in lexicographic choice
    order is returned, so the witness is stable.  Raises OracleSizeError
    for k > 2.
    """
    k = check_biregular(g)
    if k > ORACLE_MAX_K:
        raise OracleSizeError(
            f"exhaustive factor search is capped at k <= {ORACLE_MAX_K}, "
            f"got k = {k}")
    ey = g._ey
    per_x = [list(combinations(eids, 2)) for eids in g._inc[g.y_count:]]
    factor = PseudoPathFactor(g)
    deg = factor.deg

    def search(depth: int) -> bool:
        if depth == len(per_x):  # every X vertex has degree 2 here
            return all(deg)
        for a, b in per_x[depth]:
            # the X vertex is fresh, so only a full Y end refuses the first
            # edge, and then the second can close only a cycle
            if deg[ey[a]] == 2 or deg[ey[b]] == 2:
                continue
            factor.add_edge(a)
            try:
                factor.add_edge(b)
            except ValueError:
                factor.remove_edge(a)
                continue
            if search(depth + 1):
                return True
            factor.remove_edge(b)
            factor.remove_edge(a)
        return False

    # on success every Y is covered and F is a family of paths with each
    # X interior, so F itself is the witness
    return PathFactor.from_pseudo(factor) if search(0) else None


def brute_force_trails(factor: PseudoPathFactor,
                       y0: int) -> list[AugmentingTrail]:
    """All augmenting trails out of the Y vertex y<y0>, by exhaustive
    extension.

    A trail leaves each Y tip on an unused non-factor edge; a length-2
    component is crossed via an unused factor edge to a fresh Y vertex,
    and a longer component terminates the trail at any of its interior Y
    vertices.  Sorted by vertex sequence.  Raises OracleSizeError for
    k > 2 and ValueError unless y<y0> is an uncovered Y vertex of the
    graph.
    """
    g, member, deg = factor.graph, factor._member, factor.deg
    k = check_biregular(g)
    if k > ORACLE_MAX_K:
        raise OracleSizeError(
            f"exhaustive trail search is capped at k <= {ORACLE_MAX_K}, "
            f"got k = {k}")
    if not (0 <= y0 < g.y_count and deg[y0] == 0):
        raise ValueError(f"trail origin y{y0} must be an uncovered Y vertex")
    inc, ey, ex = g._inc, g._ey, g._ex
    found: list[AugmentingTrail] = []

    def extend(tip: int, edges: tuple[int, ...],
               seen_ys: frozenset[int]) -> None:
        for eid in inc[tip]:
            if member[eid] or eid in edges:
                continue
            x_next = ex[eid]
            long_comp = factor._length(x_next, exact=False) >= 4
            for feid in inc[x_next]:
                if not member[feid] or feid in edges:
                    continue
                y_next = ey[feid]
                if long_comp:
                    if deg[y_next] == 2:
                        found.append(AugmentingTrail(g, edges + (eid, feid)))
                elif y_next not in seen_ys:
                    extend(y_next, edges + (eid, feid), seen_ys | {y_next})

    extend(y0, (), frozenset({y0}))
    found.sort(key=lambda t: t._vertex_ids())
    return found
