"""Greedy scan that builds a pseudo path factor.

The scan visits Y vertices one at a time ("scanning"), committing all
three edges of the scanned vertex: some into the growing factor F, the
rest into a reject set U.  Each step puts one or two edges at the vertex
it scans into F and none elsewhere, so a Y vertex is scanned exactly
when it has an F edge; neither that set nor U is stored, and U is the
edges at scanned Y vertices that are not in F.  A current X vertex
threads the scan.  It always has F-degree <= 1 and at most 2 rejected
edges, so an edge at it leads to an unscanned Y vertex.  The scan ends
exactly when every X vertex has F-degree 2, at which point F is a pseudo
path factor.  build_pseudo_factor runs the scan as a loop; step_i is one
pass of it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import AlgorithmDefectError, NotSimpleError
from .factors import PseudoPathFactor
from .graph import Bigraph, check_biregular
from .policy import LexicographicPolicy, TieBreakPolicy
from .verify import audit_ids

TraceFn = Callable[[str], None]


@dataclass
class FactorState:
    """Mutable scan state.

    factor holds F: its edge set, F-degrees and path ends.  A Y vertex
    is scanned exactly when its F-degree is positive, since each step
    adds F edges at the vertex it scans and nowhere else; the reject set
    U is the edges at scanned Y vertices that are not in F.  current is
    the vertex id of the current X vertex, None before the first step
    and after the last.  pending_x is the ascending list of the ids of X
    vertices of F-degree <= 1; F-degrees only grow, so an entry is
    deleted when its vertex reaches degree 2 and never returns.  Keeping
    it sorted lets case 1 pick from it by position without rebuilding a
    pool.  step_i, one pass of the scan loop, advances current and
    step_no.
    """

    graph: Bigraph
    factor: PseudoPathFactor
    current: Optional[int]
    step_no: int
    pending_x: list[int]
    _seen_counts: tuple[int, int] = (0, 0)  # (|F|, |U|) at last check

    @classmethod
    def initial(cls, g: Bigraph) -> "FactorState":
        return cls(graph=g, factor=PseudoPathFactor(g), current=None,
                   step_no=0, pending_x=list(range(g.y_count, len(g._inc))))

    def dump(self) -> str:
        g, f = self.graph, self.factor
        f_edges = " ".join(_edge_str(g, e) for e in f.edge_ids())
        u_edges = " ".join(_edge_str(g, e) for e in range(g.edge_count)
                           if f.deg[g._ey[e]] and not f._member[e])
        done = " ".join(f"y{i}" for i in range(g.y_count) if f.deg[i])
        current = "None" if self.current is None else g.name(self.current)
        return (f"step={self.step_no} current={current} "
                f"scanned=[{done}] F=[{f_edges}] U=[{u_edges}]")


def _edge_str(g: Bigraph, eid: int) -> str:
    return g.name(g._ey[eid]) + g.name(g._ex[eid])


def _defect(msg: str, state: FactorState) -> AlgorithmDefectError:
    return AlgorithmDefectError(f"{msg}\n  {state.dump()}")


def _grow_f(state: FactorState, eid: int) -> None:
    # Adding to F must keep it a forest of paths; add_edge rejects cycles
    # and interior attachments outright, and a length recorded at a path
    # end that is not that path's misses the length histogram.
    try:
        state.factor.add_edge(eid)
    except ValueError as exc:
        raise _defect(f"F stopped being a family of paths: {exc}", state)
    except KeyError as exc:
        raise _defect(f"F stopped being a family of paths: a path end "
                      f"records a path of length {exc} that F lacks", state)
    x = state.graph._ex[eid]
    if state.factor.deg[x] == 2:
        pending = state.pending_x
        at = bisect_left(pending, x)
        if at == len(pending) or pending[at] != x:
            raise _defect(f"pending_x list out of sync: {state.graph.name(x)}"
                          f" reached F-degree 2 but is not pending", state)
        del pending[at]


def check_state_invariants(state: FactorState) -> None:
    """Full invariant audit, used in checked mode at both ends of the scan.

    Raises AlgorithmDefectError on the first breach.
    """
    g, f = state.graph, state.factor
    problem = audit_ids(f, range(len(f.deg)))
    if problem:
        raise _defect(problem, state)
    deg, xs = [0] * len(f.deg), range(g.y_count, len(f.deg))
    for eid in f.edge_ids():  # the F-degrees by vertex id, from F's edges
        deg[g._ey[eid]] += 1
        deg[g._ex[eid]] += 1
    if f.deg != deg:
        v = next(v for v, (h, d) in enumerate(zip(f.deg, deg)) if h != d)
        raise _defect(f"{g.name(v)} has F-degree {deg[v]} but its counter "
                      f"reads {f.deg[v]}", state)
    for x in xs:
        _check_rejected(state, x)
    if state.pending_x != [x for x in xs if f.deg[x] <= 1]:
        raise _defect("pending_x list out of sync with F-degrees", state)
    scanned = g.y_count - f.deg[:g.y_count].count(0)
    if scanned != state.step_no:
        raise _defect(f"{scanned} Y vertices scanned in {state.step_no} "
                      f"steps", state)
    _check_growth(state)


def _check_step(state: FactorState, y_idx: int, f_added: int) -> None:
    # Local audit after a checked step: a step changes F only at the
    # scanned y_i and its three X neighbours and moves the current X, so
    # only those are checked, in time proportional to their paths.
    g, f = state.graph, state.factor
    if f.deg[y_idx] != f_added:
        raise _defect(f"unscanned y{y_idx} had F-degree "
                      f"{f.deg[y_idx] - f_added}", state)
    xs = [g._ex[eid] for eid in g._inc[y_idx]]
    if state.current is not None and state.current not in xs:
        xs.append(state.current)
    problem = audit_ids(f, [y_idx, *xs])
    if problem:
        raise _defect(problem, state)
    pending = state.pending_x
    for x in xs:
        _check_rejected(state, x)
        at = bisect_left(pending, x)
        if (at < len(pending) and pending[at] == x) != (f.deg[x] <= 1):
            raise _defect(f"pending_x list out of sync at {g.name(x)}", state)
    _check_growth(state)


def _check_rejected(state: FactorState, x: int) -> None:
    d = state.factor.deg[x]
    if d <= 1:  # a plain loop: a generator resumes once per term
        g, deg, rejected = state.graph, state.factor.deg, -d
        for eid in g._inc[x]:
            rejected += deg[g._ey[eid]] > 0  # at a scanned Y
        if rejected > 2:
            raise _defect(f"{g.name(x)} has F-degree {d} yet "
                          f"{rejected} rejected edges", state)


def _check_growth(state: FactorState) -> None:
    # every F edge is at a scanned Y, so the rest of the three edges at
    # each of the step_no scanned Y make up U
    f_count = state.factor.edge_count
    u_count = 3 * state.step_no - f_count
    prev_f, prev_u = state._seen_counts
    if f_count < prev_f or u_count < prev_u:
        raise _defect("committed edge sets shrank between steps", state)
    state._seen_counts = (f_count, u_count)


def step_zero(state: FactorState, policy: TieBreakPolicy,
              trace: Optional[TraceFn] = None) -> FactorState:
    """Scan the first Y vertex.

    With the policy's neighbor order (a, b, c): edges to c and a enter F,
    the edge to b enters U, and b becomes the current vertex.
    """
    if state.step_no or state.current is not None or state.factor.edge_count:
        raise _defect("step_zero requires a fresh state", state)
    g = state.graph
    y0 = policy.pick(range(g.y_count))
    eid_of = {g._ex[eid]: eid for eid in g._inc[y0]}
    first, middle, last = policy.order(eid_of)
    _grow_f(state, eid_of[last])
    _grow_f(state, eid_of[first])
    state.current = middle
    state.step_no = 1
    if trace:
        e = [_edge_str(g, eid_of[x]) for x in (last, first, middle)]
        trace(f"step 0 case 0 y{y0} F:[{e[0]} {e[1]}] U:[{e[2]}]")
    return state


def step_i(state: FactorState, policy: TieBreakPolicy,
           trace: Optional[TraceFn] = None, checked: bool = False
           ) -> FactorState:
    """Scan one more Y vertex, reached from the current X vertex.

    One pass of the scan loop in build_pseudo_factor.  The scanned vertex
    is chosen among uncommitted edges at the current vertex; its other
    two neighbors (w1, w2), with F-degrees after the edge to the current
    vertex joins F, decide the case:

      1:  both 2           reject both edges; next current is any X vertex
                           of F-degree <= 1, or the scan stops.
      2:  exactly one 2    reject both; the low-degree one becomes current.
      3a: some 0           extend F through a degree-0 one, reject the
                           other, which becomes current.
      3b: both 1           extend F toward whichever end keeps F acyclic,
                           reject the other, which becomes current.
    """
    g, x = state.graph, state.current
    ey, ex, inc, deg = g._ey, g._ex, g._inc, state.factor.deg
    if x is None:
        raise _defect("current vertex None is not an X vertex", state)
    if deg[x] > 1:
        raise _defect(f"current vertex {g.name(x)} already has F-degree 2",
                      state)
    free = {}  # plain loops: before 3.12 a comprehension is a call
    for eid in inc[x]:
        if not deg[ey[eid]]:  # an unscanned Y
            free[ey[eid]] = eid
    if not free:
        raise _defect(f"no uncommitted edge at {g.name(x)}; the scan "
                      f"guarantees at least one", state)

    y_idx = policy.pick(free)
    chosen_eid = free[y_idx]
    rest = {}
    for eid in inc[y_idx]:
        if eid != chosen_eid:
            rest[ex[eid]] = eid
    wa, wb = policy.order(rest)
    da, db = deg[wa], deg[wb]

    # the case names w1 and w2: cases 1 and 2 reject both edges, 3a and 3b
    # extend F through w1 and reject w2
    if da == 2 and db == 2:
        case, w1, w2 = "1", wa, wb
    elif da == 2 or db == 2:
        case = "2"
        w1, w2 = (wa, wb) if da == 2 else (wb, wa)
    elif da == 0 or db == 0:
        case = "3a"
        w1, w2 = (wa, wb) if da == 0 else (wb, wa)
    else:
        case = "3b"
        # Both candidates sit on F-paths; exactly one may already share a
        # component with x, which y_i joins through the chosen edge, and
        # extending that way would close a cycle.
        w1, w2 = (wb, wa) if state.factor._end[wa] == x else (wa, wb)
    f_added = 2 if case[0] == "3" else 1
    for eid in (chosen_eid, rest[w1])[:f_added]:
        _grow_f(state, eid)
    if case != "1":
        state.current = w2
    else:
        pending = state.pending_x
        state.current = (pending[policy.pick_index(len(pending))]
                         if pending else None)

    state.step_no += 1
    if trace:
        f_new = [chosen_eid, rest[w1]][:f_added]
        u_new = [rest[w1], rest[w2]][f_added - 1:]
        trace(f"step {state.step_no - 1} case {case} y{y_idx} "
              f"F:[{' '.join(_edge_str(g, e) for e in f_new)}] "
              f"U:[{' '.join(_edge_str(g, e) for e in u_new)}]")
    if checked:
        _check_step(state, y_idx, f_added)
        if state.current is None:
            check_state_invariants(state)
    return state


def build_pseudo_factor(g: Bigraph, policy: Optional[TieBreakPolicy] = None,
                        *, checked: bool = False,
                        trace: Optional[TraceFn] = None) -> PseudoPathFactor:
    """Run the scan to completion on a simple (3,4)-biregular bigraph.

    Deterministic for a fixed (graph, policy).  With checked=True every
    step audits what it touched, the full invariant audit runs after the
    first and the last step, and the returned factor is re-validated.
    Raises NotSimpleError / NotBiregularError on bad input and
    AlgorithmDefectError on any internal breach.
    """
    if policy is None:
        policy = LexicographicPolicy()
    if not g.simple:
        raise NotSimpleError("input graph has parallel edges; a simple "
                             "graph is required")
    check_biregular(g)
    state = FactorState.initial(g)
    step_zero(state, policy, trace=trace)
    if checked:
        check_state_invariants(state)
    while state.current is not None:
        if state.step_no > g.y_count:
            raise _defect("scan did not stop within |Y| steps", state)
        step_i(state, policy, trace=trace, checked=checked)
    # add_edge kept F a family of paths; with every X vertex interior,
    # each path ends in Y at both ends and so has even length.
    deg = state.factor.deg
    for x in range(g.y_count, len(deg)):
        if deg[x] != 2:
            raise _defect(f"scan stopped with deg_F({g.name(x)}) = {deg[x]}",
                          state)
    if checked:
        from .verify import validate_pseudo_factor
        report = validate_pseudo_factor(g, state.factor.edge_ids())
        if not report.valid:
            raise _defect(f"validator rejected the built factor:\n"
                          f"{report.render()}", state)
    return state.factor
