"""Trail search and rewiring, plus the end-to-end solve pipeline.

A pseudo path factor that misses some Y vertex always contains a
component of length >= 4, and from any uncovered y0 an alternating trail
reaches one: it leaves y0 on a non-factor edge, crosses length-2
components through their middle, and stops at an interior Y vertex of a
long component.  Swapping the trail's factor and non-factor edges covers
y0, keeps every other guarantee intact and never lengthens the longest
path, so repeating the swap once per uncovered vertex yields a spanning
path factor.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterable, Optional

from .builder import TraceFn, build_pseudo_factor
from .errors import AlgorithmDefectError
from .factors import AugmentingTrail, PathFactor, PseudoPathFactor
from .graph import Bigraph
from .policy import LexicographicPolicy, TieBreakPolicy
from .verify import audit_ids


def find_trail(factor: PseudoPathFactor, y0: int,
               policy: Optional[TieBreakPolicy] = None) -> AugmentingTrail:
    """Find an augmenting trail out of the uncovered Y vertex y<y0>.

    The trail alternates non-factor and factor edges.  Interior X stops
    lie on components of length exactly 2 and are crossed; the first X
    vertex found on a longer component ends the trail at one of that
    component's interior Y vertices.  Guaranteed to succeed when F is a
    pseudo path factor of a (3,4)-biregular graph that misses y<y0>; on
    any other F the search can fail, which it reports as
    AlgorithmDefectError.  The trail is not re-checked here: rewire
    checks every trail condition before changing F.
    """
    if policy is None:
        policy = LexicographicPolicy()
    g, deg = factor.graph, factor.deg
    if not (0 <= y0 < g.y_count and deg[y0] == 0):
        raise ValueError(f"trail origin y{y0} must be an uncovered Y vertex")
    # on ids: spent holds the trail's edge ids in order, as an ordered set
    ey, ex, inc, member = g._ey, g._ex, g._inc, factor._member
    tip = y0
    spent: dict[int, None] = {}
    seen_ys = {tip}
    for _ in range(g.y_count + 1):
        # keyed by X id: of parallel edges to one X, any one will do.  A
        # spent non-factor edge leaves an earlier tip, and the revisit
        # check below refuses a return to one, so none of these is spent.
        fresh = {ex[eid]: eid
                 for eid in filterfalse(member.__getitem__, inc[tip])}
        if not fresh:
            raise AlgorithmDefectError(
                f"no non-factor edge available at trail tip y{tip}")
        x = policy.pick(fresh)
        spent[fresh[x]] = None

        f_eids = list(filter(member.__getitem__, inc[x]))
        path = factor._path_of[x]
        length = 0 if path is None else len(path) - 1
        if length == 2:
            # Crossing a 2-path through its middle.  The same middle can
            # be crossed twice (X vertices may repeat), so one factor edge
            # may be spent already; both spent would mean a third arrival,
            # which the degree budget rules out.
            choices = {ey[eid]: eid for eid in f_eids if eid not in spent}
            if not choices:
                raise AlgorithmDefectError(
                    f"no unused factor edge at 2-path middle {g.name(x)}; "
                    f"trail so far: {_walked(g, y0, spent)}")
            tip = policy.pick(choices)
            if tip in seen_ys:
                raise AlgorithmDefectError(
                    f"trail revisited y{tip}; trail so far: "
                    f"{_walked(g, y0, spent)}")
            spent[choices[tip]] = None
            seen_ys.add(tip)
            continue
        # Long component: stop at an interior Y vertex.  Factor edges used
        # so far all lie on 2-paths, so none here can be spent.
        interior = {ey[eid]: eid for eid in f_eids if deg[ey[eid]] == 2}
        if not interior:
            raise AlgorithmDefectError(
                f"no interior Y vertex reachable at {g.name(x)} on a "
                f"component of length {length}")
        spent[interior[policy.pick(interior)]] = None
        return AugmentingTrail(g, tuple(spent))
    raise AlgorithmDefectError(
        f"trail search from y{y0} did not terminate within |Y| extensions")


def _walked(g: Bigraph, y0: int, spent: Iterable[int]) -> str:
    """The vertices that a trail's edges pass through, from y<y0>."""
    ends = [(g._ey if t % 2 else g._ex)[e] for t, e in enumerate(spent)]
    return " ".join(map(g.name, [y0, *ends]))


def rewire(factor: PseudoPathFactor, trail: AugmentingTrail,
           *, checked: bool = False) -> None:
    """Swap the trail's factor and non-factor edges, in place.

    Afterwards the factor covers exactly one more Y vertex (the trail
    origin), its edge count is unchanged and its maximum path length has
    not grown.  Raises ValueError, before changing anything, unless the
    trail is one find_trail could build: it is on F's graph, the origin
    is uncovered, the edges alternate outside and inside F, no Y vertex
    repeats (so no edge does), every interior X vertex lies on a 2-path,
    the terminal X vertex lies on a path of length >= 4 and the terminal
    Y vertex has factor degree 2.

    F changes only through PseudoPathFactor.remove_edge and add_edge, so
    a rewire takes time proportional to the trail length plus the
    shorter piece of each path it splits.  checked=True also holds a
    fresh walk of F through every trail vertex against the path index.
    """
    g, index, deg = factor.graph, factor._path_of, factor.deg
    if trail.graph is not g:  # edge ids name edges of one graph only
        raise ValueError(f"{trail} is on another graph than F")
    # vertex ids y0, x1, y1, ...; the edges alternate outside F
    # (y_{j-1} x_j) and inside it (x_j y_j)
    ids, ny = trail._vertex_ids(), g.y_count
    drop, adopt = trail.edges[1::2], trail.edges[0::2]
    xs = ids[1::2]
    lengths = [len(index[x] or (x,)) - 1 for x in xs]  # of x's component
    if deg[ids[0]] != 0:
        raise ValueError(f"trail origin y{ids[0]} is already covered")
    if not all(factor._member[eid] for eid in drop):
        raise ValueError(f"{trail} has a factor edge outside F")
    if any(factor._member[eid] for eid in adopt):
        raise ValueError(f"{trail} has a non-factor edge inside F")
    # the factor edges end at distinct Y vertices, and so do the
    # non-factor ones, so this also rules out a repeated edge
    ys = ids[0::2]
    if len(set(ys)) != len(ys):
        raise ValueError(f"{trail} repeats a Y vertex")
    for x, n in zip(xs[:-1], lengths):
        if n != 2:
            raise ValueError(f"{trail} crosses {g.name(x)} on a component "
                             f"of length {n}, want 2")
    if lengths[-1] < 4:
        raise ValueError(f"{trail} ends on a component of length "
                         f"{lengths[-1]}, want >= 4")
    if deg[ids[-1]] != 2:
        raise ValueError(f"{trail} ends at y{ids[-1]} of factor degree "
                         f"{deg[ids[-1]]}, want 2")

    old_max = factor.max_path_length
    try:
        for eid in drop:
            factor.remove_edge(eid)
        for eid in adopt:
            factor.add_edge(eid)
    except ValueError as exc:
        raise AlgorithmDefectError(f"rewiring along {trail} broke the "
                                   f"path structure: {exc}") from None

    # Every path that changed holds a trail vertex, and all trail Y
    # vertices but y0 were covered before, so this checks that exactly
    # one more vertex, y0, is now covered and every changed path is even.
    for v in ids:
        if v < ny and deg[v] == 0:
            raise AlgorithmDefectError(
                f"rewiring along {trail} left y{v} uncovered")
        path = index[v] or (v,)
        if not (path[0] < ny and path[-1] < ny):
            raise AlgorithmDefectError(
                f"rewiring produced a non-even component "
                f"{' '.join(map(g.name, path))}")

    if factor.max_path_length > old_max:
        raise AlgorithmDefectError(
            f"rewiring raised the maximum path length {old_max} -> "
            f"{factor.max_path_length}")
    if checked:
        # a fresh walk of F through every trail vertex reaches every path
        # the rewire changed; with the Y ends checked above, it also shows
        # that every trail X vertex kept factor degree 2
        problem = audit_ids(factor, ids)
        if problem:
            raise AlgorithmDefectError(
                f"after rewiring along {trail}: {problem}")


def solve(g: Bigraph, policy: Optional[TieBreakPolicy] = None,
          *, checked: bool = False,
          trace: Optional[TraceFn] = None) -> PathFactor:
    """Construct a spanning path factor of a simple (3,4)-biregular
    bigraph: build a pseudo path factor, then absorb uncovered Y vertices
    one augmenting trail at a time.

    Deterministic for a fixed (graph, policy).  Raises NotSimpleError or
    NotBiregularError on bad input; every internal guarantee is asserted
    and surfaces as AlgorithmDefectError if it ever fails.
    """
    if policy is None:
        policy = LexicographicPolicy()
    factor = build_pseudo_factor(g, policy, checked=checked, trace=trace)
    # Every rewire covers exactly its origin and nothing else (asserted
    # in rewire), so the ascending pool taken once after the scan
    # stays exact by popping each origin; from_pseudo re-checks the end.
    uncovered = factor.uncovered_ys()
    while uncovered:
        if factor.max_path_length < 4:
            raise AlgorithmDefectError(
                "factor misses a Y vertex yet has no component of "
                "length >= 4")
        y0 = uncovered.pop(policy.pick_index(len(uncovered)))
        trail = find_trail(factor, y0, policy)
        try:
            rewire(factor, trail, checked=checked)
        except ValueError as exc:
            raise AlgorithmDefectError(
                f"rewire rejected find_trail's own trail: {exc}") from None
        if trace:
            trace(f"augment y{y0} trail_len {len(trail.edges)} "
                  f"max_path {factor.max_path_length}")
    if checked:  # the result is read off the index; F gets its own check
        from .verify import validate_pseudo_factor
        report = validate_pseudo_factor(g, factor.edge_ids())
        if not report.valid:
            raise AlgorithmDefectError(
                f"validator rejected the augmented factor:\n"
                f"{report.render()}")
    try:
        result = PathFactor.from_pseudo(factor)
    except ValueError as exc:
        raise AlgorithmDefectError(f"augmentation ended {exc}") from None
    if checked:
        from .verify import validate_path_factor
        report = validate_path_factor(g, result)
        if not report.valid:
            raise AlgorithmDefectError(
                f"validator rejected the solved factor:\n{report.render()}")
    return result
