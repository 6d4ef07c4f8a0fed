"""Layer tracing from outside the package.

Every layer boundary is a public name that some module of `pathfactor`
looks up at call time: a module global such as `pathfactor.cli.solve`,
or a method on a class such as `PseudoPathFactor.uncovered_ys`.  The
benchmark rebinds those names to thin wrappers while an operation runs
and puts the originals back afterwards, so nothing under `src/` changes
and an untraced operation runs exactly the code a user runs.

Two kinds of wrapper exist, because timing and counting disturb each
other differently:

* `SpanRecorder` records one span per call (name, parent span, start,
  end) and nothing else, so the timed spans stay cheap;
* `Counter` counts calls and candidate-pool sizes and inspects results,
  and is only used in a separate, untimed pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter
from typing import Callable, Iterator

# (span name, owner, attribute).  The owner is a module, or a class given
# as "module:Class"; each entry is one place where a layer's public
# function is looked up at call time.
SPAN_SITES = (
    ("graph.parse", "pathfactor.cli", "parse_graph"),
    ("graph.format", "pathfactor.cli", "format_factor"),
    ("cli.solve", "pathfactor.cli", "solve"),
    ("verify.validate", "pathfactor.cli", "validate_path_factor"),
    ("builder.scan", "pathfactor.augment", "build_pseudo_factor"),
    ("augment.find_trail", "pathfactor.augment", "find_trail"),
    ("augment.uncovered_ys", "pathfactor.factors:PseudoPathFactor",
     "uncovered_ys"),
    ("builder.audit", "pathfactor.builder", "check_state_invariants"),
    # `solve` and `build_pseudo_factor` import these lazily from the
    # module, so rebinding the module attribute reaches them.
    ("verify.validate", "pathfactor.verify", "validate_path_factor"),
    ("verify.validate_pseudo", "pathfactor.verify", "validate_pseudo_factor"),
    ("policy.pick", "pathfactor.policy:LexicographicPolicy", "pick"),
    ("policy.pick", "pathfactor.policy:LexicographicPolicy", "order"),
    ("policy.pick", "pathfactor.policy:RandomPolicy", "pick"),
    ("policy.pick", "pathfactor.policy:RandomPolicy", "order"),
    ("generate.generate", "pathfactor.experiment", "generate"),
    ("experiment.solve", "pathfactor.experiment", "solve"),
    ("verify.validate", "pathfactor.experiment", "validate_path_factor"),
)


@contextlib.contextmanager
def rebound(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Rebind owner.attr to each replacement, restoring the originals on
    exit even if the body raises."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def sites() -> list[tuple[str, object, str, Callable]]:
    """(span name, owner, attribute, original function) for each site."""
    out = []
    for name, owner_path, attr in SPAN_SITES:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        out.append((name, owner, attr, owner.__dict__[attr]))
    return out


class SpanRecorder:
    """Records spans as [name, parent index, start, end] in call order.

    A span's parent is the innermost wrapped call still open when it
    started; -1 means the operation's root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def clear(self) -> None:
        self.spans = []
        self._open = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, open_ = recorder.spans, recorder._open
            idx = len(spans)
            span = [name, open_[-1], 0.0, 0.0]
            spans.append(span)
            open_.append(idx)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()
        return traced

    def installed(self, site_list) -> contextlib.AbstractContextManager:
        return rebound([(owner, attr, self.wrap(name, fn))
                        for name, owner, attr, fn in site_list])

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive seconds and call count per span name.  The key ""
        holds the seconds covered by top-level spans, so the operation's
        self time is its duration minus that."""
        incl: dict[str, float] = {"": 0.0}
        calls: dict[str, int] = {}
        for name, parent, start, end in self.spans:
            incl[name] = incl.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                incl[""] += end - start
        return incl, calls


class Counter:
    """Counts for the untimed pass: calls per span name, candidates handed
    to the policy, and what the scan leaves behind."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.pool_items = 0
        self.scan_results: list[tuple[int, int]] = []  # (uncovered, max len)
        self._uncovered_ys = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter.calls[name] = counter.calls.get(name, 0) + 1
            if name == "policy.pick":
                # every caller hands over a sized container (list, set,
                # dict or range), so len() consumes nothing
                counter.pool_items += len(args[1])
            result = fn(*args, **kwargs)
            if name == "builder.scan":
                counter.scan_results.append(
                    (len(counter._uncovered_ys(result)),
                     result.max_path_length))
            return result
        return counted

    def installed(self, site_list) -> contextlib.AbstractContextManager:
        for name, owner, attr, fn in site_list:
            if name == "augment.uncovered_ys":
                self._uncovered_ys = fn  # unwrapped, so it is not counted
        return rebound([(owner, attr, self.wrap(name, fn))
                        for name, owner, attr, fn in site_list])


class StepCounter:
    """A `trace=` callback for `solve` that tallies scan cases and trails
    from the lines it is handed."""

    def __init__(self):
        self.cases: dict[str, int] = {}
        self.trail_edges: list[int] = []

    def __call__(self, line: str) -> None:
        fields = line.split()
        if fields[0] == "step":
            self.cases[fields[3]] = self.cases.get(fields[3], 0) + 1
        elif fields[0] == "augment":
            self.trail_edges.append(int(fields[fields.index("trail_len") + 1]))
