"""The pathfactor benchmark: one command, four workloads.

    python3 perfbench/run.py --workload solve-lex --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and writes its instance and factor files to a temporary directory
under the checkout that it removes on exit.

A run sets up (imports the package, generates and serializes the
workload's instance from `--seed`, makes one warm-up call), then repeats
the workload's operation for `--seconds` seconds.  Every output is
checked: factor files are re-parsed and re-validated independently of
the CLI's own check, experiment summaries are checked for internal
consistency, and every output's sha256 must equal that of the warm-up
output and, for seeds listed in `digests.json`, the digest recorded
from the package as it was when this benchmark was added.

Times are wall seconds rescaled to a fixed machine speed, which
`speed.py` samples during every timed interval; the unscaled wall
medians are printed too.

With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json.  With `--trace 1` it reports the per-layer metrics: a
counting pass runs once with a `trace=` callback and counting wrappers,
then untraced and traced operations alternate so that the tracing
overhead is measured in the same process.  `design.json` says what
each metric means and which end-to-end metric it should move.

Human-readable lines come first on stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_ROUNDS = 3          # input generations per set-up; the median counts
EXPERIMENT_K = 20
EXPERIMENT_TRIALS = 100   # trials per run_experiment call


class CheckFailed(Exception):
    pass


class Timed:
    """Wall seconds of a timed interval and the factor that turns wall
    seconds inside it into rescaled seconds (net of sampling time)."""

    __slots__ = ("wall", "factor", "totals")

    def __init__(self, wall: float, speed: SpeedSampler):
        self.wall = wall
        self.factor = (wall - speed.spent) * speed.scale / wall
        self.totals = None  # span totals of a traced operation

    @property
    def seconds(self) -> float:
        return self.wall * self.factor


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads -------------------------------------------------------------


class SolveWorkload:
    """One in-process `pathfactor solve` call on a generated instance."""

    unit_count = 1  # solves per operation

    def __init__(self, k: int, extra: list[str]):
        self.k = k
        self.extra = extra

    def setup(self, pf, seed: int, tmp: Path) -> dict[str, list[float]]:
        """Make the instance file SETUP_ROUNDS times; rescaled seconds of
        each round and of its generate and serialize parts."""
        self.pf = pf
        self.graph_path = tmp / "g.bbg"
        self.out_path = tmp / "g.factor"
        self.argv = (["solve", str(self.graph_path), "--out",
                      str(self.out_path)]
                     + [a.format(seed=seed) for a in self.extra])
        times: dict[str, list[float]] = {"inputs": [], "generate": [],
                                         "serialize": []}
        for _ in range(SETUP_ROUNDS):
            with SpeedSampler() as speed:
                t0 = time.perf_counter()
                g = pf.generate(pf.GenConfig(k=self.k, seed=seed))
                t1 = time.perf_counter()
                text = pf.serialize_graph(g)
                t2 = time.perf_counter()
                self.graph_path.write_text(text)
                t3 = time.perf_counter()
            factor = Timed(t3 - t0, speed).factor
            times["inputs"].append((t3 - t0) * factor)
            times["generate"].append((t1 - t0) * factor)
            times["serialize"].append((t2 - t1) * factor)
        self.graph = g
        return times

    def run(self) -> str:
        if self.out_path.exists():
            self.out_path.unlink()
        code = self.pf.main(self.argv)
        if code != 0:
            raise CheckFailed(f"solve exited with code {code}")
        return self.out_path.read_text()

    def check(self, text: str) -> int:
        """Validate a factor file; returns its longest path length."""
        paths = self.pf.parse_factor(text)
        report = self.pf.validate_path_factor(self.graph, paths)
        if not report.valid:
            raise CheckFailed(f"invalid factor:\n{report.render()}")
        return max(len(p) - 1 for p in paths)


class ExperimentWorkload:
    """One `run_experiment(k=20, trials=100, seed, jobs=1)` call."""

    unit_count = EXPERIMENT_TRIALS  # trials per operation

    def setup(self, pf, seed: int, tmp: Path) -> dict[str, list[float]]:
        self.pf = pf
        self.seed = seed
        return {"inputs": [0.0]}  # instances are generated inside the call

    def run(self) -> str:
        self.summary = self.pf.run_experiment(
            EXPERIMENT_K, EXPERIMENT_TRIALS, self.seed, jobs=1)
        return self.summary.deterministic_text()

    def check(self, text: str) -> int:
        s = self.summary
        hist = dict(s.histogram)
        # k paths per trial covering 7k vertices, so 6k edges per trial
        if sum(hist.values()) != s.k * s.trials:
            raise CheckFailed(f"{sum(hist.values())} paths, want "
                              f"{s.k * s.trials}")
        if sum(n * c for n, c in hist.items()) != 6 * s.k * s.trials:
            raise CheckFailed("path lengths do not add up to 6k per trial")
        if any(n % 2 for n in hist) or s.max_path_seen != max(hist):
            raise CheckFailed("odd path length or wrong max_path_seen")
        if f"max_path_seen={s.max_path_seen}\n" not in text:
            raise CheckFailed("deterministic text disagrees with summary")
        return s.max_path_seen


WORKLOADS = {
    "solve-lex": lambda: SolveWorkload(4000, []),
    "solve-random": lambda: SolveWorkload(4000, ["--policy",
                                                 "random:{seed}"]),
    "solve-checked": lambda: SolveWorkload(100, ["--checked"]),
    "experiment-small": ExperimentWorkload,
}


# -- the run ---------------------------------------------------------------


class Run:
    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]()
        recorded = json.loads((HERE / "digests.json").read_text())
        self.digest = recorded.get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.max_path_len = None

    def op(self) -> Timed | None:
        """Run and check one operation; None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            with SpeedSampler() as speed:
                t0 = time.perf_counter()
                text = self.workload.run()
                wall = time.perf_counter() - t0
            digest = sha256(text)
            if self.digest is not None and digest != self.digest:
                raise CheckFailed(f"output digest {digest} differs from "
                                  f"{self.digest}")
            longest = self.workload.check(text)
        except Exception as exc:  # every failure is counted and reported
            self.failed += 1
            print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.digest = digest
        self.max_path_len = longest
        return Timed(wall, speed)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"failed: {message}", file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it.  With fewer than eleven samples none has, and the
    fastest sample stands in (its percentile is reported)."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def measure(run: Run, seconds: float, recorder=None, site_list=None
            ) -> tuple[list[Timed], list[Timed]]:
    """Repeat the operation for `seconds`, at least once of each kind;
    with a recorder, alternate untraced and traced operations.  Returns
    both lists of successful samples."""
    plain: list[Timed] = []
    traced: list[Timed] = []
    deadline = time.perf_counter() + seconds
    minimum = 1 if recorder is None else 2
    tracing = False
    ops = 0
    while time.perf_counter() < deadline or ops < minimum:
        ops += 1
        if tracing:
            recorder.clear()
            with recorder.installed(site_list):
                sample = run.op()
            if sample is not None:
                sample.totals = recorder.totals()
                traced.append(sample)
        else:
            sample = run.op()
            if sample is not None:
                plain.append(sample)
        tracing = recorder is not None and not tracing
    return plain, traced


def counting_pass(run: Run, site_list):
    """One operation with counting wrappers and a trace= callback."""
    steps = tracer.StepCounter()

    def with_trace(fn):
        def solve(g, policy=None, *, checked=False, trace=None):
            return fn(g, policy, checked=checked, trace=steps)
        return solve

    sites = [(name, owner, attr,
              with_trace(fn) if name in ("cli.solve", "experiment.solve")
              else fn)
             for name, owner, attr, fn in site_list]
    counts = tracer.Counter()
    with counts.installed(sites):
        ok = run.op() is not None
    return counts, steps, ok


def check_counts(counts, traced: list[Timed]) -> None:
    """Span counts of every traced operation must equal the counting
    pass's call counts: tracing must not change what the program does."""
    for sample in traced:
        span_calls = sample.totals[1]
        for name in ("augment.find_trail", "policy.pick", "builder.scan",
                     "verify.validate_pseudo", "generate.generate"):
            if span_calls.get(name, 0) != counts.calls.get(name, 0):
                raise CheckFailed(
                    f"{name}: {span_calls.get(name, 0)} calls traced, "
                    f"{counts.calls.get(name, 0)} counted")


def end_to_end(run: Run, setup_s: float, plain: list[Timed]) -> dict:
    units = run.workload.unit_count
    per_unit = [s.seconds / units for s in plain]
    median = statistics.median(per_unit)
    tail_s, tail_pct = tail(per_unit)
    print(f"solve_s median of {len(per_unit)} samples; solve_s.tail is "
          f"p{tail_pct:.1f} of the same samples")
    print(f"wall solve_s {statistics.median(s.wall for s in plain) / units!r}"
          f" s, not rescaled")
    return {
        "setup_s": setup_s,
        "solve_s": median,
        "solve_s.tail": tail_s,
        "trials_per_s": 1.0 / median,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, setup: dict, counts, steps, plain: list[Timed],
              traced: list[Timed]) -> dict:
    def med(fn) -> float:
        return statistics.median(fn(s.totals[0]) * s.factor for s in traced)

    def incl(name):
        return lambda totals: totals.get(name, 0.0)

    def augment(totals):
        return (totals.get("cli.solve", 0.0)
                + totals.get("experiment.solve", 0.0)
                - totals.get("builder.scan", 0.0))

    experiment = isinstance(run.workload, ExperimentWorkload)
    find_trail = incl("augment.find_trail")
    uncovered = incl("augment.uncovered_ys")
    scans = counts.scan_results
    calls = counts.calls
    m = {
        "cli.self_s": 0.0 if experiment else statistics.median(
            (s.wall - s.totals[0][""]) * s.factor for s in traced),
        "graph.parse_s": med(incl("graph.parse")),
        "graph.format_s": med(incl("graph.format")),
        "graph.serialize_s": (0.0 if experiment
                              else statistics.median(setup["serialize"])),
        "generate.generate_s": (med(incl("generate.generate")) if experiment
                                else statistics.median(setup["generate"])),
        "generate.calls": (calls.get("generate.generate", 0) if experiment
                           else 1),
        "builder.scan_s": med(incl("builder.scan")),
        "builder.steps": sum(steps.cases.values()),
        "builder.case_1": steps.cases.get("1", 0),
        "builder.case_2": steps.cases.get("2", 0),
        "builder.case_3a": steps.cases.get("3a", 0),
        "builder.case_3b": steps.cases.get("3b", 0),
        "builder.uncovered_after_scan": sum(u for u, _ in scans),
        "builder.audit_s": med(incl("builder.audit")),
        "augment.augment_s": med(augment),
        "augment.find_trail_s": med(find_trail),
        "augment.uncovered_ys_s": med(uncovered),
        "augment.rewire_s": med(lambda t: augment(t) - find_trail(t)
                                - uncovered(t)),
        "augment.trails": len(steps.trail_edges),
        "augment.trail_edges_mean": (statistics.fmean(steps.trail_edges)
                                     if steps.trail_edges else 0.0),
        "augment.max_path_after_scan": max(length for _, length in scans),
        "policy.pick_calls": calls.get("policy.pick", 0),
        "policy.pick_s": med(incl("policy.pick")),
        "policy.pool_items": counts.pool_items,
        "verify.validate_s": med(incl("verify.validate")),
        "verify.validate_pseudo_s": med(incl("verify.validate_pseudo")),
        "verify.validate_pseudo_calls": calls.get("verify.validate_pseudo", 0),
        "experiment.solve_s": med(incl("experiment.solve")),
        "trace.overhead": (statistics.median(s.seconds for s in traced)
                           / statistics.median(s.seconds for s in plain)),
        "max_path_len": run.max_path_len,
    }
    print(f"per-layer times: median of {len(traced)} traced operations; "
          f"trace.overhead against {len(plain)} untraced ones")
    return m


def context() -> dict:
    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        if read(index / "type") != "Instruction":
            caches[f"L{read(index / 'level')}"] = read(index / "size")
    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "l2": caches.get("L2", ""),
            "l3": caches.get("L3", ""),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def import_package():
    """Import the package from the checkout's src/; returns a namespace
    of the functions the benchmark calls, taken before any rebinding."""
    src = ROOT / "src"
    if not (src / "pathfactor" / "__init__.py").is_file():
        raise ImportError(f"no pathfactor package under {src}")
    sys.path.insert(0, str(src))
    import pathfactor
    import pathfactor.cli

    class PF:
        main = pathfactor.cli.main
        GenConfig = pathfactor.GenConfig
        generate = pathfactor.generate
        serialize_graph = pathfactor.serialize_graph
        parse_factor = pathfactor.parse_factor
        validate_path_factor = pathfactor.validate_path_factor
        run_experiment = pathfactor.run_experiment
    return PF


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    design = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in design["per_layer" if args.trace else "end_to_end"]}
    try:
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            pf = import_package()
            wall = time.perf_counter() - t0
    except ImportError as exc:
        print(f"error: cannot import pathfactor: {exc}", file=sys.stderr)
        return 2
    import_s = Timed(wall, speed)

    run = Run(args.workload, args.seed)
    print(json.dumps({"context": context(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup = run.workload.setup(pf, args.seed, Path(tmp))
        warmup = run.op()
        if args.trace:
            site_list = tracer.sites()
            counts, steps, ok = counting_pass(run, site_list)
            plain, traced = measure(run, args.seconds,
                                    tracer.SpanRecorder(), site_list)
            if not (ok and traced):
                run.fail("no counting or traced operation succeeded")
            else:
                try:
                    check_counts(counts, traced)
                except CheckFailed as exc:
                    run.fail(str(exc))
        else:
            plain, _ = measure(run, args.seconds)

    correct = run.failed == 0 and warmup is not None and bool(plain)
    metrics = {}
    if correct:
        if args.trace:
            metrics = per_layer(run, setup, counts, steps, plain, traced)
        else:
            setup_s = (import_s.seconds + statistics.median(setup["inputs"])
                       + warmup.seconds)
            metrics = end_to_end(run, setup_s, plain)
        print(f"fail_ratio {run.failed / run.attempted} "
              f"({run.failed} of {run.attempted} operations)")
        print(f"max_path_len {run.max_path_len}")
        print(f"output sha256 {run.digest}")
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"error: no value for {missing}", file=sys.stderr)
            return 3
        for name in units:
            print(f"{name} {metrics[name]!r} {units[name]}")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
