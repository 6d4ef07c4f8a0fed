"""Batch experiments over random instances.

Solves many generated instances and aggregates the path-length histogram,
the longest path seen, and how often every path has length at most 8 (the
empirically interesting threshold: a factor with all paths that short has
never failed to exist on any tested instance).

Everything except timing is a pure function of (k, trials, seed), also
under --jobs parallelism: trial t uses seed (seed + t) and results are
merged in trial order.  Timing is reported separately so deterministic
output can be compared byte for byte.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .augment import solve
from .errors import AlgorithmDefectError
from .generate import GenConfig, generate
from .verify import validate_path_factor


@dataclass(frozen=True)
class ExperimentSummary:
    k: int
    trials: int
    seed: int
    histogram: tuple[tuple[int, int], ...]  # (path length, count) ascending
    max_path_seen: int
    pct_all_paths_le_8: float
    mean_solve_time: float  # seconds, excluded from deterministic output

    def deterministic_text(self) -> str:
        """Stable report: identical bytes for identical (k, trials, seed)."""
        lines = [f"experiment: k={self.k} trials={self.trials} "
                 f"seed={self.seed}",
                 "  path length   count"]
        for length, count in self.histogram:
            lines.append(f"  {length:>11}   {count:>5}")
        lines.append(f"  max path seen: {self.max_path_seen}")
        lines.append(f"  trials with all paths <= 8: "
                     f"{self.pct_all_paths_le_8:.2f}%")
        lines.append(f"k={self.k}")
        lines.append(f"trials={self.trials}")
        lines.append(f"seed={self.seed}")
        for length, count in self.histogram:
            lines.append(f"hist_{length}={count}")
        lines.append(f"max_path_seen={self.max_path_seen}")
        lines.append(f"pct_all_paths_le_8={self.pct_all_paths_le_8:.2f}")
        return "\n".join(lines) + "\n"

    def timing_text(self) -> str:
        ms = 1000.0 * self.mean_solve_time
        return (f"mean solve time: {ms:.3f} ms\n"
                f"mean_solve_time_ms={ms:.3f}\n")


def _run_trial(args: tuple[int, int]) -> tuple[tuple[int, ...], float]:
    k, seed = args
    g = generate(GenConfig(k=k, seed=seed))
    start = time.perf_counter()
    factor = solve(g)
    elapsed = time.perf_counter() - start
    report = validate_path_factor(g, factor)
    if not report.valid:
        raise AlgorithmDefectError(
            f"solve emitted an invalid factor for k={k} seed={seed}:\n"
            f"{report.render()}")
    return factor.lengths(), elapsed


def run_experiment(k: int, trials: int, seed: int,
                   jobs: int = 1) -> ExperimentSummary:
    """Generate and solve `trials` instances, validating every factor."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    args = [(k, (seed + t) % 2**64) for t in range(trials)]
    # a fork-started pool launches all its workers at the first submit
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_trial(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, args,
                                    chunksize=max(1, trials // (4 * workers))))
    hist: Counter[int] = Counter()
    all_short = 0
    total_time = 0.0
    for lengths, elapsed in results:
        hist.update(lengths)
        if max(lengths) <= 8:
            all_short += 1
        total_time += elapsed
    return ExperimentSummary(
        k=k, trials=trials, seed=seed,
        histogram=tuple(sorted(hist.items())),
        max_path_seen=max(hist),
        pct_all_paths_le_8=100.0 * all_short / trials,
        mean_solve_time=total_time / trials)
