"""Run the benchmark (end-to-end metrics) over several seeds and
summarize the spread.

    python3 perfbench/baseline.py --seeds 0-9 --sets 2 --seconds 25 \
        --out baseline.json

Each set runs every workload once per seed, one process at a time, in
the order seed by seed, and prints each run's metrics with their units.
For each end-to-end metric the summary gives the median over seeds and
the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.
Between two sets it also gives the ratio of the medians.
The output file holds every run's metrics and its output digest, so it
can serve as the parent's numbers for a later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    def field(prefix: str, index: int):
        return next((line.split()[index] for line in lines
                     if line.startswith(prefix)), None)

    wall = field("wall solve_s ", 2)
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "correct": result.get("correct"),
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "digest": field("output sha256 ", -1),
            "wall_solve_s": float(wall) if wall else None,
            "metrics": {k: v["value"]
                        for k, v in result.get("metrics", {}).items()},
            "units": {k: v["unit"]
                      for k, v in result.get("metrics", {}).items()},
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict], n_sets: int) -> dict:
    out: dict = {}
    for run in runs:
        per_metric = out.setdefault(run["workload"], {})
        values = dict(run["metrics"])
        if run["wall_solve_s"] is not None:
            values["wall_solve_s (not rescaled)"] = run["wall_solve_s"]
        for name, value in values.items():
            per_metric.setdefault(name, [[] for _ in range(n_sets)])
            per_metric[name][run["set"]].append(value)
    summary = {}
    for workload, metrics in out.items():
        for name, sets in metrics.items():
            sets = [v for v in sets if v]
            row = {"median": [statistics.median(v) for v in sets],
                   "spread": [spread(v) for v in sets if len(v) >= 2]}
            if len(sets) == 2:
                row["median_ratio"] = row["median"][1] / row["median"][0]
            summary.setdefault(workload, {})[name] = row
    return summary


def main(argv=None) -> int:
    design = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in design["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=design["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs = []
    for set_no in range(args.sets):
        for seed in args.seeds:
            for workload in args.workloads.split(","):
                t0 = time.perf_counter()
                run = one_run(workload, seed, args.seconds)
                run["set"] = set_no
                run["wall_s"] = time.perf_counter() - t0
                runs.append(run)
                print(f"set {set_no} {workload} seed {seed}: exit "
                      f"{run['exit']} {run['wall_s']:.1f}s "
                      + " ".join(f"{k}={v:.4g} {run['units'][k]}"
                                 for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
                args.out.write_text(json.dumps(
                    {"seconds": args.seconds,
                     "summary": summarize(runs, args.sets), "runs": runs},
                    indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
