"""Command-line interface: generate, solve, verify, experiment.

Exit codes: 0 success (including a definitive "NO FACTOR EXISTS" oracle
answer and a clean verify); 1 invalid or non-simple input, generation
failure, or a failed verification; 2 bad arguments; 3 internal defect;
4 oracle size limit.

Factors written by `solve` are always re-validated first, and `--trace`
streams per-step progress to stderr so stdout stays parseable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .augment import solve
from .errors import AlgorithmDefectError, OracleSizeError, PathFactorError
from .experiment import run_experiment
from .generate import GenConfig, generate
from .graph import (_is_count, format_factor, parse_factor, parse_graph,
                    serialize_graph)
from .policy import make_policy
from .verify import brute_force_factor, validate_path_factor


def _int_arg(text: str) -> int:
    # the file format's rule for counts, ASCII digits only, plus a sign so
    # that a negative value gets its own message
    if not _is_count(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _seed(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _policy_arg(text: str):
    try:
        return make_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfactor",
        description="Spanning path factors with degree-3 endpoints in "
                    "(3,4)-biregular bipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="emit a random simple (3,4)-biregular instance")
    p_gen.add_argument("--k", type=_positive_int, required=True,
                       help="instance size: |Y| = 4k, |X| = 3k")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", type=Path, default=None,
                       help="output file (default stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_solve = sub.add_parser(
        "solve", help="construct a spanning path factor of a graph file")
    p_solve.add_argument("graph", type=Path)
    p_solve.add_argument("--policy", type=_policy_arg,
                         default=make_policy("lex"),
                         help="tie-break policy: lex or random:<seed> "
                              "(default lex)")
    p_solve.add_argument("--checked", action="store_true", help=(
        "audit what each step and rewire touched, all state at phase "
        "ends (a solve takes ~4x plain time, at k=100 and k=4000)"))
    p_solve.add_argument("--trace", action="store_true",
                         help="stream per-step progress to stderr")
    p_solve.add_argument("--out", type=Path, default=None,
                         help="output file (default stdout)")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="validate a factor file, or run the exhaustive "
                       "oracle (k <= 2)")
    p_verify.add_argument("graph", type=Path)
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--factor", type=Path,
                       help="factor file to validate against the graph")
    group.add_argument("--oracle", action="store_true",
                       help="exhaustively decide whether any factor exists")
    p_verify.set_defaults(func=_cmd_verify)

    p_exp = sub.add_parser(
        "experiment", help="solve many random instances and report "
                           "path-length statistics")
    p_exp.add_argument("--k", type=_positive_int, required=True)
    p_exp.add_argument("--trials", type=_positive_int, required=True)
    p_exp.add_argument("--seed", type=_seed, default=0)
    p_exp.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes, at most one per trial and "
                            "per CPU (results are merged in trial order, "
                            "so output is unchanged)")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate(GenConfig(k=args.k, seed=args.seed))
    _emit(serialize_graph(g), args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(args.graph.read_text())
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    factor = solve(g, args.policy, checked=args.checked, trace=trace)
    report = validate_path_factor(g, factor)
    if not report.valid:
        raise AlgorithmDefectError(
            f"solve produced an invalid factor:\n{report.render()}")
    _emit(format_factor(factor), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(args.graph.read_text())
    if args.oracle:
        factor = brute_force_factor(g)
        if factor is None:
            sys.stdout.write("NO FACTOR EXISTS\n")
        else:
            sys.stdout.write("FACTOR EXISTS\n")
            sys.stdout.write(format_factor(factor))
        return 0
    report = validate_path_factor(g, parse_factor(args.factor.read_text()))
    sys.stdout.write(report.render())
    return 0 if report.valid else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    summary = run_experiment(args.k, args.trials, args.seed, jobs=args.jobs)
    sys.stdout.write(summary.deterministic_text())
    sys.stderr.write(summary.timing_text())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AlgorithmDefectError as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 3
    except (PathFactorError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else escaping a command is a bug in this package
        print(f"defect: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
