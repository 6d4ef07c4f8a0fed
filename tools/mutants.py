"""Mutation probe: does any test notice a guard gone or a comparison flipped?

    python tools/mutants.py src/pathfactor/builder.py [--focus TEST ...]
    python tools/mutants.py src/pathfactor/verify.py --compare

A raise-guard is an `if` statement whose body raises.  By default, for
each one in the module, in turn, the probe makes the guard's test read
`False` in a copy of the checkout and runs the focused tests on that copy
(default: tests/test_<module>.py), stopping at the first failure.  If
they all pass, it runs the whole Tier-1 suite.  A guard whose mutant
passes Tier-1 survives: no test notices it is gone.  With --compare the
mutants are the module's comparison operators instead, each flipped in
turn to its negation: == and !=, < and >=, > and <=, is and is not, in
and not in.  The probe prints one line per mutant and the counts.  Run it
by hand from the root of a checkout: it runs the suite once for each
mutant the focused tests miss.  The copy is made under a fresh temporary
directory (it honours TMPDIR) and removed on exit.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["--continue-on-collection-errors"]

# each comparison operator: how it reads in source, and its negation
FLIPS = {
    ast.Eq: (rb"==", b"!="), ast.NotEq: (rb"!=", b"=="),
    ast.Lt: (rb"<(?!=)", b">="), ast.GtE: (rb">=", b"<"),
    ast.Gt: (rb">(?!=)", b"<="), ast.LtE: (rb"<=", b">"),
    ast.Is: (rb"\bis\b", b"is not"), ast.IsNot: (rb"\bis\s+not\b", b"is"),
    ast.In: (rb"\bin\b", b"not in"), ast.NotIn: (rb"\bnot\s+in\b", b"in"),
}


def _offsets(source: bytes):
    """A function from an AST node to its (start, end) byte offsets in
    source."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return lambda node: (starts[node.lineno - 1] + node.col_offset,
                         starts[node.end_lineno - 1] + node.end_col_offset)


def _words(text: bytes) -> str:
    return " ".join(text.decode().split())


def guards(source: bytes) -> list[tuple[int, int, int, bytes, str]]:
    """(line, start, end, replacement, label) of each raise-guard's test,
    as byte offsets into source, in source order."""
    span, found = _offsets(source), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
                isinstance(stmt, ast.Raise) for stmt in node.body):
            start, end = span(node.test)
            found.append((node.test.lineno, start, end, b"False",
                          f"if {_words(source[start:end])}"))
    return sorted(found)


def comparisons(source: bytes) -> list[tuple[int, int, int, bytes, str]]:
    """(line, start, end, replacement, label) of each comparison
    operator, as byte offsets into source, in source order; the label
    shows the whole comparison before and after the flip."""
    span, found = _offsets(source), []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        first, last = span(node)
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            pattern, flipped = FLIPS[type(op)]
            lo, hi = span(a)[1], span(b)[0]
            at = re.search(pattern, source[lo:hi])
            start, end = lo + at.start(), lo + at.end()
            after = source[first:start] + flipped + source[end:last]
            found.append((source.count(b"\n", 0, start) + 1, start, end,
                          flipped, f"{_words(source[first:last])} -> "
                                   f"{_words(after)}"))
    return sorted(found)


def passes(copy: Path, args: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *args], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("--focus", nargs="*")
    parser.add_argument("--compare", action="store_true",
                        help="flip comparison operators, not raise-guards")
    args = parser.parse_args()
    rel = args.module.resolve().relative_to(ROOT)
    focus = args.focus or [f"tests/test_{rel.stem}.py"]
    source = (ROOT / rel).read_bytes()
    found = comparisons(source) if args.compare else guards(source)
    kind = "comparisons" if args.compare else "guards"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if not passes(copy, TIER1):
            print("Tier-1 fails without a mutant; nothing to probe")
            return 2
        survivors = []
        for line, start, end, replacement, label in found:
            (copy / rel).write_bytes(source[:start] + replacement
                                     + source[end:])
            alive = passes(copy, focus) and passes(copy, TIER1)
            print(f"{rel}:{line}: {'SURVIVES' if alive else 'killed'}: "
                  f"{label}", flush=True)
            if alive:
                survivors.append(line)
        print(f"{len(found) - len(survivors)} of {len(found)} {kind} killed; "
              f"surviving lines: {survivors or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
