"""Raise-guard mutation probe: does any test notice that a guard is gone?

    python tools/mutants.py src/pathfactor/builder.py [--focus TEST ...]

A raise-guard is an `if` statement whose body raises.  For each one in
the module, in turn, the probe makes the guard's test read `False` in a
copy of the checkout and runs the focused tests on that copy (default:
tests/test_<module>.py), stopping at the first failure.  If they all
pass, it runs the whole Tier-1 suite.  A guard whose mutant passes Tier-1
survives: no test notices it is gone.  The probe prints one line per
guard and the counts.  Run it by hand from the root of a checkout: it
runs the suite once for each guard the focused tests miss.  The copy is
made under a fresh temporary directory (it honours TMPDIR) and removed
on exit.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["--continue-on-collection-errors"]


def guards(source: bytes) -> list[tuple[int, int, int]]:
    """(line, start, end) of each raise-guard's test, as byte offsets
    into source, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
                isinstance(stmt, ast.Raise) for stmt in node.body):
            test = node.test
            found.append((test.lineno,
                          starts[test.lineno - 1] + test.col_offset,
                          starts[test.end_lineno - 1] + test.end_col_offset))
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
    args = parser.parse_args()
    rel = args.module.resolve().relative_to(ROOT)
    focus = args.focus or [f"tests/test_{rel.stem}.py"]
    source = (ROOT / rel).read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if not passes(copy, TIER1):
            print("Tier-1 fails without a mutant; nothing to probe")
            return 2
        survivors = []
        found = guards(source)
        for line, start, end in found:
            (copy / rel).write_bytes(source[:start] + b"False" + source[end:])
            alive = passes(copy, focus) and passes(copy, TIER1)
            text = " ".join(source[start:end].decode().split())
            print(f"{rel}:{line}: {'SURVIVES' if alive else 'killed'}: "
                  f"if {text}", flush=True)
            if alive:
                survivors.append(line)
        print(f"{len(found) - len(survivors)} of {len(found)} guards killed; "
              f"surviving lines: {survivors or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
