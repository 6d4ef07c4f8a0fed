"""Walk through both solver phases on one random instance.

Phase 1 scans Y vertices, committing each one's three edges, and ends
with every X vertex interior to a path; some Y vertices may be left
isolated.  Phase 2 absorbs them one alternating trail at a time.  Run:

    python3 demos/01_build_and_augment.py [seed]
"""

import sys

from pathfactor import (GenConfig, LexicographicPolicy, brute_force_trails,
                        build_pseudo_factor, find_trail, format_factor,
                        generate, rewire, solve, validate_path_factor)

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4
g = generate(GenConfig(k=2, seed=seed))
print(f"instance: {g} (seed {seed})")

print("\n-- phase 1: scanning every Y vertex --")
factor = build_pseudo_factor(g, trace=print)
print(f"\npseudo path factor: {factor.path_count} paths, "
      f"max length {factor.max_path_length}")
for p in factor.ids:  # vertex ids; g.name names them
    print("  " + " ".join(map(g.name, p)))

uncovered = factor.uncovered_ys()
if not uncovered:
    print("\nevery Y vertex is already covered; phase 2 has nothing to do "
          "(try another seed)")
else:
    print(f"\nuncovered: {' '.join(map(g.name, uncovered))}")
    print("\n-- phase 2: one trail swap per uncovered vertex --")
    policy = LexicographicPolicy()
    while factor.uncovered_ys():
        y0 = policy.pick(factor.uncovered_ys())  # a Y index
        options = brute_force_trails(factor, y0)
        trail = find_trail(factor, y0)
        print(f"y{y0}: {len(options)} possible trails, taking {trail}")
        rewire(factor, trail)
        print(f"   max path length now {factor.max_path_length}")

print("\n-- result --")
solved = solve(g)
print(format_factor(solved), end="")
print("validator says:", validate_path_factor(g, solved).render(), end="")
