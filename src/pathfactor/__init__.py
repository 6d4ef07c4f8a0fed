"""Spanning path factors with degree-3 endpoints in (3,4)-biregular
bipartite graphs.

Every simple (3,4)-biregular bigraph admits a partition of its vertices
into paths whose endpoints all lie on the degree-3 side.  This package
constructs one in two phases: a greedy scan builds a pseudo path factor
(every degree-4 vertex interior to a path), then alternating-trail swaps
absorb the remaining uncovered vertices one at a time.  Validators, an
exhaustive oracle for small instances, a seeded instance generator and an
experiment harness round out the library; `pathfactor --help` exposes the
same via the command line.
"""

from .augment import find_trail, rewire, solve
from .builder import build_pseudo_factor
from .errors import (AlgorithmDefectError, GenerationError, GraphFormatError,
                     NotBiregularError, NotSimpleError, OracleSizeError,
                     PathFactorError)
from .experiment import ExperimentSummary, run_experiment
from .factors import AugmentingTrail, PathFactor, PseudoPathFactor
from .generate import GenConfig, fixture, generate
from .graph import (Bigraph, check_biregular, format_factor, parse_factor,
                    parse_graph, serialize_graph)
from .policy import (LexicographicPolicy, RandomPolicy, TieBreakPolicy,
                     make_policy)
from .verify import (ValidationReport, Violation, brute_force_factor,
                     brute_force_trails, validate_path_factor,
                     validate_pseudo_factor)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmDefectError", "AugmentingTrail", "Bigraph",
    "ExperimentSummary", "GenConfig", "GenerationError", "GraphFormatError",
    "LexicographicPolicy", "NotBiregularError", "NotSimpleError",
    "OracleSizeError", "PathFactor", "PathFactorError", "PseudoPathFactor",
    "RandomPolicy", "TieBreakPolicy", "ValidationReport", "Violation",
    "brute_force_factor", "brute_force_trails", "build_pseudo_factor",
    "check_biregular", "find_trail", "fixture", "format_factor", "generate",
    "make_policy", "parse_factor", "parse_graph", "rewire", "run_experiment",
    "serialize_graph", "solve", "validate_path_factor",
    "validate_pseudo_factor",
]
