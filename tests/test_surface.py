"""The public surface, pinned name by name.

A change that adds or removes a public name has to edit the lists below,
so every change to the surface is a deliberate one.
"""

from __future__ import annotations

import pytest

import pathfactor
from pathfactor import (AugmentingTrail, GenConfig, PathFactor,
                        PseudoPathFactor, ValidationReport, fixture)

ALL = {
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
}


def test_package_exports():
    assert set(pathfactor.__all__) == ALL
    assert len(pathfactor.__all__) == len(ALL)  # no name listed twice


def _instances():
    g = fixture("k34")
    return {
        "Bigraph": g,
        "ValidationReport": ValidationReport(()),
        "PseudoPathFactor": PseudoPathFactor(g),
        "AugmentingTrail": AugmentingTrail(g, (0, 3)),  # y0 x0 y1
        "PathFactor": PathFactor(g, ((2, 6, 0, 4, 1, 5, 3),)),
        "GenConfig": GenConfig(k=1, seed=0),
    }


@pytest.mark.parametrize("name, public", [
    ("Bigraph", {"edge_count", "name", "simple", "x_count", "y_count"}),
    ("ValidationReport", {"render", "valid", "violations"}),
    ("PseudoPathFactor", {"add_edge", "deg", "edge_count", "edge_ids", "graph",
                          "ids", "max_path_length", "path_count",
                          "remove_edge", "uncovered_ys"}),
    ("AugmentingTrail", {"edges", "graph"}),
    ("GenConfig", {"k", "seed"}),
    ("PathFactor", {"from_pseudo", "graph", "ids", "lengths"}),
])
def test_class_public_attributes(name, public):
    # an instance, so that attributes set in __init__ count as well
    obj = _instances()[name]
    assert {a for a in dir(obj) if not a.startswith("_")} == public
