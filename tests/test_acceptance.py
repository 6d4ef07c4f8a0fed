"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest shows them for failing criteria only.
"""

from __future__ import annotations

import time

import pytest

from pathfactor import (Bigraph, GenConfig, LexicographicPolicy,
                        NotBiregularError, NotSimpleError,
                        brute_force_factor, brute_force_trails,
                        build_pseudo_factor, check_biregular, find_trail,
                        fixture, generate, rewire, solve,
                        validate_path_factor, validate_pseudo_factor)
from pathfactor.cli import main
from pathfactor.experiment import run_experiment
from conftest import edge_pairs


def report(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_checked_builds():
    """200 instances per k in {1,2,3,5,10,20}: checked builds validate."""
    start = time.perf_counter()
    built = 0
    for k in (1, 2, 3, 5, 10, 20):
        for seed in range(200):
            g = generate(GenConfig(k=k, seed=seed))
            factor = build_pseudo_factor(g, checked=True)
            rep = validate_pseudo_factor(g, factor.edge_ids())
            assert rep.valid, f"k={k} seed={seed}:\n{rep.render()}"
            built += 1
    elapsed = time.perf_counter() - start
    report(1, built == 1200 and elapsed < 30.0,
           f"{built} checked builds validated in {elapsed:.1f}s (budget 30s)")


def test_criterion_2_augmentation_guarantees():
    """Each rewire covers exactly one vertex, never lengthens the longest
    path, and on k <= 2 only emits trails the exhaustive search predicts."""
    policy = LexicographicPolicy()
    trails_checked = 0
    for seed in range(100):
        g = generate(GenConfig(k=2, seed=seed))
        factor = build_pseudo_factor(g)
        while factor.uncovered_ys():
            assert factor.max_path_length >= 4
            y0 = policy.pick(factor.uncovered_ys())
            legal = brute_force_trails(factor, y0)
            trail = find_trail(factor, y0, policy)
            assert trail in legal, (seed, trail)
            before_uncovered = len(factor.uncovered_ys())
            before_max = factor.max_path_length
            rewire(factor, trail, checked=True)
            assert len(factor.uncovered_ys()) == before_uncovered - 1
            assert factor.max_path_length <= before_max
            trails_checked += 1
    report(2, trails_checked > 0,
           f"{trails_checked} emitted trails over 100 seeds were all "
           f"enumerated, covered +1 each, max length never grew")


def test_criterion_3_solve_scales():
    """1000 random instances solve and validate; k=1000 solves in 5s."""
    failures = 0
    count = 0
    for k in range(1, 21):
        for seed in range(50):
            g = generate(GenConfig(k=k, seed=1000 + seed))
            factor = solve(g)
            if not validate_path_factor(g, factor).valid:
                failures += 1
            count += 1
    g = generate(GenConfig(k=1000, seed=0))
    start = time.perf_counter()
    factor = solve(g)
    elapsed = time.perf_counter() - start
    big_ok = validate_path_factor(g, factor).valid and elapsed < 5.0
    report(3, failures == 0 and count == 1000 and big_ok,
           f"{count} instances (k 1..20) solved with {failures} failures; "
           f"k=1000 solved and validated in {elapsed:.2f}s (budget 5s)")


def test_criterion_4_counterexample():
    """The biregular multigraph with no factor is rejected by the solver
    and certified factor-free by the oracle."""
    start = time.perf_counter()
    cx = fixture("counterexample")
    assert check_biregular(cx) == 1
    with pytest.raises(NotSimpleError):
        solve(cx)
    witness = brute_force_factor(cx)
    elapsed = time.perf_counter() - start
    report(4, witness is None and elapsed < 1.0,
           f"solver refused the multigraph and the oracle certified no "
           f"factor exists in {elapsed:.3f}s (budget 1s)")


def test_criterion_5_oracle_agreement():
    """On 100 seeded k=2 instances the oracle and the solver agree."""
    agree = 0
    for seed in range(100):
        g = generate(GenConfig(k=2, seed=seed))
        witness = brute_force_factor(g)
        solved = solve(g)
        if (witness is not None
                and validate_path_factor(g, witness).valid
                and validate_path_factor(g, solved).valid):
            agree += 1
    report(5, agree == 100,
           f"oracle found a factor and agreed with solve on {agree}/100 "
           f"k=2 instances")


def test_criterion_6_shape_checks():
    """check_biregular is exact on generator output and rejects malformed
    graphs; the long-component guarantee never failed under test."""
    for k in (1, 2, 5, 10):
        for seed in (0, 7):
            assert check_biregular(generate(GenConfig(k=k, seed=seed))) == k
    k34_edges = edge_pairs(fixture("k34"))
    malformed = [
        Bigraph(5, 3, [(0, 0)]),                      # |Y| not 4k
        Bigraph(4, 4, k34_edges),                     # |X| mismatch
        Bigraph(4, 2, [(0, 0)]),                      # |X| mismatch
        Bigraph(12, 3, k34_edges),                    # parts from different k
        Bigraph(8, 3, [(0, 0)]),                      # |X| mismatch
        Bigraph(4, 3, []),                            # all degrees 0
        Bigraph(4, 3, k34_edges[:-1]),                # y3 degree 2
        Bigraph(4, 3, list(k34_edges) + [(0, 0)]),    # y0 degree 4
        Bigraph(4, 3, list(k34_edges) * 2),           # all degrees doubled
        Bigraph(4, 3, [(y, x) for y, x in k34_edges   # moved edge
                       if (y, x) != (3, 2)] + [(0, 2)]),
    ]
    rejected = 0
    for g in malformed:
        try:
            check_biregular(g)
        except NotBiregularError:
            rejected += 1
    # the long-component assertion is always-on inside solve; exercise the
    # uncovered path once more and let any breach raise
    for seed in range(20):
        solve(generate(GenConfig(k=3, seed=seed)), checked=True)
    report(6, rejected == len(malformed),
           f"generator outputs measured exactly, {rejected}/10 malformed "
           f"graphs rejected, no internal guarantee fired")


def test_criterion_7_byte_identical_cli(tmp_path, capsys):
    """generate, solve and experiment print identical bytes on repeats."""
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    graph_file = tmp_path / "g.bbg"
    gen = [run("generate", "--k", "4", "--seed", "21") for _ in range(2)]
    graph_file.write_text(gen[0])
    solves = [run("solve", str(graph_file)) for _ in range(2)]
    rand = [run("solve", str(graph_file), "--policy", "random:40")
            for _ in range(2)]
    exps = [run("experiment", "--k", "2", "--trials", "10", "--seed", "3")
            for _ in range(2)]
    ok = (gen[0] == gen[1] and solves[0] == solves[1]
          and rand[0] == rand[1] and exps[0] == exps[1])
    report(7, ok, "generate, solve (lex and random:40) and experiment "
                  "stdout were byte-identical across repeat runs")


def test_criterion_8_experiment_runs():
    """Experiments at k in {5, 20} x 200 trials finish deterministically
    under budget and report the conjecture telemetry."""
    start = time.perf_counter()
    texts = []
    for k in (5, 20):
        summary = run_experiment(k=k, trials=200, seed=1)
        texts.append(summary.deterministic_text())
        assert f"k={k}" in texts[-1]
    elapsed = time.perf_counter() - start
    repeat = run_experiment(k=5, trials=200, seed=1).deterministic_text()
    fields = all("pct_all_paths_le_8=" in t and "max_path_seen=" in t
                 for t in texts)
    report(8, fields and repeat == texts[0] and elapsed < 60.0,
           f"both experiments reported the telemetry deterministically "
           f"in {elapsed:.1f}s (budget 60s)")
