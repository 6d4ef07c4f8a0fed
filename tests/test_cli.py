from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathfactor
from pathfactor import (GenConfig, PathFactor, fixture, generate,
                        serialize_graph)
from pathfactor.cli import main

K34 = serialize_graph(fixture("k34"))
CX = serialize_graph(fixture("counterexample"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_stdout(capsys):
    code, out, err = run(capsys, "generate", "--k", "2", "--seed", "3")
    assert code == 0
    assert out.startswith("p bbg 8 6 24\n")
    again = run(capsys, "generate", "--k", "2", "--seed", "3")
    assert again == (code, out, err)


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "g.bbg"
    code, out, _ = run(capsys, "generate", "--k", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == K34


def test_generate_bad_k(capsys):
    assert run(capsys, "generate", "--k", "0")[0] == 2
    assert run(capsys, "generate", "--k", "two")[0] == 2
    assert run(capsys, "generate", "--k", "1", "--seed", "-1")[0] == 2
    # integer arguments follow the file format's rule: ASCII digits only,
    # so no non-ASCII digit, underscore or surrounding space
    for argv in (("generate", "--k", "\u0663"),
                 ("generate", "--k", "1", "--seed", "1_0"),
                 ("experiment", "--k", "1", "--trials", " 3")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"{argv[-1]!r} is not an integer" in err


def test_solve_k34(tmp_path, capsys):
    f = tmp_path / "k34.bbg"
    f.write_text(K34)
    code, out, err = run(capsys, "solve", str(f))
    assert code == 0
    assert out == "y2 x2 y0 x0 y1 x1 y3\n"
    assert err == ""


def test_solve_trace_goes_to_stderr(tmp_path, capsys):
    f = tmp_path / "k34.bbg"
    f.write_text(K34)
    code, out, err = run(capsys, "solve", str(f), "--trace", "--checked")
    assert code == 0
    assert out == "y2 x2 y0 x0 y1 x1 y3\n"
    assert "step 0 case 0 y0" in err


def test_solve_random_trace_is_pinned(tmp_path, capsys):
    # recorded from the RandomPolicy that made one numpy call per choice
    f = tmp_path / "g.bbg"
    f.write_text(serialize_graph(generate(GenConfig(20, 3))))
    code, out, err = run(capsys, "solve", str(f), "--policy",
                         "random:123456789", "--trace")
    assert code == 0 and len(err.splitlines()) == 80
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "ff57ab9724eba94106991f229b781965ffd548f9a06ed2725677a70d72511b3a")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1eaf2e0f3a97df19b92b4e62c1a2010dfc7640c5e1c103bb47cad987be52f830")


def test_solve_lex_trace_is_pinned(tmp_path, capsys):
    # recorded while the scan still held X vertices by their index j, not
    # their vertex id; checked mode must write the same bytes
    f = tmp_path / "g.bbg"
    f.write_text(serialize_graph(generate(GenConfig(200, 1))))
    for extra in ((), ("--checked",)):
        code, out, err = run(capsys, "solve", str(f), "--trace", *extra)
        assert code == 0 and len(err.splitlines()) == 800
        assert hashlib.sha256(err.encode()).hexdigest() == (
            "b4132d0e26a5f47f8191e764b900277e844f59798d685ca74e5a89dabd49da57")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4c2248ea2d893e0acade73986e792dbb5a427bc917dc7a610b52c2b3237e0d6e")


def test_solve_writes_file_and_verify_accepts_it(tmp_path, capsys):
    graph_file = tmp_path / "g.bbg"
    factor_file = tmp_path / "g.factor"
    code, _, _ = run(capsys, "generate", "--k", "3", "--seed", "9",
                     "--out", str(graph_file))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(graph_file),
                       "--out", str(factor_file))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", str(graph_file),
                       "--factor", str(factor_file))
    assert code == 0
    assert out == "OK\n"


def test_solve_random_policy_is_repeatable(tmp_path, capsys):
    graph_file = tmp_path / "g.bbg"
    run(capsys, "generate", "--k", "4", "--seed", "2",
        "--out", str(graph_file))
    a = run(capsys, "solve", str(graph_file), "--policy", "random:11")
    b = run(capsys, "solve", str(graph_file), "--policy", "random:11")
    assert a == b and a[0] == 0
    # a seed takes ASCII digits only, as every integer argument does
    for spec in ("bogus", "random:+5", "random: 5", "random:5_0",
                 "random:\u0665"):
        code, out, err = run(capsys, "solve", str(graph_file),
                             "--policy", spec)
        assert (code, out) == (2, ""), spec
        assert "unknown policy spec" in err


def test_solve_multigraph_exits_1(tmp_path, capsys):
    f = tmp_path / "cx.bbg"
    f.write_text(CX)
    code, out, err = run(capsys, "solve", str(f))
    assert code == 1
    assert out == ""
    assert "parallel edges" in err


def test_solve_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "solve", "/no/such/file.bbg")
    assert code == 1 and err


def test_solve_malformed_file_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.bbg"
    f.write_text("p bbg 4 3 1\ne y0 x9\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 1
    assert "line 2" in err


def test_solve_non_ascii_digit_exits_1(tmp_path, capsys):
    # str.isdigit() accepts superscripts that int() then rejects, and
    # int() alone accepts Arabic-Indic digits, underscores and signs
    k34_edges = K34.split("\n", 1)[1]
    cases = [
        ("p bbg 4 3 1\ne y\u00b2 x0\n", "line 2: malformed vertex token"),
        ("p bbg \u0664 \u0663 \u0661\u0662\n" + k34_edges,
         "line 1: malformed header"),
        ("p bbg 4 3 1_2\n" + k34_edges, "line 1: malformed header"),
        ("p bbg +4 3 12\n" + k34_edges, "line 1: malformed header"),
    ]
    f = tmp_path / "bad.bbg"
    for text, message in cases:
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "solve", str(f))
        assert code == 1, text
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python's int() has no digit limit")
@pytest.mark.parametrize("argv, graph, factor, lineno", [
    (("solve", "{graph}"), f"p bbg 4 3 12\ne y{'1' * 5000} x0\n", "", 2),
    (("solve", "{graph}"), f"p bbg {'9' * 5000} 3 12\n", "", 1),
    (("verify", "{graph}", "--factor", "{factor}"), K34,
     f"y0 x0 y1\ny{'1' * 5000}\n", 2),
], ids=["endpoint", "header", "factor"])
def test_a_number_past_the_int_digit_limit_exits_1(tmp_path, capsys, argv,
                                                   graph, factor, lineno):
    # int() refuses more than sys.get_int_max_str_digits() digits; such a
    # file is bad input (exit 1), never a defect (exit 3)
    paths = {"graph": tmp_path / "g.bbg", "factor": tmp_path / "f.factor"}
    paths["graph"].write_text(graph)
    paths["factor"].write_text(factor)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: line {lineno}: number too long\n"


@pytest.mark.parametrize("argv", [
    ("solve", "{bad}"),
    ("verify", "{bad}", "--factor", "{good}"),
    ("verify", "{good}", "--factor", "{bad}"),
], ids=["solve", "verify-graph", "verify-factor"])
def test_non_utf8_input_exits_1(tmp_path, capsys, argv):
    bad, good = tmp_path / "bad", tmp_path / "k34.bbg"
    bad.write_bytes(b"p bbg 4 3 12\n\xff\xfe e y0 x0\n")
    good.write_text(K34)
    code, out, err = run(capsys, *(a.format(bad=bad, good=good)
                                   for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken_solve(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("pathfactor.cli.solve", broken_solve)
    path = tmp_path / "g.bbg"
    path.write_text(K34)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert err == "defect: RuntimeError('boom\\nsecond line')\n"
    assert "Traceback" not in err


def test_solve_refuses_an_invalid_factor_from_solve(tmp_path, capsys,
                                                    monkeypatch):
    # the CLI re-validates what solve returns before writing it; a factor
    # one path short is a defect of this package, not of the input
    def short_solve(g, *args, **kwargs):
        factor = pathfactor.solve(g)
        return PathFactor(g, factor.ids[:-1])

    monkeypatch.setattr("pathfactor.cli.solve", short_solve)
    path = tmp_path / "g.bbg"
    path.write_text(serialize_graph(generate(GenConfig(k=2, seed=0))))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert err.startswith("defect: solve produced an invalid factor:\n")
    assert "FAIL path-count 1 paths, want k = 2\n" in err


def test_verify_rejects_corrupt_factor(tmp_path, capsys):
    graph_file = tmp_path / "k34.bbg"
    graph_file.write_text(K34)
    factor_file = tmp_path / "bad.factor"
    factor_file.write_text("c tampered\ny2 x2 y0 x0 y1 x1\n")
    code, out, _ = run(capsys, "verify", str(graph_file),
                       "--factor", str(factor_file))
    assert code == 1
    assert "FAIL endpoint-degree" in out
    assert "FAIL spanning" in out


def _factor_variants(text: str) -> dict[str, str]:
    """Edits of one valid factor file, each a way a file can go wrong."""
    lines = text.splitlines(keepends=True)

    def first_line(edit):
        return " ".join(edit(lines[0].split())) + "\n" + "".join(lines[1:])

    return {
        "valid": text,
        "short": "".join(lines[:-1]),
        "reversed": "".join(" ".join(ln.split()[::-1]) + "\n"
                            for ln in lines),
        "odd": first_line(lambda t: t[:-1]),
        "first-dropped": first_line(lambda t: t[1:]),
        "duplicated": text + lines[0],
        "padded-duplicate": text + re.sub(r"\b([yx])(\d)", r"\g<1>00\2",
                                          lines[0]),
        "comments": "c a factor\n\n" + "".join(ln + "c\n" for ln in lines),
        "y007": re.sub(r"\by7\b", "y007", text),
        "y25": re.sub(r"\by3\b", "y25", text),
        "x99999": re.sub(r"\bx2\b", "x99999", text),
        "malformed": re.sub(r"\bx2\b", "z2", text),
    }


_LINE1 = "[y2 x12 y14 x10 y5 x2 y13]"
_DISJOINT = "".join(f"FAIL disjoint {v} appears on lines 1 and 6\n"
                    for v in _LINE1[1:-1].split())
VERIFY_FACTOR_PINS = {
    "valid": (0, "OK\n", ""),
    "short": (1, "FAIL spanning uncovered: y1 y15 y17 y19 x1 x3 x8\n"
                 "FAIL path-count 4 paths, want k = 5\n", ""),
    "reversed": (0, "OK\n", ""),
    "odd": (1, "FAIL endpoint-degree endpoint x2 is on the degree-4 side, "
               "want Y\n"
               "FAIL odd-length line 1 [y2 x12 y14 x10 y5 x2] has odd "
               "length 5\n"
               "FAIL spanning uncovered: y13\n", ""),
    "first-dropped": (1, "FAIL endpoint-degree endpoint x12 is on the "
                         "degree-4 side, want Y\n"
                         "FAIL odd-length line 1 [x12 y14 x10 y5 x2 y13] "
                         "has odd length 5\n"
                         "FAIL spanning uncovered: y2\n", ""),
    "duplicated": (1, _DISJOINT + "FAIL path-count 6 paths, want k = 5\n",
                   ""),
    "padded-duplicate": (1, _DISJOINT
                         + "FAIL path-count 6 paths, want k = 5\n", ""),
    "comments": (0, "OK\n", ""),
    "y007": (0, "OK\n", ""),
    "y25": (1, "FAIL not-a-path line 2 [y25 x0 y4 x5 y10] is not a simple "
               "path in the graph\n"
               "FAIL spanning uncovered: y3 y4 y10 x0 x5\n", ""),
    "x99999": (1, "FAIL not-a-path line 1 [y2 x12 y14 x10 y5 x99999 y13] is "
                  "not a simple path in the graph\n"
                  "FAIL spanning uncovered: y2 y5 y13 y14 x2 x10 x12\n", ""),
    "malformed": (1, "", "error: line 1: malformed vertex token 'z2'\n"),
}


@pytest.mark.parametrize("variant", list(VERIFY_FACTOR_PINS))
def test_verify_factor_output_is_pinned(tmp_path, capsys, variant):
    # each variant edits the k = 5, seed 0 instance's solved factor file;
    # the stdout, stderr and exit code of verify --factor are pinned
    graph_file = tmp_path / "g.bbg"
    factor_file = tmp_path / "g.factor"
    graph_file.write_text(serialize_graph(generate(GenConfig(5, 0))))
    assert run(capsys, "solve", str(graph_file),
               "--out", str(factor_file))[0] == 0
    text = factor_file.read_text()
    assert text.startswith(_LINE1[1:-1] + "\n")
    factor_file.write_text(_factor_variants(text)[variant])
    assert run(capsys, "verify", str(graph_file), "--factor",
               str(factor_file)) == VERIFY_FACTOR_PINS[variant]


def test_verify_oracle_k34(tmp_path, capsys):
    f = tmp_path / "k34.bbg"
    f.write_text(K34)
    code, out, _ = run(capsys, "verify", str(f), "--oracle")
    assert code == 0
    assert out == "FACTOR EXISTS\ny2 x1 y0 x0 y1 x2 y3\n"


def test_verify_oracle_counterexample(tmp_path, capsys):
    f = tmp_path / "cx.bbg"
    f.write_text(CX)
    code, out, _ = run(capsys, "verify", str(f), "--oracle")
    assert code == 0
    assert out == "NO FACTOR EXISTS\n"


def test_verify_oracle_size_cap(tmp_path, capsys):
    f = tmp_path / "big.bbg"
    run(capsys, "generate", "--k", "3", "--seed", "0", "--out", str(f))
    code, _, err = run(capsys, "verify", str(f), "--oracle")
    assert code == 4
    assert "k <= 2" in err


def test_verify_needs_exactly_one_mode(tmp_path, capsys):
    f = tmp_path / "k34.bbg"
    f.write_text(K34)
    assert run(capsys, "verify", str(f))[0] == 2
    factor_file = tmp_path / "f.factor"
    factor_file.write_text("y0 x0 y1\n")
    assert run(capsys, "verify", str(f), "--factor", str(factor_file),
               "--oracle")[0] == 2


def test_bad_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert main([]) == 2
    capsys.readouterr()


def test_experiment_deterministic_stdout(capsys):
    a = run(capsys, "experiment", "--k", "1", "--trials", "3")
    b = run(capsys, "experiment", "--k", "1", "--trials", "3")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    # k=1 instances are K_{3,4}: a single 6-path every time
    assert "hist_6=3" in a[1]
    assert "pct_all_paths_le_8=100.00" in a[1]
    assert "max_path_seen=6" in a[1]
    assert "mean_solve_time_ms=" in a[2]
    assert "mean_solve_time" not in a[1]  # timing never on stdout


def test_experiment_jobs_do_not_change_output(capsys):
    a = run(capsys, "experiment", "--k", "2", "--trials", "8", "--seed", "5")
    b = run(capsys, "experiment", "--k", "2", "--trials", "8", "--seed", "5",
            "--jobs", "2")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


@pytest.mark.parametrize("trials, cpus, sizes", [
    (1, 8, []),      # one trial: the serial path, no pool
    (3, 8, [3]),     # no more workers than trials
    (8, 4, [4]),     # no more workers than CPUs
    (8, None, []),   # CPU count unknown: serial
])
def test_experiment_caps_the_pool(capsys, monkeypatch, trials, cpus, sizes):
    # a fork-started pool starts all its workers at once, so --jobs must
    # not ask for more than can be used; the fake pool starts no process
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    module = pathfactor.experiment
    monkeypatch.setattr(module, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(module.os, "cpu_count", lambda: cpus)
    argv = ("experiment", "--k", "1", "--trials", str(trials))
    a = run(capsys, *argv, "--jobs", "100000")
    assert seen == sizes
    b = run(capsys, *argv)
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def _child(*args):
    # the child interpreter must import the same package the tests do,
    # including from an uninstalled checkout
    package_root = str(Path(pathfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point():
    proc = _child("-m", "pathfactor", "generate", "--k", "1")
    assert proc.returncode == 0
    assert proc.stdout == K34


def test_import_leaves_numpy_unloaded():
    # only RandomPolicy and generate need numpy, and they import it when
    # first called, so `verify` or `solve --policy lex` never pay for it
    proc = _child("-c", "import sys, pathfactor, pathfactor.cli; "
                        "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
