import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sconvex
from sconvex import Dfa, cli, star_witness
from sconvex.cli import main
from sconvex.harness import SUITES


@pytest.fixture
def star4_file(tmp_path):
    path = tmp_path / "star4.txt"
    path.write_text(star_witness(4).to_text(), encoding="utf-8")
    return str(path)


def test_witness_writes_a_parseable_dfa(capsys):
    assert main(["witness", "--family", "star", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert Dfa.from_text(out) == star_witness(4)


def test_witness_bad_size_exits_2(capsys):
    assert main(["witness", "--family", "reversal", "--n", "3"]) == 2
    assert "n >= 4" in capsys.readouterr().err


def test_complexity_and_reverse(star4_file, capsys):
    assert main(["complexity", star4_file]) == 0
    assert main(["complexity", "--reverse", star4_file]) == 0
    assert capsys.readouterr().out.split() == ["4", "10"]


def test_reverse_complexity_of_a_non_minimal_dfa(tmp_path, capsys):
    # odd numbers of a's on a 4-cycle, plus an unreachable state; the
    # reversed language is the same, so its complexity is 2
    path = tmp_path / "bloated.txt"
    path.write_text(Dfa(5, ("a",), ((1, 2, 3, 0, 4),), frozenset({1, 3, 4})).to_text(),
                    encoding="utf-8")
    assert main(["complexity", "--reverse", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_reverse_complexity_of_a_raw_random_dfa(tmp_path, capsys):
    # 8 states, 6 of them reachable, complexity 4; the atom count is the
    # one printed before atoms were read off the raw DFA
    assert main(["random", "--n", "8", "--letters", "3", "--seed", "3"]) == 0
    path = tmp_path / "raw.txt"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["complexity", "--reverse", str(path)]) == 0
    assert capsys.readouterr().out == "4\n"


def test_classify_output(star4_file, capsys):
    assert main(["classify", star4_file]) == 0
    out = capsys.readouterr().out
    assert "suffix_convex=true" in out
    assert "proper=true" in out
    assert "counterexample" not in out


def test_classify_prints_counterexample(tmp_path, capsys):
    a_or_baa = Dfa(5, ("a", "b"),
                   ((1, 4, 3, 1, 4), (2, 4, 4, 4, 4)),
                   frozenset({1}))
    path = tmp_path / "in.txt"
    path.write_text(a_or_baa.to_text(), encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    assert "counterexample u=b v=a w=a" in capsys.readouterr().out


def test_dialect_roundtrip(star4_file, capsys):
    assert main(["dialect", "--map", "a=a,b=b,c=c,d=d,e=-,f=-",
                 star4_file]) == 0
    d = Dfa.from_text(capsys.readouterr().out)
    assert d.alphabet == ("a", "b", "c", "d")


def test_combine_star_pipeline(star4_file, capsys, monkeypatch):
    assert main(["combine", "--op", "star", star4_file]) == 0
    starred = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(starred))
    assert main(["complexity", "-"]) == 0
    assert capsys.readouterr().out.strip() == "12"


@pytest.mark.parametrize("op, digest", [
    ("union", "8991eea8411af17c7964db17aa43a0a149eb23a0e4b25d8101cd9907230a2bc8"),
    ("xor", "e1e179aba4e5b9bc63c89c4fc3b1525b5bd814a674bea1d3640298bd6a72bed0"),
    ("diff", "9b5af3463295a2ff176b7263bb085d16a7a3b4d75781e20e72b5a11e0bbfe0c2"),
    ("intersect", "79647224888055d5d81fce3fc78bed590d0481a84a0318957cf3d39e274b27d3"),
])
def test_combine_boolean_output_is_pinned(star4_file, tmp_path, capsys, monkeypatch,
                                          op, digest):
    assert main(["witness", "--family", "syntactic", "--n", "5"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["dialect", "--map", "a=a,b=b,c=c,d=d,e=e,f=f,g=-,h=-", "-"]) == 0
    right = tmp_path / "syntactic5.txt"
    right.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["combine", "--op", op, star4_file, str(right)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_combine_argument_counts(star4_file, capsys):
    assert main(["combine", "--op", "star", star4_file, star4_file]) == 2
    assert main(["combine", "--op", "union", star4_file]) == 2


def test_semigroup_count(star4_file, capsys):
    assert main(["semigroup", "--count-only", star4_file]) == 0
    # a cap the 29-element closure fits under
    assert main(["semigroup", "--count-only", "--cap", "29", star4_file]) == 0
    assert capsys.readouterr().out.split() == ["29", "29"]


def test_semigroup_count_cap_exits_3_before_storing_much(tmp_path, capsys):
    # a cycle, a swap and 0 -> 1 generate all 823,543 maps on 7 states
    n = 7
    letters = (tuple((q + 1) % n for q in range(n)),
               (1, 0) + tuple(range(2, n)),
               (1,) + tuple(range(1, n)))
    path = tmp_path / "full7.txt"
    path.write_text(Dfa(n, ("a", "b", "c"), letters, frozenset({0})).to_text(),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["semigroup", "--count-only", "--cap", "50", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeded 50 image sets" in capsys.readouterr().err
    assert peak < 1_000_000


def test_semigroup_cap_exits_3(star4_file, capsys):
    assert main(["semigroup", "--cap", "5", star4_file]) == 3
    assert "exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("mode", [[], ["--count-only"]])
def test_semigroup_cap_below_one_is_a_usage_error(mode, cap, tmp_path, capsys):
    # refused before the file is read, so a missing file does not show
    missing = str(tmp_path / "missing.txt")
    assert main(["semigroup", *mode, "--cap", cap, missing]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", f"error: --cap must be at least 1, got {cap}\n")


def test_triples_family_and_preorder(capsys):
    assert main(["triples", "--family", "reversal", "--n", "4"]) == 0
    body = capsys.readouterr().out
    assert body.startswith("states 4\nfinal 1\n")
    assert main(["triples", "--family", "reversal", "--n", "4",
                 "--preorder"]) == 0
    assert capsys.readouterr().out == "1 0 0 0\n1 1 0 0\n1 1 1 0\n1 0 0 1\n"


def test_triples_canonical(star4_file, capsys):
    assert main(["triples", "--canonical", star4_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("states 4\nfinal 2\n")
    assert main(["triples", "--family", "star"]) == 2


def test_triples_canonical_refuses_a_non_convex_dfa(monkeypatch, capsys):
    # the 5-state DFA of a + baa that the console-script check feeds on stdin
    text = ("states 5\nalphabet a b\ninitial 0\nfinal 1\n0 a 1\n0 b 2\n"
            "1 a 4\n1 b 4\n2 a 3\n2 b 4\n3 a 1\n3 b 4\n4 a 4\n4 b 4\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["triples", "--canonical", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: language is not suffix-convex: (('b',), ('a',), ('a',))\n"


def test_verify_text_and_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--suite", "star", "--max-n", "5",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["suite=star n=3 expected=6 actual=6 result=PASS",
                   "suite=star n=4 expected=12 actual=12 result=PASS",
                   "suite=star n=5 expected=24 actual=24 result=PASS"]
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert [row["actual"] for row in rows] == [6, 12, 24]
    assert all(row["pass"] for row in rows)
    # every suite's checks: each row says what its printed line says
    assert main(["verify", "--suite", "all", "--min-n", "4", "--max-n", "4",
                 "--samples", "5", "--json", str(report)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert len(rows) == len(out) == 19
    for line, row in zip(out, rows):
        middle = "".join(f" {k}={v}" for k, v in row["params"].items())
        result = "PASS" if row["pass"] else "FAIL"
        assert line == (f"suite={row['suite']}{middle} expected={row['expected']} "
                        f"actual={row['actual']} result={result}")
        assert row["pass"] == (row["expected"] == row["actual"])
        assert isinstance(row["ms"], float) and row["ms"] >= 0


def test_every_suite_takes_its_range_of_n_first():
    # verify clamps each suite's first default to --min-n/--max-n
    for suite in SUITES.values():
        assert isinstance(suite.__defaults__[0], range), suite.__name__


def test_verify_exclusions_range_control(capsys):
    assert main(["verify", "--suite", "exclusions", "--min-n", "4",
                 "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("result=PASS") for line in lines)


def test_verify_refuses_an_empty_range(capsys):
    assert main(["verify", "--min-n", "6", "--max-n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the range of n 6..4 is empty\n"
    # a suite whose own default range lies past --max-n checks nothing either
    assert main(["verify", "--suite", "reversal", "--max-n", "3"]) == 2
    assert "4..3 is empty" in capsys.readouterr().err


def test_verify_refuses_a_negative_sample_count(capsys):
    assert main(["verify", "--suite", "reversal", "--samples", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --samples must be at least 0, got -3\n"


def test_triples_takes_a_family_or_a_dfa_not_both(star4_file, capsys):
    assert main(["triples", "--family", "star", "--n", "4",
                 "--canonical", star4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_verify_monotone_refuses_n_below_three(capsys):
    assert main(["verify", "--suite", "monotone", "--min-n", "0",
                 "--max-n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need n >= 3, got 0" in captured.err


def test_verify_monotone_refuses_large_n_at_once(capsys):
    assert main(["verify", "--suite", "monotone", "--min-n", "100",
                 "--max-n", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the monotone counts support at most 100 states, got 101" in captured.err


def test_verify_monotone_counts_past_twelve(capsys):
    assert main(["verify", "--suite", "monotone", "--min-n", "13",
                 "--max-n", "13"]) == 0
    assert capsys.readouterr().out.count("result=PASS") == 2


def test_random_then_classify(tmp_path, capsys):
    out = tmp_path / "random.txt"
    assert main(["random", "--n", "5", "--letters", "3", "--seed", "7",
                 "-o", str(out)]) == 0
    assert main(["classify", str(out)]) == 0
    assert "suffix_convex=true" in capsys.readouterr().out


def test_probe_conjecture_output(capsys):
    assert main(["probe-conjecture", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "probe n=3 orders=2 configurations=11 proper=1 max=10 formula=10 achieves=true"


def test_probe_conjecture_cap(capsys):
    assert main(["probe-conjecture", "--n", "10"]) == 3
    assert "2 <= n <= 9, got 10" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_probe_conjecture_below_2_is_a_usage_error(n, capsys):
    assert main(["probe-conjecture", "--n", n]) == 2
    (out, err) = capsys.readouterr()
    assert out == "" and err == f"error: the probe needs n >= 2, got {n}\n"


@pytest.mark.parametrize("args", [["--n", "100000"],
                                  ["--n", "3", "--letters", "1000000000"]])
def test_random_refuses_oversized_requests_fast(args, capsys):
    # refused before the order, which takes n^2 steps to build
    start = time.process_time()
    assert main(["random", *args]) == 3
    assert time.process_time() - start < 0.1
    assert "at most 2000000" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["witness", "--family", "star", "--n", "20000000"],
     "a witness on 20000000 states with 6 letters needs n*letters at most 2000000"),
    (["witness", "--family", "star", "--n", "333334"],
     "a witness on 333334 states with 6 letters needs n*letters at most 2000000"),
    (["witness", "--family", "reversal", "--n", "250001"],
     "a witness on 250001 states with 8 letters needs n*letters at most 2000000"),
    (["witness", "--family", "syntactic", "--n", "250001"],
     "a witness on 250001 states with 8 letters needs n*letters at most 2000000"),
    (["triples", "--family", "star", "--n", "30000"],
     "a system on 30000 states has 1799970000 mandatory triples, over the cap 2000000"),
    (["triples", "--family", "reversal", "--n", "1001"],
     "a system on 1001 states has 2003001 mandatory triples, over the cap 2000000"),
    (["triples", "--family", "syntactic", "--n", "1001", "--preorder"],
     "a system on 1001 states has 2003001 mandatory triples, over the cap 2000000"),
    # the star walk at n=23 spends 11-15 s CPU and 600 MB before its own refusal
    (["verify", "--suite", "star", "--min-n", "23", "--max-n", "23"],
     "the star suite at n=23 expects 6291456 states, over the subset cap 4194304"),
    (["verify", "--suite", "reversal", "--min-n", "23", "--max-n", "23"],
     "the reversal suite at n=23 expects 7340032 states, over the subset cap 4194304"),
    (["verify", "--suite", "product", "--min-n", "18", "--max-n", "18"],
     "the product suite at n=18 m=18 expects 4587520 states, over the subset cap 4194304"),
    (["verify", "--suite", "boolean", "--min-n", "2049", "--max-n", "2049"],
     "the boolean suite at n=2049 m=2049 expects 4198401 states, over the subset cap 4194304"),
    # the range is not listed: the check loop stops at n=101
    (["verify", "--suite", "monotone", "--max-n", "1000000000"],
     "the monotone counts support at most 100 states, got 101"),
])
def test_oversized_family_requests_exit_3_at_once(args, message, capsys):
    start = time.process_time()
    assert main(args) == 3
    assert time.process_time() - start < 0.1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_random_refuses_a_runaway_walk(capsys):
    # the walk for the second letter backtracks out of dead ends without
    # end; it is refused past n + CLOSURE_CAP // n levels, about 0.5 s
    start = time.process_time()
    assert main(["random", "--n", "32", "--letters", "5", "--seed", "56"]) == 3
    assert time.process_time() - start < 2
    assert capsys.readouterr().err == (
        "error: the random walk for letter t001 entered 62533 levels on 32 "
        "states, past the cap n + CLOSURE_CAP // n = 62532\n")


def test_export_dot(star4_file, capsys):
    assert main(["export-dot", "--name", "W", star4_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph W {")
    assert "doublecircle" in out


@pytest.mark.parametrize("name", ["my dfa", "x{", "9lives", "", "Digraph",
                                  "node", "STRICT", "a-b", "a\n"])
def test_export_dot_refuses_a_name_that_is_not_a_dot_identifier(name, star4_file,
                                                                capsys):
    assert main(["export-dot", "--name", name, star4_file]) == 2
    (out, err) = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: graph name {name!r} must be a DOT identifier")


@pytest.mark.parametrize("name", ["_", "dfa_2", "nodes", "Graph1"])
def test_export_dot_accepts_plain_identifiers(name, star4_file, capsys):
    assert main(["export-dot", "--name", name, star4_file]) == 0
    assert capsys.readouterr().out.startswith(f"digraph {name} {{\n")


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("states 2\nalphabet a\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert main(["classify", str(tmp_path / "missing.txt")]) == 2


def test_huge_declared_size_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("states 3000000\nalphabet a b c\ninitial 0\nfinal 1 2\n"
                    "0 a 1\n0 b 0\n0 c 2\n1 a 10\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "incomplete transition table" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("n", [4, 400])
def test_a_closed_stdout_exits_141_without_an_error_line(n):
    # the read end is closed before the command starts, so its first write
    # fails: 24 kB for n=400 fail while they are written, 0.2 kB for n=4 in
    # the flush at the end of main
    src = Path(sconvex.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sconvex.cli", "witness", "--family", "star",
             "--n", str(n)],
            stdout=write, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_one_parser_serves_a_mixed_run_twice(star4_file, capsys, monkeypatch):
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    commands = [["classify", star4_file],
                ["verify", "--suite", "star", "--max-n", "4"],
                ["classify", "--frobnicate", star4_file],
                ["verify", "--suite", "monotone", "--min-n", "101", "--max-n", "101"]]

    def run():
        results = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    first = run()
    assert [code for code, _, _ in first] == [0, 0, 2, 3]
    assert run() == first
    assert len(built) == 1
