"""The four workloads: their inputs, timed operations and answer checks.

A workload is built by ``build(name, seed, workdir, tiny, oracles)``,
which makes its inputs (and, for cli-mix, writes its files) and returns
the fixed list of operations one pass runs.  Every operation calls into
the library through module attributes looked up at call time, so the
tracer's rebinding reaches it.  Checks compute their expected answers on
first use, outside the timed calls, from ``checks`` and the test oracles.

``tiny`` shrinks every workload to smoke-test sizes.
"""

from __future__ import annotations

import functools
import importlib
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import checks
from checks import Table

automata = importlib.import_module("sconvex.automata")
classify_mod = importlib.import_module("sconvex.classify")
cli = importlib.import_module("sconvex.cli")
harness = importlib.import_module("sconvex.harness")
transformations = importlib.import_module("sconvex.transformations")
triples = importlib.import_module("sconvex.triples")
witnesses = importlib.import_module("sconvex.witnesses")

# probe_conjecture(n) summary lines at the seed commit
PROBE_LINES = {
    3: "probe n=3 orders=2 configurations=11 proper=1 max=10 formula=10 "
       "achieves=true",
    5: "probe n=5 orders=16 configurations=339 proper=101 max=265 formula=336 "
       "achieves=false",
}


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run`` is timed; ``plain`` turns its result into
    a comparable answer and ``check`` returns a failure reason or None."""

    label: str
    run: Callable[[], object]
    plain: Callable[[object], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class _Image:
    '''A generator as the naive closure oracle reads it.'''
    image: tuple


def _expect(want):
    return lambda got: None if got == want else f"expected {want!r}, got {got!r}"


def _four_letters(d):
    '''The a,b,c,d dialect the star suite uses.'''
    keep = witnesses.LetterMap.keep(d.alphabet, ("a", "b", "c", "d", None, None))
    return witnesses.dialect(d, keep)


def _star_closure(d):
    return automata.minimize(automata.determinize(automata.star_nfa(d)))


# ---------------------------------------------------------------------------
# verify-suites: one call per suite and parameter point

def _report_rows(reports):
    rows = []
    for r in reports:
        params = dict(r.params)
        rows.append((r.suite, params.get("n"), params.get("m"), r.actual))
    return tuple(rows)


def _exclusions_check(n, oracles):
    """Checks verify_exclusions at n against values recomputed from the
    oracles on first use.  The two canonical-order properties are taken
    from the paper as true: nothing here rebuilds the preorder."""
    @functools.cache
    def rows():
        star = Table.of(witnesses.star_witness(n))
        rev = Table.of(witnesses.reversal_witness(n))

        def semigroup_size(t):
            return len(oracles.naive_closure([_Image(row) for row in t.delta]))

        values = (
            ("star-reversal-bound",
             oracles.signature_atom_count(star) < checks.reversal_bound(n)),
            ("reversal-star-bound",
             checks.star_complexity(rev, oracles) < checks.star_bound(n)),
            ("star-syntactic", semigroup_size(star) < checks.syntactic_bound(n)),
            ("reversal-syntactic", semigroup_size(rev) < checks.syntactic_bound(n)),
            ("star-order-total", True),
            ("reversal-order-pair", True),
            ("star-containments", checks.containment_breaches(star)),
            ("reversal-containments", checks.containment_breaches(rev)))
        return tuple((f"exclusions-{suite}", n, None, int(v)) for suite, v in values)
    return lambda got: _expect(rows())(got)


def _verify_suites(seed, tiny, oracles):
    if tiny:
        star, product, boolean = range(3, 5), range(3, 5), range(3, 4)
        reversal, syntactic, monotone = range(4, 6), range(3, 5), range(3, 5)
        exclusions, samples = range(4, 5), 20
    else:
        star, product, boolean = range(3, 11), range(3, 9), range(3, 9)
        reversal, syntactic, monotone = range(4, 11), range(3, 8), range(3, 8)
        exclusions, samples = range(4, 9), 500
    sample_seed = random.Random(seed).randrange(2 ** 32)
    ops = []
    used = set()

    def add(label, fn_name, args, kwargs, rows):
        used.add(fn_name)
        def run():
            return getattr(harness, fn_name)(*args, **kwargs)
        check = rows if callable(rows) else _expect(tuple(rows))
        ops.append(Op(label, run, _report_rows, check))

    for n in star:
        add(f"star n={n}", "verify_star", ([n],), {},
            [("star", n, None, checks.star_bound(n))])
    for m in product:
        for n in product:
            add(f"product m={m} n={n}", "verify_product", ([m], [n]), {},
                [("product", n, m, checks.product_bound(m, n))])
    for m in boolean:
        for n in boolean:
            add(f"boolean m={m} n={n}", "verify_boolean", ([m], [n]), {},
                [(f"boolean-{op}", n, m, m * n)
                 for op in ("union", "xor", "diff", "intersect")])
    for n in reversal:
        add(f"reversal n={n}", "verify_reversal", ([n],), {"samples": 0},
            [("reversal", n, None, checks.reversal_bound(n)),
             ("reversal-bound", 8, None, 0)])
    add(f"reversal samples={samples}", "verify_reversal", ([],),
        {"samples": samples, "seed": sample_seed},
        [("reversal-bound", 8, None, 0)])
    for n in syntactic:
        add(f"syntactic n={n}", "verify_syntactic", ([n],), {},
            [("syntactic", n, None, checks.syntactic_bound(n))])
    for n in monotone:
        add(f"monotone n={n}", "verify_monotone_counts", ([n],), {},
            [("monotone-total", n, None, checks.monotone_total_count(n)),
             ("monotone-reversal", n, None, checks.monotone_reversal_count(n))])
    for n in exclusions:
        add(f"exclusions n={n}", "verify_exclusions", ([n],), {},
            _exclusions_check(n, oracles))
    suites = {fn.__name__ for fn in harness.SUITES.values()}
    if used != suites:
        raise RuntimeError(f"harness.SUITES is {sorted(suites)}, "
                           f"the workload covers {sorted(used)}")
    return ops


# ---------------------------------------------------------------------------
# probe-n5

def _probe(tiny):
    n = 3 if tiny else 5
    return [Op(f"probe n={n}", lambda: harness.probe_conjecture(n),
               lambda result: next(result.lines()), _expect(PROBE_LINES[n]))]


# ---------------------------------------------------------------------------
# large-n: the same kernels on few letters, past the default ranges

def _classification(c):
    return (c.suffix_convex, c.left_ideal, c.suffix_closed, c.suffix_free,
            c.proper, c.counterexample)


def _check_not_convex(t):
    '''The answer for a DFA whose language is not suffix-convex.'''
    def check(got):
        convex, ideal, closed, free, proper, cx = got
        if convex or proper or cx is None:
            return f"expected a non-convex classification, got {got!r}"
        if (ideal, closed, free) != checks.special_classes(t):
            return f"special classes {got[1:4]} differ from the pair check"
        if not checks.is_counterexample(t, *cx):
            return f"{cx!r} is not a counterexample"
        return None
    return check


def _same(x):
    return x


def _large_n(tiny):
    star_n, rev_n, syn_n, sys_n, closure_n = ((8, 6, 5, 5, 4) if tiny
                                              else (13, 12, 8, 7, 6))
    star_input = _four_letters(witnesses.star_witness(star_n))
    rev_input = witnesses.reversal_witness(rev_n)
    syn_input = witnesses.syntactic_witness(syn_n)
    system = witnesses.syntactic_system(sys_n)
    closure = _star_closure(_four_letters(witnesses.star_witness(closure_n)))
    return [
        Op(f"star n={star_n}",
           lambda: automata.complexity(automata.determinize(
               automata.star_nfa(star_input))),
           _same, _expect(checks.star_bound(star_n))),
        Op(f"reversal atoms n={rev_n}", lambda: automata.atom_count(rev_input),
           _same, _expect(checks.reversal_bound(rev_n))),
        Op(f"syntactic n={syn_n}",
           lambda: transformations.syntactic_complexity(syn_input),
           _same, _expect(checks.syntactic_bound(syn_n))),
        Op(f"maximal semigroup n={sys_n}",
           lambda: triples.maximal_semigroup(system),
           len, _expect(checks.syntactic_bound(sys_n))),
        Op(f"classify star closure n={closure_n} ({closure.n} states)",
           lambda: classify_mod.classify(closure),
           _classification, _check_not_convex(Table.of(closure))),
    ]


# ---------------------------------------------------------------------------
# cli-mix: in-process cli.main requests over generated files

MALFORMED = "states 100000\nalphabet a b\ninitial 0\nfinal 1\n0 a 1\n0 b 0\n"


def _cli_run(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _flag(b):
    return "true" if b else "false"


class _Expected:
    """Expected cli answers for one input table, each computed once."""

    def __init__(self, t, oracles):
        self.t = t
        self.oracles = oracles

    @functools.cached_property
    def convex(self):
        return self.oracles.brute_force_suffix_convex(self.t)[0]

    @functools.cached_property
    def minimal(self):
        return self.oracles.table_filling_complexity(self.t) == self.t.n

    def classify(self, got):
        code, out, _ = got
        ideal, closed, free = checks.special_classes(self.t)
        proper = self.convex and not (ideal or closed or free)
        want = [f"suffix_convex={_flag(self.convex)}", f"left_ideal={_flag(ideal)}",
                f"suffix_closed={_flag(closed)}", f"suffix_free={_flag(free)}",
                f"proper={_flag(proper)}"]
        lines = out.splitlines()
        if code != 0 or lines[:5] != want:
            return f"classify: expected {want}, got exit {code} {lines}"
        if self.convex:
            return None if len(lines) == 5 else "unexpected counterexample line"
        m = re.fullmatch(r"counterexample u=(.*) v=(.*) w=(.*)", lines[5]
                         if len(lines) == 6 else "")
        if m is None:
            return f"classify: no counterexample line in {lines}"
        words = [checks.split_word(g, self.t.alphabet) for g in m.groups()]
        return None if checks.is_counterexample(self.t, *words) else \
            f"classify: {lines[5]} is not a counterexample"

    @functools.cached_property
    def complexity(self):
        return (0, f"{self.oracles.table_filling_complexity(self.t)}\n", "")

    @functools.cached_property
    def reverse_complexity(self):
        atoms = self.oracles.signature_atom_count(self.t.restricted())
        return (0, f"{atoms}\n", "")

    def star(self, got):
        code, out, _ = got
        try:
            result = Table.parse(out)
        except (ValueError, IndexError, KeyError):
            return f"star: exit {code}, unreadable output"
        if code != 0 or not checks.accepts_star_of(self.t, result):
            return "star: output does not accept L*"
        if self.oracles.table_filling_complexity(result) != result.n:
            return "star: output is not minimal"
        return None

    @functools.cached_property
    def semigroup(self):
        size = len(self.oracles.naive_closure(
            [_Image(row) for row in self.t.delta]))
        return (0, f"{size}\n", "")

    def canonical(self, got):
        code, out, _ = got
        if self.minimal and self.convex:
            want = (0, checks.canonical_text(self.t))
        else:
            want = (2, "")
        return None if (code, out) == want else \
            f"triples --canonical: expected {want!r}, got {(code, out)!r}"

    @functools.cached_property
    def dot(self):
        return (0, checks.dot_text(self.t), "")


def _rejected(got):
    code, out, err = got
    if code == 2 and out == "" and err.startswith("error:"):
        return None
    return f"expected a rejection with exit 2, got {got!r}"


def _uniform_dfa(rng, n, letters):
    '''Uniform random table, each state final with probability 0.4.'''
    names = tuple("abcdefgh"[:letters])
    delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in names)
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return automata.Dfa(n, names, delta, finals)


def _cli_mix(seed, workdir, tiny, oracles):
    rng = random.Random(seed)
    sizes = range(4, 5) if tiny else range(4, 8)
    count = 2 if tiny else 12
    big_n = 6 if tiny else 13
    files = []  # (name, dfa, convex by construction)

    for family in ("star", "reversal", "syntactic"):
        make = getattr(witnesses, f"{family}_witness")
        for n in sizes:
            files.append((f"{family}{n}", make(n), True))
    for i in range(count):
        d = harness.random_suffix_convex(4 + i % 4, 2 + i % 3,
                                         rng.randrange(2 ** 32))
        files.append((f"convex{i}", d, True))
    for i in range(count):
        files.append((f"uniform{i}", _uniform_dfa(rng, 4 + i % 4, 2 + i % 2),
                      False))
    big = _star_closure(_four_letters(witnesses.star_witness(big_n)))
    paths = {}
    for name, d, _ in files + [("big", big, False)]:
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_text(d.to_text(), encoding="utf-8")
    bad = workdir / "malformed.txt"
    bad.write_text(MALFORMED, encoding="utf-8")

    ops = []

    def add(argv, check):
        label = " ".join(a if not a.startswith(str(workdir)) else
                         a[len(str(workdir)) + 1:] for a in argv)
        ops.append(Op(label, _cli_run(argv), _same, check))

    def equals(e, attr):
        return lambda got: _expect(getattr(e, attr))(got)

    for name, d, convex in files:
        e = _Expected(Table.of(d), oracles)
        p = str(paths[name])
        add(["classify", p], e.classify)
        add(["complexity", p], equals(e, "complexity"))
        add(["complexity", "--reverse", p], equals(e, "reverse_complexity"))
        add(["combine", "--op", "star", p], e.star)
        if convex:
            add(["semigroup", "--count-only", p], equals(e, "semigroup"))
        add(["triples", "--canonical", p], e.canonical)
        add(["export-dot", p], equals(e, "dot"))
    add(["complexity", str(paths["big"])],
        _expect((0, f"{checks.star_bound(big_n)}\n", "")))
    add(["export-dot", str(paths["big"])],
        equals(_Expected(Table.of(big), oracles), "dot"))
    for argv in (["classify"], ["complexity"], ["complexity", "--reverse"],
                 ["combine", "--op", "star"], ["semigroup", "--count-only"],
                 ["triples", "--canonical"], ["export-dot"]):
        add(argv + [str(bad)], _rejected)
    return ops


def build(name, seed, workdir, tiny, oracles):
    """The operations of one pass of a workload, after making its inputs."""
    if name == "verify-suites":
        return _verify_suites(seed, tiny, oracles)
    if name == "probe-n5":
        return _probe(tiny)
    if name == "large-n":
        return _large_n(tiny)
    if name == "cli-mix":
        return _cli_mix(seed, workdir, tiny, oracles)
    raise ValueError(f"unknown workload {name!r}")
