"""Command line interface.

Exit codes: 0 success (and every verification PASS), 1 verification
failure, 2 usage or input errors, 3 resource cap exceeded, 141 (128 +
SIGPIPE) when the reader of standard output went away, as a shell reports
for a writer that SIGPIPE killed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .automata import (Dfa, complete_to, complexity, determinize,
                       direct_product, minimize, product_nfa, star_nfa,
                       union_alphabet, _BOOLEAN_OPS, _complexity_and_atoms)
from .classify import classify
from .errors import FormatError, ResourceCap, SconvexError
from .harness import (DEFAULT_SEED, SUITES, probe_conjecture,
                      random_suffix_convex, reports_to_json)
from .transformations import (CLOSURE_CAP, _letters, semigroup_size,
                              transition_semigroup)
from .triples import canonical_system, preorder_of
from .witnesses import (LetterMap, dialect, reversal_system, reversal_witness,
                        star_system, star_witness, syntactic_system,
                        syntactic_witness)

WITNESSES = {"star": star_witness, "reversal": reversal_witness,
             "syntactic": syntactic_witness}
SYSTEMS = {"star": star_system, "reversal": reversal_system,
           "syntactic": syntactic_system}


def _read_text(path):
    """The text of a file, or of standard input for "-", decoded as strict
    UTF-8 whatever the locale; FormatError names the first bad byte."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise FormatError(f"{source} is not UTF-8: {exc.reason} at byte offset "
                          f"{exc.start}") from None


def _read_dfa(path):
    return Dfa.from_text(_read_text(path))


def _emit(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _format_word(word):
    if not word:
        return ""
    if all(len(letter) == 1 for letter in word):
        return "".join(word)
    return " ".join(word)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_witness(args):
    _emit(WITNESSES[args.family](args.n).to_text(), args.output)
    return 0


def _cmd_dialect(args):
    d = _read_dfa(args.input)
    _emit(dialect(d, LetterMap.parse(d.alphabet, args.map)).to_text(), args.output)
    return 0


def _cmd_classify(args):
    c = classify(_read_dfa(args.input))
    lines = [f"suffix_convex={str(c.suffix_convex).lower()}",
             f"left_ideal={str(c.left_ideal).lower()}",
             f"suffix_closed={str(c.suffix_closed).lower()}",
             f"suffix_free={str(c.suffix_free).lower()}",
             f"proper={str(c.proper).lower()}"]
    if c.counterexample is not None:
        (u, v, w) = c.counterexample
        lines.append(f"counterexample u={_format_word(u)} "
                     f"v={_format_word(v)} w={_format_word(w)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_complexity(args):
    d = _read_dfa(args.input)
    print(_complexity_and_atoms(d)[1] if args.reverse else complexity(d))
    return 0


def _cmd_combine(args):
    inputs = [_read_dfa(path) for path in args.inputs]
    if args.op == "star":
        if len(inputs) != 1:
            raise SconvexError("star takes exactly one input")
        result = determinize(star_nfa(inputs[0]))
    else:
        if len(inputs) != 2:
            raise SconvexError(f"{args.op} takes exactly two inputs")
        d1, d2 = inputs
        if args.op == "product":
            result = determinize(product_nfa(d1, d2, args.complete_missing))
        else:
            if args.complete_missing:
                sigma = union_alphabet(d1, d2)
                d1, d2 = complete_to(d1, sigma), complete_to(d2, sigma)
            result = direct_product(d1, d2, args.op)
    _emit(minimize(result).to_text(), args.output)
    return 0


def _cmd_semigroup(args):
    if args.cap < 1:
        raise SconvexError(f"--cap must be at least 1, got {args.cap}")
    d = _read_dfa(args.input)
    if args.count_only:
        print(semigroup_size(_letters(d), args.cap))
    else:
        _emit(transition_semigroup(d, args.cap).dump(), args.output)
    return 0


def _cmd_triples(args):
    if args.family is not None:
        if args.n is None:
            raise SconvexError("--family needs --n")
        system = SYSTEMS[args.family](args.n)
    elif args.canonical is not None:
        system = canonical_system(_read_dfa(args.canonical))
    else:
        raise SconvexError("pass --family NAME --n N, or --canonical DFA_FILE")
    if args.preorder:
        _emit(preorder_of(system).dump(), args.output)
    else:
        _emit(system.to_text(), args.output)
    return 0


def _clamp(default, args):
    start = args.min_n if args.min_n is not None else default.start
    stop = args.max_n + 1 if args.max_n is not None else default.stop
    if start >= stop:
        raise SconvexError(f"the range of n {start}..{stop - 1} is empty")
    return range(start, stop)


def _cmd_verify(args):
    if args.samples < 0:
        raise SconvexError(f"--samples must be at least 0, got {args.samples}")
    # every suite's first parameter defaults to its own range of n
    ranges = {name: _clamp(SUITES[name].__defaults__[0], args)
              for name in (SUITES if args.suite == "all" else [args.suite])}
    reports = []
    for name, r in ranges.items():
        suite = SUITES[name]
        if name in ("product", "boolean"):
            reports.extend(suite(r, r))
        elif name == "reversal":
            reports.extend(suite(r, samples=args.samples, seed=args.seed))
        else:
            reports.extend(suite(r))
    for r in reports:
        print(r.line())
    if args.json:
        Path(args.json).write_text(reports_to_json(reports), encoding="utf-8")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_random(args):
    d = random_suffix_convex(args.n, args.letters, args.seed)
    _emit(d.to_text(), args.output)
    return 0


def _cmd_probe(args):
    result = probe_conjecture(args.n)
    for line in result.lines():
        print(line)
    return 0


def _cmd_export_dot(args):
    _emit(_read_dfa(args.input).to_dot(args.name), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="sconvex",
        description="Suffix-convex language toolkit: witnesses, triple "
                    "systems, classification, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("witness", _cmd_witness, "emit a witness DFA")
    p.add_argument("--family", choices=sorted(WITNESSES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("dialect", _cmd_dialect, "rename or delete letters of a DFA")
    p.add_argument("--map", required=True,
                   help="comma list like a=e,b=f,c=-,d=- ('-' deletes)")
    p.add_argument("input", help="DFA file, or - for stdin")
    p.add_argument("-o", "--output")

    p = add("classify", _cmd_classify, "suffix-convexity classification")
    p.add_argument("input")
    p.add_argument("-o", "--output")

    p = add("complexity", _cmd_complexity, "number of states of the minimal DFA")
    p.add_argument("--reverse", action="store_true",
                   help="measure the reversed language instead")
    p.add_argument("input")

    p = add("combine", _cmd_combine, "star/product/boolean operation, minimized")
    p.add_argument("--op", required=True,
                   choices=["star", "product", *_BOOLEAN_OPS])
    p.add_argument("--complete-missing", action="store_true",
                   help="extend both alphabets with self-loop letters")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")

    p = add("semigroup", _cmd_semigroup, "transition semigroup dump or size")
    p.add_argument("--cap", type=int, default=CLOSURE_CAP,
                   help="most elements to store; with --count-only, most "
                        "image sets and most R-class representatives")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("input")
    p.add_argument("-o", "--output")

    p = add("triples", _cmd_triples, "triple system of a family or a DFA")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--family", choices=sorted(SYSTEMS))
    p.add_argument("--n", type=int)
    source.add_argument("--canonical", metavar="DFA_FILE",
                        help="largest system respected by this DFA")
    p.add_argument("--preorder", action="store_true",
                   help="emit the derived order matrix instead of triples")
    p.add_argument("-o", "--output")

    p = add("verify", _cmd_verify, "run verification suites")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--min-n", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", metavar="FILE", help="also write a JSON report")

    p = add("random", _cmd_random, "random suffix-convex DFA")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--letters", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output")

    p = add("probe-conjecture", _cmd_probe,
            "search order-generated systems for large syntactic complexity")
    p.add_argument("--n", type=int, required=True)

    p = add("export-dot", _cmd_export_dot, "emit graphviz DOT for a DFA file")
    p.add_argument("--name", default="dfa")
    p.add_argument("input")
    p.add_argument("-o", "--output")

    return parser


# built on first use by main and kept: parsing leaves it as it was
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        # what is still buffered goes out here, so that a closed pipe shows
        # below and not at exit
        sys.stdout.flush()
        return code
    except ResourceCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SconvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # no error line: fd 1 goes to the null device, so that the flush at
        # exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
