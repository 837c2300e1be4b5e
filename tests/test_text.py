"""The text readers, `Dfa.to_text` and the DOT writer against the versions
they replaced (parent_kernels.py): on valid files and on files mangled line
by line, the same Dfa or TripleSystem or the same error message, line number
included; byte-identical text and DOT; the command line exits 2 on a mangled
file, quickly; and a bound on the memory that parsing a big DFA takes."""

import io
import random
import re
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sconvex import (Dfa, TripleSystem, determinize, minimize, star_nfa,
                     star_system, syntactic_system)
from sconvex.cli import main
from sconvex.witnesses import (LetterMap, dialect, reversal_witness,
                               star_witness, syntactic_witness)

from conftest import random_dfa
from parent_kernels import (parent_dfa_dot, parent_parse_dfa, parent_to_text,
                            parent_triple_system_from_text)

# what a mutation may put in place of a token: non-integers, integers int()
# reads in odd spellings, states out of range for small files, letters the
# alphabet lacks or may not have, and comment marks
JUNK = ("x", "1.5", "-1", "+1", "007", "1_0", "\u0661", "9", "99999", "z",
        'a"b', "a,b", "\\", "a#", "#", "")
# spaces and line breaks that splitlines() or split() treat specially
SEPARATORS = ("\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028",
              "\u3000", "  ", " # ")
NEWLINES = ("\n", "\r\n", "\r", "\x85", "\u2028")


@st.composite
def mangled(draw, lines):
    """lines with up to four line-level mutations, joined by one kind of
    line break."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "token",
                                     "comment", "blank", "separator")))
        if not lines:
            lines.append(draw(st.sampled_from(JUNK)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(toks)
        elif kind == "comment":
            lines.insert(i, draw(st.sampled_from(("# note", "#", "  # 0 a 1"))))
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(("", "   ", "\t", "\x1f"))))
        else:
            lines[i] = lines[i].replace(" ", draw(st.sampled_from(SEPARATORS)), 1)
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


@st.composite
def dfa_files(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    d = random_dfa(rng, rng.randint(1, 5), rng.randint(1, 3))
    return draw(mangled(d.to_text().splitlines()))


@st.composite
def triple_files(draw):
    n = draw(st.integers(3, 5))
    system = draw(st.sampled_from((star_system, syntactic_system)))(n)
    return draw(mangled(system.to_text().splitlines()))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(dfa_files())
def test_dfa_reader_matches_the_parent(text):
    assert _outcome(Dfa.from_text, text) == _outcome(parent_parse_dfa, text)


@settings(max_examples=300, deadline=None)
@given(triple_files())
def test_triple_reader_matches_the_parent(text):
    assert _outcome(TripleSystem.from_text, text) == \
        _outcome(parent_triple_system_from_text, text)


@settings(max_examples=60, deadline=None)
@given(dfa_files(), st.sampled_from(("complexity", "classify", "export-dot")))
def test_cli_on_mangled_files_exits_2_at_once(text, command):
    # the file is read back as the cli reads it, with universal newlines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dfa.txt"
        path.write_text(text, encoding="utf-8")
        want = _outcome(parent_parse_dfa, path.read_text(encoding="utf-8"))
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
        elapsed = time.process_time() - start
    assert elapsed < 1.0
    if isinstance(want, Dfa):
        assert code == 0 and err.getvalue() == ""
        if command == "export-dot":
            assert out.getvalue() == parent_dfa_dot(want, "dfa")
    else:
        assert code == 2
        assert err.getvalue() == f"error: {want[1]}\n"


def _writer_inputs():
    rng = random.Random(13)
    yield from (w(n) for n in range(3, 10)
                for w in (star_witness, reversal_witness, syntactic_witness)
                if n >= 4 or w is not reversal_witness)
    yield from (random_dfa(rng, rng.randint(1, 12), rng.randint(1, 8))
                for _ in range(200))
    # letter names the DOT label must quote or merge around
    names = ('"', ",", "\\", 'a"b', "a,b", '\\"', "x")
    for _ in range(50):
        k = rng.randint(1, len(names))
        n = rng.randint(1, 6)
        yield Dfa(n, rng.sample(names, k),
                  [[rng.randrange(n) for _ in range(n)] for _ in range(k)],
                  {q for q in range(n) if rng.random() < 0.4})


def test_text_and_dot_writers_match_the_parent():
    for d in _writer_inputs():
        text = d.to_text()
        assert text == parent_to_text(d)
        assert Dfa.from_text(text) == d
        assert d.to_dot() == parent_dfa_dot(d, "dfa")
        assert d.to_dot("W") == parent_dfa_dot(d, "W")


EDGE = re.compile(r'  (\d+) -> (\d+) \[label="((?:[^"\\]|\\.)*)"\];')


def test_dot_labels_read_back_to_their_letters():
    # a name may end in a backslash or hold a quote; each label must still
    # close where it should, and unescape to its letters joined by commas
    for d in [*_writer_inputs(), Dfa(1, ["a\\"], [[0]], []),
              Dfa(2, ['\\"', "\\\\", "b"], [[1, 0], [1, 1], [0, 0]], [1])]:
        want = {}
        for letter, row in zip(d.alphabet, d.delta):
            for q, dst in enumerate(row):
                want.setdefault((q, dst), []).append(letter)
        got = {}
        for line in d.to_dot().splitlines():
            if re.match(r"  \d+ -> ", line):
                src, dst, label = EDGE.fullmatch(line).groups()
                got[int(src), int(dst)] = re.sub(r"\\(.)", r"\1", label)
        assert got == {edge: ",".join(letters) for edge, letters in want.items()}


def test_parsing_the_big_star_closure_peaks_under_4_mb():
    # the 6,144-state star closure of the four-letter star_witness(13):
    # 24,576 transition lines, 295 KB; a (line number, token list) pair per
    # line took the peak to 9.9 MB
    w = star_witness(13)
    big = minimize(determinize(star_nfa(
        dialect(w, LetterMap.keep(w.alphabet, ("a", "b", "c", "d", None, None))))))
    text = big.to_text()
    tracemalloc.start()
    try:
        parsed = Dfa.from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == big
    assert peak < 4_000_000
