"""The text readers, `Dfa.to_text`, the DOT writer and `TripleSystem.to_text`
against the versions they replaced (parent_kernels.py): on valid files and
on files mangled line by line, the same Dfa or TripleSystem or the same
error message, line number included, whatever the size of the chunks the
readers cut the text into and the writers join their lines in;
byte-identical text and DOT; the command line exits 2 on a mangled file,
quickly; and bounds on the memory that reading and writing a big DFA take."""

import functools
import io
import random
import re
import tempfile
import time
import tracemalloc
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from sconvex import (Dfa, TripleSystem, automata, determinize, minimize,
                     star_nfa, star_system, syntactic_system)
from sconvex.cli import main
from sconvex.witnesses import (LetterMap, dialect, reversal_witness,
                               star_witness, syntactic_witness)

from conftest import random_dfa
from parent_kernels import (parent_dfa_dot, parent_parse_dfa, parent_to_text,
                            parent_triple_system_from_text, parent_triple_to_text)

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


# sizes of the readers' chunks, in characters, and of the writers' joins, in
# lines, small enough that a file spans many chunks and a row or a header
# may end a chunk; None leaves the library's own sizes
CHUNKS = (None, 1, 2, 7, 64)


def _chunked(size):
    """A context in which the readers cut the text every `size` characters
    and the writers join `size` lines at a time."""
    stack = ExitStack()
    if size is not None:
        stack.enter_context(mock.patch.object(automata, "_TEXT_CHUNK", size))
        stack.enter_context(mock.patch.object(automata, "_CHUNK", size))
    return stack


def _same_reading(text):
    """Both readers agree with their parents on text at every chunk size."""
    want_dfa = _outcome(parent_parse_dfa, text)
    want_system = _outcome(parent_triple_system_from_text, text)
    for size in CHUNKS:
        with _chunked(size):
            assert _outcome(Dfa.from_text, text) == want_dfa, size
            assert _outcome(TripleSystem.from_text, text) == want_system, size


@settings(max_examples=400, deadline=None)
@given(dfa_files())
def test_dfa_reader_matches_the_parent(text):
    assert _outcome(Dfa.from_text, text) == _outcome(parent_parse_dfa, text)


@settings(max_examples=300, deadline=None)
@given(triple_files())
def test_triple_reader_matches_the_parent(text):
    assert _outcome(TripleSystem.from_text, text) == \
        _outcome(parent_triple_system_from_text, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(dfa_files(), triple_files()))
def test_readers_match_the_parent_at_every_chunk_size(text):
    _same_reading(text)


# every line break of str.splitlines but "\n", which alone ends a chunk
BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")


def _broken_texts(lines):
    """lines joined by each line break, alone and alternating with "\n",
    then with comments and blank lines between them."""
    noted = []
    for i, line in enumerate(lines):
        noted += [line + (" # note" if i % 3 == 0 else "")]
        if i % 4 == 1:
            noted += ["", "  # a comment", "\t"]
    for body in (lines, noted):
        for brk in BREAKS:
            yield brk.join(body) + brk
            yield "".join(line + (brk if i % 2 else "\n") for i, line in enumerate(body))


def test_readers_match_the_parent_across_every_line_break():
    rng = random.Random(35)
    d = random_dfa(rng, 5, 3)
    for lines in (d.to_text().splitlines(), syntactic_system(4).to_text().splitlines()):
        for text in _broken_texts(lines):
            _same_reading(text)
            _same_reading(text.replace("0", "x", 1))
            _same_reading(text[:len(text) // 2])


@functools.lru_cache(maxsize=None)
def _long_dfa():
    # 384 states and six letters: 2,304 transition lines, 26 kB of text,
    # two chunks at the library's chunk size
    return minimize(determinize(star_nfa(star_witness(9))))


def _deep_errors(lines):
    """lines with a fault deep in the table, alone and after a deletion
    that leaves the table one line short."""
    deep = len(lines) - 37
    # a bad token, an unknown letter, a state out of range, a short line, a
    # duplicate of the line before, and a blank line
    for fault in ("x", "5 z 0", "0 a 384", "0 a", lines[deep - 1], ""):
        faulty = lines[:deep] + [fault] + lines[deep + 1:]
        yield faulty
        yield faulty[:9] + faulty[10:]  # the table one line short
    yield lines[:-1]
    yield lines[:4]


def test_dfa_reader_matches_the_parent_on_errors_deep_in_a_long_file():
    lines = _long_dfa().to_text().splitlines()
    for body in _deep_errors(lines):
        for brk in ("\n", "\r\n"):
            text = brk.join(body) + brk
            want = _outcome(parent_parse_dfa, text)
            for size in CHUNKS:
                with _chunked(size):
                    assert _outcome(Dfa.from_text, text) == want, size


def test_triple_reader_matches_the_parent_on_errors_deep_in_a_long_file():
    # 3,276 triples, 26 kB of text, two chunks at the library's chunk size;
    # a malformed line ranks before a system over the cap, and that before
    # a state out of range
    lines = star_system(28).to_text().splitlines()
    deep = len(lines) - 37
    heads = (lines[:2], [lines[0], "final 99"], ["states 1001", lines[1]])
    for fault in ("x", "1 2", "1 2 3 4", "1 2 q", "1 2 28", "-1 0 1", ""):
        for head in heads:
            early = "0 1 29" if fault == "-1 0 1" else "# an early comment"
            body = head + lines[2:5] + [early] + lines[5:deep] + [fault] + lines[deep + 1:]
            text = "\n".join(body) + "\n"
            want = _outcome(parent_triple_system_from_text, text)
            for size in CHUNKS:
                with _chunked(size):
                    assert _outcome(TripleSystem.from_text, text) == want, size


def test_writers_match_the_parent_at_every_chunk_size():
    dfas = [*_writer_inputs(), _long_dfa()]
    systems = [star_system(6), syntactic_system(7), TripleSystem(1, {0}, [1])]
    for size in CHUNKS:
        with _chunked(size):
            for d in dfas:
                assert d.to_text() == parent_to_text(d), size
                assert d.to_dot("W") == parent_dfa_dot(d, "W"), size
            for system in systems:
                text = system.to_text()
                assert text == parent_triple_to_text(system), size
                assert TripleSystem.from_text(text) == system, size


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
    # letter names the DOT label must quote or merge around, and braces,
    # which the text writer's format string must double
    names = ('"', ",", "\\", 'a"b', "a,b", '\\"', "x", "{", "}}", "{0}", "{x!r}")
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


@functools.lru_cache(maxsize=None)
def _big_star_closure():
    # the 6,144-state star closure of the four-letter star_witness(13):
    # 24,576 transition lines, 295 KB
    w = star_witness(13)
    return minimize(determinize(star_nfa(
        dialect(w, LetterMap.keep(w.alphabet, ("a", "b", "c", "d", None, None))))))


def _peak(f):
    tracemalloc.start()
    try:
        result = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_parsing_the_big_star_closure_peaks_under_4_mb():
    # a (line number, token list) pair per line took the peak to 9.9 MB
    big = _big_star_closure()
    text = big.to_text()
    parsed, peak = _peak(lambda: Dfa.from_text(text))
    assert parsed == big
    assert peak < 4_000_000


# tracemalloc peaks, in bytes, of the readers and writers that held one
# string per line, on the big star closure
LINE_LIST_PEAKS = {"parse": 3_271_053, "to_text": 2_261_232, "to_dot": 3_814_619}


def test_reading_and_writing_the_big_star_closure_peaks_at_half_a_line_list():
    # the text, the table and the rows of one chunk: about 1.0 MB to parse,
    # 0.6 MB to write the text and 1.4 MB to write the DOT
    big = _big_star_closure()
    text, peak = _peak(big.to_text)
    assert text == parent_to_text(big)
    assert peak <= LINE_LIST_PEAKS["to_text"] / 2
    parsed, peak = _peak(lambda: Dfa.from_text(text))
    assert parsed == big
    assert peak <= LINE_LIST_PEAKS["parse"] / 2
    dot, peak = _peak(big.to_dot)
    assert dot == parent_dfa_dot(big, "dfa")
    assert peak <= LINE_LIST_PEAKS["to_dot"] / 2


def test_the_parsed_big_star_closure_shares_one_int_per_state():
    parsed = Dfa.from_text(_big_star_closure().to_text())
    targets = [q for row in parsed.delta for q in row]
    assert len({id(q) for q in targets}) == len(set(targets)) > 6000
