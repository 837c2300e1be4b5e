"""Deterministic and nondeterministic automata, constructions, and complexity.

States are always the integers 0..n-1 and the initial state of a DFA is
always 0.  All values are immutable after construction, so they can be
shared freely across threads; every operation below is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter, or_

from .errors import AlphabetMismatch, FormatError, NotMinimal, ResourceCap

SUBSET_CAP = 1 << 22


def _check_alphabet(alphabet):
    if not alphabet:
        raise FormatError("alphabet must contain at least one letter")
    seen = set()
    for name in alphabet:
        if name.split() != [name] or "#" in name:
            raise FormatError(f"bad letter name {name!r}")
        if name in seen:
            raise FormatError(f"duplicate letter {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Dfa:
    """A complete DFA.

    Attributes:
        n: number of states; the states are 0..n-1.
        alphabet: ordered tuple of distinct letter names.
        delta: delta[k][q] is the target of state q under letter alphabet[k].
        finals: the accepting states.

    The initial state is always 0.
    """

    n: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.n < 1:
            raise FormatError("a DFA needs at least one state")
        _check_alphabet(self.alphabet)
        if len(self.delta) != len(self.alphabet):
            raise FormatError("delta must have one row per letter")
        for row in self.delta:
            if len(row) != self.n:
                raise FormatError("each delta row must cover every state")
            for q in row:
                if not 0 <= q < self.n:
                    raise FormatError(f"transition target {q} out of range")
        for q in self.finals:
            if not 0 <= q < self.n:
                raise FormatError(f"final state {q} out of range")

    def letter_index(self, letter: str) -> int:
        try:
            return self.alphabet.index(letter)
        except ValueError:
            raise KeyError(f"no letter {letter!r}") from None

    def action(self, letter: str) -> tuple[int, ...]:
        '''The image vector of a letter.'''
        return self.delta[self.letter_index(letter)]

    def run(self, word) -> int:
        '''The state reached from the initial state on a word (iterable of letters).'''
        q = 0
        for letter in word:
            q = self.delta[self.letter_index(letter)][q]
        return q

    def accepts(self, word) -> bool:
        return self.run(word) in self.finals

    def reachable(self) -> list[int]:
        '''Reachable states in breadth-first discovery order over the alphabet order.'''
        return _table_walk((0,), list(zip(*self.delta)).__getitem__)[0]

    def to_text(self) -> str:
        lines = [f"states {self.n}",
                 "alphabet " + " ".join(self.alphabet),
                 "initial 0",
                 "final" + "".join(f" {q}" for q in sorted(self.finals))]
        lines += [f"{q} {letter} {t}" for q, targets in enumerate(zip(*self.delta))
                  for letter, t in zip(self.alphabet, targets)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dfa":
        return _parse_dfa(text)

    def to_dot(self, name: str = "dfa") -> str:
        """Graphviz DOT: one node per state, doubled when final, and one
        edge per state and target, labelled with its letters in alphabet
        order; each distinct label is quoted once.  The graph's name must
        be a plain DOT identifier and not a DOT keyword, or FormatError
        is raised."""
        return _dfa_dot(self, name)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic automaton.

    delta[q][k] is the set of targets of state q under letter alphabet[k].
    """

    n: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[frozenset[int], ...], ...]
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta",
                           tuple(tuple(frozenset(s) for s in row) for row in self.delta))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.n < 1:
            raise FormatError("an NFA needs at least one state")
        _check_alphabet(self.alphabet)
        if len(self.delta) != self.n:
            raise FormatError("delta must cover every state")
        everything = [q for row in self.delta for s in row for q in s]
        everything += list(self.initials) + list(self.finals)
        for q in everything:
            if not 0 <= q < self.n:
                raise FormatError(f"state {q} out of range")


# ---------------------------------------------------------------------------
# text format

def _text_rows(text):
    """The non-empty lines of a text file, comments cut and whitespace
    stripped, and where(i): the 1-based line number of row i.

    Line numbers are only needed for an error, so where(i) finds them by
    scanning the lines again instead of storing one per row.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    stripped = list(map(str.strip, lines))
    rows = list(filter(None, stripped))

    def where(i):
        return [lineno for lineno, line in enumerate(stripped, start=1) if line][i]

    return rows, where


def _parse_dfa(text):
    """The Dfa a text file describes, or FormatError naming the first bad line.

    Each transition line is split as it is read, so no token list outlives
    its line, and a line number is worked out only for an error.
    """
    rows, where = _text_rows(text)
    if len(rows) < 4:
        raise FormatError("file too short: need states, alphabet, initial, final")

    head = rows[0].split()
    if head[0] != "states" or len(head) != 2:
        raise FormatError(f"line {where(0)}: expected 'states <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"line {where(0)}: state count must be an integer") from None
    if n < 1:
        raise FormatError(f"line {where(0)}: state count must be positive")

    head = rows[1].split()
    if head[0] != "alphabet" or len(head) < 2:
        raise FormatError(f"line {where(1)}: expected 'alphabet <l1> <l2> ...'")
    alphabet = tuple(head[1:])
    _check_alphabet(alphabet)

    if rows[2].split() != ["initial", "0"]:
        raise FormatError(f"line {where(2)}: expected 'initial 0'")

    head = rows[3].split()
    if head[0] != "final":
        raise FormatError(f"line {where(3)}: expected 'final ...'")
    try:
        finals = frozenset(int(tok) for tok in head[1:])
    except ValueError:
        raise FormatError(f"line {where(3)}: final states must be integers") from None
    for q in finals:
        if not 0 <= q < n:
            raise FormatError(f"line {where(3)}: final state {q} out of range")

    # a full table needs a line per cell; checking first keeps a huge
    # declared size from allocating a table its file cannot fill
    cells = n * len(alphabet)
    if len(rows) - 4 < cells:
        raise FormatError(f"incomplete transition table: {len(rows) - 4} "
                          f"transition lines, need {cells}")
    column = {letter: [None] * n for letter in alphabet}
    for i in range(4, len(rows)):
        toks = rows[i].split()
        if len(toks) != 3:
            raise FormatError(f"line {where(i)}: expected '<state> <letter> <state>'")
        src_s, letter, dst_s = toks
        try:
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise FormatError(f"line {where(i)}: states must be integers") from None
        row = column.get(letter)
        if row is None:
            raise FormatError(f"line {where(i)}: unknown letter {letter!r}")
        if not 0 <= src < n or not 0 <= dst < n:
            raise FormatError(f"line {where(i)}: state out of range")
        if row[src] is not None:
            raise FormatError(f"line {where(i)}: duplicate transition for ({src}, {letter})")
        row[src] = dst
    # at least one line per cell and no cell twice: the table is full
    return Dfa(n, alphabet, list(column.values()), finals)


# ---------------------------------------------------------------------------
# DOT export

def _quote(s):
    return '"' + str(s).replace('\\', '\\\\').replace('"', '\\"') + '"'


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dfa_dot(d, name):
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        raise FormatError(f"graph name {name!r} must be a DOT identifier "
                          "([A-Za-z_][A-Za-z0-9_]*) and not a DOT keyword")
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             '  __start [shape=point, label=""];']
    lines += [f"  {q} [shape={'doublecircle' if q in d.finals else 'circle'}];"
              for q in range(d.n)]
    lines.append("  __start -> 0;")
    # one edge per target, its letters merged in alphabet order; a label
    # recurs on many states, so each is quoted once
    quoted = {}
    for q, targets in enumerate(zip(*d.delta)):
        grouped = {}
        for letter, dst in zip(d.alphabet, targets):
            grouped[dst] = grouped[dst] + "," + letter if dst in grouped else letter
        for dst in sorted(grouped):
            letters = grouped[dst]
            if letters not in quoted:
                quoted[letters] = _quote(letters)
            lines.append(f"  {q} -> {dst} [label={quoted[letters]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# core constructions

def _table_walk(starts, step, cap=None, refusal=None):
    """The nodes reachable from `starts`, where step(node) gives a node's
    targets in letter order: states, subsets, state pairs and image sets.

    Returns (order, flat): the nodes in breadth-first discovery order, the
    starts first, in order and without repeats, then each node's new
    targets in letter order; and the state-major table, in which node i
    goes to node flat[i*k + j] under letter j.  With a cap, a node found
    past the first cap (never a start) raises ResourceCap with
    refusal.format(cap=cap, i=i), i the index of the node being expanded.
    """
    index = {}
    for node in starts:
        index.setdefault(node, len(index))
    order = list(index)
    flat = []
    (get, append, record) = (index.get, order.append, flat.append)
    # the loop reads each node appended while it runs
    for i, node in enumerate(order):
        for t in step(node):
            j = get(t)
            if j is None:
                j = index[t] = len(order)
                if cap is not None and j >= cap:
                    raise ResourceCap(refusal.format(cap=cap, i=i))
                append(t)
            record(j)
    return order, flat


def _refine(d: Dfa):
    """Moore refinement (Moore 1956) of d's reachable part.

    Returns (reach, flat, block): the reachable states in BFS discovery
    order, renumbered 0..r-1 by that order; the state-major table, in which
    state q's targets are flat[q*k:(q+1)*k]; and the Nerode block of each
    state, blocks numbered 0, 1, ... by first appearance in that order.
    """
    reach, flat = _table_walk((0,), list(zip(*d.delta)).__getitem__)
    return reach, flat, _moore(flat, len(d.alphabet), [int(q in d.finals) for q in reach])


def _moore(flat, k, block):
    """The Moore rounds on a state-major table whose states are all
    reachable, from the finality block (0 or 1) of each state; returns the
    Nerode block of each state, numbered by first appearance."""
    # a state's signature is its block and its targets' blocks, and each
    # distinct signature is a block of the next round, numbered by first
    # appearance; zipping k copies of one iterator deals the targets out k
    # at a time, so a round does no per-letter work.  The rounds stop once
    # the partition is stable or discrete, as a discrete one cannot split
    nblocks = len(set(block))
    if nblocks == len(block):
        # discrete before any round (one state, or two split by finality)
        return list(range(nblocks))
    # two or more states, so flat has two or more entries and the getter
    # returns a tuple
    gather = itemgetter(*flat)
    while True:
        sigs = {}
        targets = iter(gather(block))
        block = [sigs.setdefault(sig, len(sigs)) for sig in zip(block, *[targets] * k)]
        if len(sigs) in (nblocks, len(block)):
            return block
        nblocks = len(sigs)


def minimize(d: Dfa) -> Dfa:
    """The canonical minimal complete DFA of L(d).

    States of the result are numbered by breadth-first discovery order over
    the alphabet order, so equal languages give byte-identical automata.
    They are the blocks of a Moore refinement of the reachable part, which
    stops at the first partition that is stable or has every state in a
    block of its own.
    """
    k = len(d.alphabet)
    reach, flat, block = _refine(d)
    # numbering by first appearance in the BFS order `reach` is the BFS
    # numbering of the quotient: a block's first member is reached from the
    # first member of the earliest block with an edge into it
    order = []
    for q, b in enumerate(block):
        if b == len(order):
            order.append(q)
    new = list(map(block.__getitem__, flat))
    delta = tuple(zip(*[new[q * k:(q + 1) * k] for q in order]))
    finals = frozenset(i for i, q in enumerate(order) if reach[q] in d.finals)
    return Dfa(len(order), d.alphabet, delta, finals)


def complexity(d: Dfa) -> int:
    '''Number of states of the minimal complete DFA of L(d): the number of
    Moore blocks, counted without building the quotient.'''
    return max(_refine(d)[2]) + 1


def _mask(states) -> int:
    return sum(1 << q for q in states)


def _succ(m: Nfa):
    '''succ[q][k]: the mask of state q's successors under letter k.'''
    return [tuple(map(_mask, row)) for row in m.delta]


def _subset_walk(succ, start, k):
    """The accessible subset construction over bit masks, from the subset
    `start`, where succ[q][j] is state q's successor mask under letter j.

    Returns (order, flat): the subsets in breadth-first discovery order
    with the alphabet order, and the state-major table, in which subset i
    goes to subset flat[i*k + j] under letter j.  Raises ResourceCap,
    saying how many subsets were fully expanded, when more than SUBSET_CAP
    subsets are discovered.
    """
    empty = (0,) * k
    # chunk[pos << 8 | byte]: the successors, under every letter, of the
    # states byte * 2^(8 pos) selects, filled in on first use
    chunk = {}

    def successors(pos, byte):
        key = pos << 8 | byte
        out = chunk.get(key)
        if out is None:
            low = byte & -byte
            rest = successors(pos, byte ^ low) if byte != low else empty
            out = tuple(map(or_, rest, succ[pos * 8 + low.bit_length() - 1]))
            chunk[key] = out
        return out

    def step(S):
        targets = empty
        while S:
            pos = ((S & -S).bit_length() - 1) >> 3
            byte = S >> (pos << 3) & 255
            S ^= byte << (pos << 3)
            vec = successors(pos, byte)
            targets = vec if targets is empty else tuple(map(or_, targets, vec))
        return targets

    return _table_walk((start,), step, SUBSET_CAP,
                       "subset construction exceeded {cap} subsets ({i} expanded)")


def determinize(m: Nfa) -> Dfa:
    """Accessible subset construction.

    Subsets are numbered by breadth-first discovery with the alphabet order;
    the empty subset appears only when it is reachable.  Raises ResourceCap,
    saying how many subsets were fully expanded, when more than SUBSET_CAP
    subsets are discovered.
    """
    k = len(m.alphabet)
    order, flat = _subset_walk(_succ(m), _mask(m.initials), k)
    fmask = _mask(m.finals)
    finals = frozenset(i for i, S in enumerate(order) if S & fmask)
    return Dfa(len(order), m.alphabet, [flat[j::k] for j in range(k)], finals)


def nfa_complexity(m: Nfa) -> int:
    """complexity(determinize(m)), with the same ResourceCap: the Moore
    rounds run on the subset walk's own table, whose subsets are all
    reachable, so no DFA is built and no second walk is made."""
    k = len(m.alphabet)
    order, flat = _subset_walk(_succ(m), _mask(m.initials), k)
    fmask = _mask(m.finals)
    return max(_moore(flat, k, [int(S & fmask != 0) for S in order])) + 1


def _into(t, finals, entry):
    """The targets of a letter edge into t: entry joins t when t is final,
    so a run that has just read a word of the first language may go on
    from entry."""
    return frozenset({t, entry}) if t in finals else frozenset({t})


def star_nfa(d: Dfa) -> Nfa:
    """The NFA for L(d)*.

    Adds a new state n that is both initial and final and copies state 0's
    outgoing transitions; every letter edge into a final state of d also
    goes back to state 0.  When L(d) is empty the result accepts exactly
    the empty word.
    """
    delta = [tuple(_into(row[q], d.finals, 0) for row in d.delta)
             for q in (*range(d.n), 0)]
    return Nfa(d.n + 1, d.alphabet, tuple(delta),
               initials=frozenset({d.n}), finals=d.finals | {d.n})


def complete_to(d: Dfa, alphabet) -> Dfa:
    '''Extend d to a larger alphabet; absent letters act as self-loops.'''
    alphabet = tuple(alphabet)
    if not set(d.alphabet) <= set(alphabet):
        raise AlphabetMismatch("target alphabet must contain every existing letter")
    ident = tuple(range(d.n))
    have = {letter: d.delta[k] for k, letter in enumerate(d.alphabet)}
    delta = tuple(have.get(letter, ident) for letter in alphabet)
    return Dfa(d.n, alphabet, delta, d.finals)


def union_alphabet(d1: Dfa, d2: Dfa) -> tuple[str, ...]:
    return d1.alphabet + tuple(a for a in d2.alphabet if a not in set(d1.alphabet))


def product_nfa(d1: Dfa, d2: Dfa, complete_missing: bool = False) -> Nfa:
    """The NFA for the concatenation L(d1) L(d2).

    d2's states follow d1's, shifted by m = d1.n.  Every letter edge into a
    final state of d1 also goes to m, d2's initial state, and m is initial
    too when d1 accepts the empty word.  With complete_missing, both
    automata are first extended to the union alphabet with missing letters
    acting as self-loops; otherwise the alphabets must be equal as sets.
    """
    if complete_missing:
        sigma = union_alphabet(d1, d2)
        d1 = complete_to(d1, sigma)
        d2 = complete_to(d2, sigma)
    elif set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatch("concatenation needs equal alphabets "
                               "(pass complete_missing=True for the self-loop convention)")
    sigma = d1.alphabet
    k2 = [d2.letter_index(letter) for letter in sigma]
    m = d1.n
    delta = []
    for q in range(m):
        delta.append(tuple(_into(row[q], d1.finals, m) for row in d1.delta))
    for q in range(d2.n):
        delta.append(tuple(frozenset({m + d2.delta[k2[k]][q]}) for k in range(len(sigma))))
    return Nfa(m + d2.n, sigma, tuple(delta),
               initials=_into(0, d1.finals, m), finals=frozenset(m + q for q in d2.finals))


_BOOLEAN_OPS = {
    "union": lambda a, b: a or b,
    "xor": lambda a, b: a != b,
    "diff": lambda a, b: a and not b,
    "intersect": lambda a, b: a and b,
}


def _pair_walk(d1: Dfa, d2: Dfa):
    """The accessible product of d1 and d2, whose alphabets are equal as
    sets, with d2's letters matched to d1's by name.

    Returns (pairs, flat): the state pairs (p, q) in breadth-first
    discovery order with d1's letter order, and the state-major table, in
    which pair i goes to pair flat[i*k + j] under letter j.
    """
    one = list(zip(*d1.delta))
    two = list(zip(*map(d2.action, d1.alphabet)))
    return _table_walk(((0, 0),), lambda pq: zip(one[pq[0]], two[pq[1]]))


def _boolean_op(op: str):
    try:
        return _BOOLEAN_OPS[op]
    except KeyError:
        raise ValueError(f"unknown boolean operation {op!r}") from None


def _pair_finals(d1: Dfa, d2: Dfa, pairs, combine):
    '''The finality (0 or 1) of each pair (p, q) under combine.'''
    (f1, f2) = (d1.finals, d2.finals)
    return [int(combine(p in f1, q in f2)) for p, q in pairs]


def _pair_complexity(d1: Dfa, d2: Dfa, walk, op: str) -> int:
    """complexity(direct_product(d1, d2, op)), read off walk, which is
    _pair_walk(d1, d2): the Moore rounds run on the walk's own table, whose
    pairs are all reachable, so one walk serves every op and no DFA is
    built."""
    (pairs, flat) = walk
    finals = _pair_finals(d1, d2, pairs, _boolean_op(op))
    return max(_moore(flat, len(d1.alphabet), finals)) + 1


def direct_product(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """The accessible product DFA for a boolean operation on L(d1), L(d2).

    op is one of 'union', 'xor', 'diff', 'intersect'.  Alphabets must be
    equal as sets; letters are matched by name and the result uses d1's
    letter order.  The states are numbered as _pair_walk discovers them.
    """
    combine = _boolean_op(op)
    if set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatch("boolean operations need equal alphabets")
    k = len(d1.alphabet)
    (pairs, flat) = _pair_walk(d1, d2)
    finals = _pair_finals(d1, d2, pairs, combine)
    return Dfa(len(pairs), d1.alphabet, [flat[j::k] for j in range(k)],
               frozenset(i for i, f in enumerate(finals) if f))


def reachable_tuples(rows, seeds, parent=None):
    """Yield the state tuples reachable from `seeds`, breadth first.

    Letter k takes (x1, ..., xm) to (rows[k][x1], ..., rows[k][xm]), for
    tuples of any length m.  The seeds come first, in order and without
    repeats, then each new tuple as it is discovered, so a caller that stops
    early skips the rest of the walk, and `seeds` may itself be lazy.  When
    `parent` is a dict, it is filled with seed -> None and
    tuple -> (previous tuple, k), enough to spell a word back to a seed.
    """
    if parent is None:
        parent = {}
    # column[q][k] is rows[k][q], so zipping a tuple's columns steps it by
    # every letter at once
    column = list(zip(*rows)).__getitem__
    order = []
    for seed in seeds:
        if seed not in parent:
            parent[seed] = None
            order.append(seed)
            yield seed
    for node in order:  # grows while it is walked
        for k, t in enumerate(zip(*map(column, node))):
            if t not in parent:
                parent[t] = (node, k)
                order.append(t)
                yield t


def is_minimal(d: Dfa) -> bool:
    '''Whether d has no unreachable state and no two equivalent ones: its
    complexity is its number of states.'''
    return complexity(d) == d.n


def _atoms(d: Dfa, reach, flat) -> int:
    """The number of atoms of L(d), from _refine(d)'s reachable part.

    The reversal of that part is walked by one subset construction from
    its final states.  The part is accessible, so the construction is
    already minimal (Brzozowski 1962): its size is the complexity of
    L(d)^R, which is the atom count.
    """
    k = len(d.alphabet)
    # pred[q][j]: the states that letter j takes to q
    pred = [[0] * k for _ in reach]
    for i, t in enumerate(flat):
        pred[t][i % k] |= 1 << (i // k)
    start = _mask(q for q, s in enumerate(reach) if s in d.finals)
    return len(_subset_walk(pred, start, k)[0])


def _complexity_and_atoms(d: Dfa):
    '''(complexity(d), atom count of L(d)) for any d, minimal or not, from
    one refinement and one subset walk.'''
    reach, flat, block = _refine(d)
    return max(block) + 1, _atoms(d, reach, flat)


def atom_count(d: Dfa) -> int:
    """The number of atoms of L(d), which equals the complexity of L(d)^R.

    Requires a minimal DFA, since atoms are defined over distinct quotients;
    the one refinement that checks this also gives the table that `_atoms`
    reverses, so no reversal NFA or DFA is built.
    """
    reach, flat, block = _refine(d)
    if max(block) + 1 != d.n:
        raise NotMinimal("atom_count needs a minimal DFA")
    return _atoms(d, reach, flat)
