"""The subset construction and Moore minimization that `sconvex.automata`
used before its bit-mask and list-based kernels, kept verbatim as the pinned
reference for the cross-checks in test_kernels.py, except that the subset
construction's two epsilon-closure calls are plain frozensets, since an
`Nfa` has no epsilon edges.  `parent_minimize` finds the reachable states
with its own copy of the loop `Dfa.reachable` ran before it was built on
the table walk, so it shares no walk with the minimization it checks.
Also the respecting-map enumerator that
`sconvex.triples` used before it checked Condition 1 as mask intersections,
which tested each candidate value against each scan triple.  And the text
parsers and writers from before the text layer read its lines without
storing a token list per line: `parent_parse_dfa`, `parent_to_text` and
`parent_dfa_dot` are `sconvex.automata`'s `_parse_dfa`, `Dfa.to_text` and
`_dfa_dot`, and
`parent_triple_system_from_text` is `TripleSystem.from_text`, with the
helpers they used.  And `parent_random_order`, the random partial order of
`sconvex.harness._random_order` from when it built its order's matrix.
And `parent_direct_product`, `sconvex.automata.direct_product` from before
it was built on the pair walk that the boolean suite shares.
And `reverse_nfa`, the reversal NFA that `sconvex.automata` built before
atom counting walked the reversal of its refinement's table: the reference
for atom counts past the signature oracle's reach and for the Brzozowski
property tests.
And `parent_closure`, `sconvex.transformations.closure` from when it walked
the semigroup one breadth-first layer at a time with frontier lists.

This is not an independent oracle: it shares the algorithms it checks.
The oracles in oracles.py avoid subset construction and refinement.
"""

from sconvex.automata import SUBSET_CAP, Dfa, Nfa, _check_alphabet
from sconvex.errors import AlphabetMismatch, FormatError, ResourceCap
from sconvex.transformations import Semigroup, _image_bytes
from sconvex.triples import CLOSURE_CAP, TripleSystem, _set_bits


def parent_minimize(d: Dfa) -> Dfa:
    """The canonical minimal complete DFA of L(d).

    States of the result are numbered by breadth-first discovery order over
    the alphabet order, so equal languages give byte-identical automata.
    """
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for row in d.delta:
            t = row[q]
            if t not in seen:
                seen.add(t)
                order.append(t)
    reach = order
    # Moore partition refinement on the reachable part
    block = {q: int(q in d.finals) for q in reach}
    nblocks = len(set(block.values()))
    while True:
        sigs = {}
        newblock = {}
        for q in reach:
            sig = (block[q],) + tuple(block[row[q]] for row in d.delta)
            newblock[q] = sigs.setdefault(sig, len(sigs))
        block = newblock
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    # renumber blocks by BFS from the initial block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = [block[0]]
    number = {block[0]: 0}
    i = 0
    while i < len(order):
        b = order[i]
        i += 1
        q = rep[b]
        for row in d.delta:
            t = block[row[q]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
    m = len(order)
    delta = tuple(tuple(number[block[row[rep[b]]]] for b in order) for row in d.delta)
    finals = frozenset(number[b] for b in order if rep[b] in d.finals)
    return Dfa(m, d.alphabet, delta, finals)


def parent_determinize(m: Nfa, cap: int = SUBSET_CAP) -> Dfa:
    """Accessible subset construction.

    Subsets are numbered by breadth-first discovery with the alphabet order;
    the empty subset appears only when it is reachable.  Raises ResourceCap
    when more than `cap` subsets are discovered.
    """
    start = frozenset(m.initials)
    order = [start]
    index = {start: 0}
    rows = [[] for _ in m.alphabet]
    i = 0
    while i < len(order):
        S = order[i]
        i += 1
        for k in range(len(m.alphabet)):
            targets = set()
            for q in S:
                targets.update(m.delta[q][k])
            T = frozenset(targets)
            if T not in index:
                if len(order) >= cap:
                    raise ResourceCap(f"subset construction exceeded {cap} subsets")
                index[T] = len(order)
                order.append(T)
            rows[k].append(index[T])
    finals = frozenset(i for i, S in enumerate(order) if S & m.finals)
    return Dfa(len(order), m.alphabet, tuple(tuple(r) for r in rows), finals)


_BOOLEAN_OPS = {
    "union": lambda a, b: a or b,
    "xor": lambda a, b: a != b,
    "diff": lambda a, b: a and not b,
    "intersect": lambda a, b: a and b,
}


def parent_direct_product(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """The accessible product DFA for a boolean operation on L(d1), L(d2).

    op is one of 'union', 'xor', 'diff', 'intersect'.  Alphabets must be
    equal as sets; letters are matched by name and the result uses d1's
    letter order.
    """
    try:
        combine = _BOOLEAN_OPS[op]
    except KeyError:
        raise ValueError(f"unknown boolean operation {op!r}") from None
    if set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatch("boolean operations need equal alphabets")
    sigma = d1.alphabet
    k2 = [d2.letter_index(letter) for letter in sigma]
    # its own loop, not reachable_tuples on the disjoint union: that walk
    # gave the same DFA on 8,000 random cases but took about 1.5 times the
    # CPU time, on the boolean suite's inputs and on a 150 x 150 product
    order = [(0, 0)]
    index = {(0, 0): 0}
    rows = [[] for _ in sigma]
    i = 0
    while i < len(order):
        (p, q) = order[i]
        i += 1
        for k in range(len(sigma)):
            t = (d1.delta[k][p], d2.delta[k2[k]][q])
            if t not in index:
                index[t] = len(order)
                order.append(t)
            rows[k].append(index[t])
    finals = frozenset(i for i, (p, q) in enumerate(order)
                       if combine(p in d1.finals, q in d2.finals))
    return Dfa(len(order), sigma, tuple(tuple(r) for r in rows), finals)


def reverse_nfa(d: Dfa) -> Nfa:
    '''The reversal NFA: every transition flipped, finals become initials.'''
    delta = [[set() for _ in d.alphabet] for _ in range(d.n)]
    for k in range(len(d.alphabet)):
        for p in range(d.n):
            delta[d.delta[k][p]][k].add(p)
    return Nfa(d.n, d.alphabet,
               tuple(tuple(frozenset(s) for s in row) for row in delta),
               initials=d.finals, finals=frozenset({0}))


def parent_random_order(rng, n):
    """The matrix of a random partial order with maximum 0, drawn from rng
    as `sconvex.harness._random_order` draws it."""
    # up[p] has bit q set when p <= q
    up = [1 | 1 << p for p in range(n)]
    if n >= 3:
        for _ in range(rng.randint(0, n * n)):
            p, q = rng.sample(range(1, n), 2)
            if up[q] >> p & 1 or up[p] >> q & 1:
                continue
            # closing over one new edge: everything below p goes below
            # everything above q; antisymmetry is safe because q <= p
            # would already have been present
            for x in range(n):
                if up[x] >> p & 1:
                    up[x] |= up[q]
    return [[m >> q & 1 for q in range(n)] for m in up]


def parent_respecting_maps(n: int, leq, scan=(), masks=(), rng=None):
    """Every map of Q_n that is monotone for leq and keeps each scan triple
    inside R, given as `masks`, as image bytes (tuples above 256 states).

    States get their images in the order 0..n-1.  The candidates for q are
    the values at or above the image of every earlier state below q, and
    at or below the image of every earlier state above q; a scan triple is
    checked as soon as its largest state has an image.  Values are tried
    in increasing order, so the maps come out lexicographically.  With
    `rng`, each level is entered with one `rng.shuffle` of 0..n-1 and
    tries the values in that order instead: a randomized walk.
    """
    values = range(n)
    up = [sum(1 << v for v in values if leq[w][v]) for w in values]
    down = [sum(1 << v for v in values if leq[v][w]) for w in values]
    below = [[p for p in range(q) if leq[p][q]] for q in values]
    above = [[p for p in range(q) if leq[q][p]] for q in values]
    checks = [[] for _ in values]
    for t in scan:
        checks[max(t)].append(t)
    image = [0] * n
    pack = bytes if n <= 256 else tuple

    def candidates(q):
        mask = (1 << n) - 1
        for p in below[q]:
            mask &= up[image[p]]
        for p in above[q]:
            mask &= down[image[p]]
        order = values
        if rng is not None:
            order = list(values)
            rng.shuffle(order)
        out = []
        for v in order:
            if mask >> v & 1:
                image[q] = v
                if not checks[q] or all(masks[image[a] * n + image[b]] >> image[c] & 1
                                        for (a, b, c) in checks[q]):
                    out.append(v)
        return out

    if n == 0:
        yield b""
        return
    # pending[q] iterates over the candidates of state q not yet tried
    pending = [iter(candidates(0))]
    while pending:
        q = len(pending) - 1
        for image[q] in pending[q]:
            if q < n - 1:
                pending.append(iter(candidates(q + 1)))
                break
            yield pack(image)
        else:
            pending.pop()


def _strip_comment(line):
    pos = line.find("#")
    if pos >= 0:
        line = line[:pos]
    return line.strip()


def parent_parse_dfa(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if line:
            rows.append((lineno, line.split()))
    if len(rows) < 4:
        raise FormatError("file too short: need states, alphabet, initial, final")

    (ln, head) = rows[0]
    if head[0] != "states" or len(head) != 2:
        raise FormatError(f"line {ln}: expected 'states <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"line {ln}: state count must be an integer") from None
    if n < 1:
        raise FormatError(f"line {ln}: state count must be positive")

    (ln, head) = rows[1]
    if head[0] != "alphabet" or len(head) < 2:
        raise FormatError(f"line {ln}: expected 'alphabet <l1> <l2> ...'")
    alphabet = tuple(head[1:])
    _check_alphabet(alphabet)

    (ln, head) = rows[2]
    if head != ["initial", "0"]:
        raise FormatError(f"line {ln}: expected 'initial 0'")

    (ln, head) = rows[3]
    if head[0] != "final":
        raise FormatError(f"line {ln}: expected 'final ...'")
    try:
        finals = frozenset(int(tok) for tok in head[1:])
    except ValueError:
        raise FormatError(f"line {ln}: final states must be integers") from None
    for q in finals:
        if not 0 <= q < n:
            raise FormatError(f"line {ln}: final state {q} out of range")

    # a full table needs a line per cell; checking first keeps a huge
    # declared size from allocating a table its file cannot fill
    cells = n * len(alphabet)
    if len(rows) - 4 < cells:
        raise FormatError(f"incomplete transition table: {len(rows) - 4} "
                          f"transition lines, need {cells}")
    index = {letter: k for k, letter in enumerate(alphabet)}
    table = [[None] * n for _ in alphabet]
    for (ln, toks) in rows[4:]:
        if len(toks) != 3:
            raise FormatError(f"line {ln}: expected '<state> <letter> <state>'")
        src_s, letter, dst_s = toks
        try:
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise FormatError(f"line {ln}: states must be integers") from None
        if letter not in index:
            raise FormatError(f"line {ln}: unknown letter {letter!r}")
        if not 0 <= src < n or not 0 <= dst < n:
            raise FormatError(f"line {ln}: state out of range")
        if table[index[letter]][src] is not None:
            raise FormatError(f"line {ln}: duplicate transition for ({src}, {letter})")
        table[index[letter]][src] = dst
    # at least one line per cell and no cell twice: the table is full
    return Dfa(n, alphabet, tuple(tuple(row) for row in table), finals)


def parent_to_text(d: Dfa) -> str:
    lines = [f"states {d.n}",
             "alphabet " + " ".join(d.alphabet),
             "initial 0",
             "final" + "".join(f" {q}" for q in sorted(d.finals))]
    for q in range(d.n):
        for k, letter in enumerate(d.alphabet):
            lines.append(f"{q} {letter} {d.delta[k][q]}")
    return "\n".join(lines) + "\n"


def _quote(s):
    return '"' + str(s).replace('\\', '\\\\').replace('"', '\\"') + '"'


def parent_dfa_dot(d, name):
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             '  __start [shape=point, label=""];']
    for q in range(d.n):
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append("  __start -> 0;")
    # one edge per target, its letters merged in alphabet order
    for q in range(d.n):
        grouped = {}
        for k, letter in enumerate(d.alphabet):
            grouped.setdefault(d.delta[k][q], []).append(letter)
        for dst in sorted(grouped):
            lines.append(f"  {q} -> {dst} [label={_quote(','.join(grouped[dst]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parent_triple_system_from_text(text: str) -> TripleSystem:
    n = None
    finals = None
    listed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        toks = line.split()
        if n is None:
            if toks[0] != "states" or len(toks) != 2 or not toks[1].isdigit():
                raise FormatError(f"line {lineno}: expected 'states <n>'")
            n = int(toks[1])
            if n < 1:
                raise FormatError(f"line {lineno}: state count must be positive")
        elif finals is None:
            if toks[0] != "final":
                raise FormatError(f"line {lineno}: expected 'final ...'")
            try:
                finals = frozenset(int(t) for t in toks[1:])
            except ValueError:
                raise FormatError(f"line {lineno}: final states must be integers") from None
        else:
            if len(toks) != 3:
                raise FormatError(f"line {lineno}: expected 'p q r'")
            try:
                listed.append(tuple(int(t) for t in toks))
            except ValueError:
                raise FormatError(f"line {lineno}: triples must be integers") from None
    if n is None or finals is None:
        raise FormatError("file too short: need 'states' and 'final' lines")
    if 2 * n * n - n > CLOSURE_CAP:
        raise ResourceCap(f"a system on {n} states has {2 * n * n - n} "
                          f"mandatory triples, over the cap {CLOSURE_CAP}")
    # the mandatory triples (p, q, p) and (p, q, q), then the listed ones
    # and their mirrors
    mandatory = [1 << p | 1 << q for p in range(n) for q in range(n)]
    mirrors = [(q, p, r) for (p, q, r) in listed]
    return TripleSystem(n, finals, _set_bits(mandatory, n, listed + mirrors))


def parent_closure(generators, cap: int = CLOSURE_CAP) -> Semigroup:
    '''Close a list of transformations under composition.'''
    gen_bytes = _image_bytes(generators)
    n = len(gen_bytes[0])
    # translate tables must cover all 256 byte values; the tail is never hit
    tables = [gb + bytes(256 - n) for gb in gen_bytes]
    order: list[bytes] = []
    seen: set[bytes] = set()
    for gb in gen_bytes:
        if gb not in seen:
            seen.add(gb)
            order.append(gb)
    frontier = list(order)
    while frontier:
        nxt = []
        for u in frontier:
            for table in tables:
                w = u.translate(table)
                if w not in seen:
                    if len(seen) >= cap:
                        raise ResourceCap(f"semigroup closure exceeded {cap} elements")
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    return Semigroup(n, tuple(order))
