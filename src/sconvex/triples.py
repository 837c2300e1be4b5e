"""Suffix-convex triple systems, the respect relation, and derived orders.

A triple system over Q_n = {0, ..., n-1} carries a final set F and a
relation R of state triples subject to four axioms:

  (A) (p, q, p) is always present,
  (B) membership is symmetric in the first two coordinates,
  (C) (p, q, r) and (q, r, s) force (p, q, s),
  (D) (p, q, r) with p and q final forces r final.

A transformation t respects the system when triples are preserved
pointwise (Condition 1) and triples anchored at the initial state stay
anchored (Condition 2: (0, q, r) in R forces (0, qt, rt) in R).  Both
conditions survive composition, so a DFA respects a system exactly when
its letters do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, islice
from operator import or_

from .automata import Dfa, _mask, _text_rows, is_minimal, reachable_tuples
from .classify import _chain
from .errors import (AxiomViolation, FormatError, NonConvexFinals, NotMinimal,
                     NotPartialOrder, NotSuffixConvex, ResourceCap,
                     SizeMismatch, StateOutOfRange)
from .transformations import CLOSURE_CAP, Semigroup, Transformation, _letters

Triple = tuple[int, int, int]


def base_triples(n: int) -> set[Triple]:
    '''The triples every system must contain: third coordinate in {p, q}.'''
    out = set()
    for p in range(n):
        for q in range(n):
            out.add((p, q, p))
            out.add((p, q, q))
    return out


def _bits(mask: int):
    '''The positions of the set bits of mask, in increasing order.'''
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class TripleSystem:
    """R as one bit mask per state pair: bit r of masks[p * n + q] is set
    when (p, q, r) is in R.  Construction checks the axioms in order, and an
    AxiomViolation names the lexicographically first failure: the missing
    triple for (A), (B) and (C), the offending one for (D)."""

    n: int
    finals: frozenset[int]
    masks: tuple[int, ...]

    def __post_init__(self):
        (n, finals, masks) = (self.n, sorted(self.finals), tuple(self.masks))
        object.__setattr__(self, "finals", frozenset(finals))
        object.__setattr__(self, "masks", masks)
        for q in finals:
            if not 0 <= q < n:
                raise StateOutOfRange(f"final state {q} outside 0..{n - 1}")
        if len(masks) != n * n or any(m >> n for m in masks):
            raise FormatError(f"need {n * n} masks of {n} bits each")
        # each loop over _bits below raises at the lowest bit it meets
        for p in range(n):
            for q in range(n):
                if not masks[p * n + q] >> p & 1:
                    raise AxiomViolation("A", (p, q, p))
        for p in range(n):
            for q in range(n):
                for r in _bits(masks[p * n + q] & ~masks[q * n + p]):
                    raise AxiomViolation("B", (q, p, r))
        # (C): each r with (p, q, r) in R asks mask(q, r) within mask(p, q)
        for i, m in enumerate(masks):
            (p, q) = divmod(i, n)
            for r in _bits(m):
                for s in _bits(masks[q * n + r] & ~m):
                    raise AxiomViolation("C", (p, q, s))
        outside = ~_mask(finals)
        for p in finals:
            for q in finals:
                for r in _bits(masks[p * n + q] & outside):
                    raise AxiomViolation("D", (p, q, r))

    @property
    def triples(self) -> frozenset[Triple]:
        '''R as a set of triples, read off the masks.'''
        return frozenset((*divmod(i, self.n), r)
                         for i, m in enumerate(self.masks) for r in _bits(m))

    def contains(self, p: int, q: int, r: int) -> bool:
        return bool(self.masks[p * self.n + q] >> r & 1)

    def scan_triples(self) -> tuple[Triple, ...]:
        """Triples that a Condition-1 scan must visit, sorted.

        Triples with third coordinate p or q hold in every system by axioms
        (A) and (B), and (B) pairs (p,q,r) with (q,p,r), so the scan keeps
        one representative with p <= q and a third coordinate outside {p,q}.
        """
        n = self.n
        return tuple((p, q, r) for p in range(n) for q in range(p, n)
                     for r in _bits(self.masks[p * n + q] & ~(1 << p | 1 << q)))

    def to_text(self) -> str:
        lines = [f"states {self.n}",
                 "final" + "".join(f" {q}" for q in sorted(self.finals))]
        lines.extend(f"{p} {q} {r}" for (p, q, r) in self.scan_triples())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TripleSystem":
        rows, where = _text_rows(text)
        if not rows:
            raise FormatError("file too short: need 'states' and 'final' lines")
        toks = rows[0].split()
        # isdecimal, not isdigit: int() refuses digits such as "²"
        if toks[0] != "states" or len(toks) != 2 or not toks[1].isdecimal():
            raise FormatError(f"line {where(0)}: expected 'states <n>'")
        n = int(toks[1])
        if n < 1:
            raise FormatError(f"line {where(0)}: state count must be positive")
        if len(rows) < 2:
            raise FormatError("file too short: need 'states' and 'final' lines")
        toks = rows[1].split()
        if toks[0] != "final":
            raise FormatError(f"line {where(1)}: expected 'final ...'")
        try:
            finals = frozenset(int(t) for t in toks[1:])
        except ValueError:
            raise FormatError(f"line {where(1)}: final states must be integers") from None
        listed = []
        for i in range(2, len(rows)):
            toks = rows[i].split()
            if len(toks) != 3:
                raise FormatError(f"line {where(i)}: expected 'p q r'")
            try:
                listed.append(tuple(map(int, toks)))
            except ValueError:
                raise FormatError(f"line {where(i)}: triples must be integers") from None
        _check_system_size(n, CLOSURE_CAP)
        # the mandatory triples (p, q, p) and (p, q, q), then the listed ones
        # and their mirrors
        mandatory = [1 << p | 1 << q for p in range(n) for q in range(n)]
        mirrors = [(q, p, r) for (p, q, r) in listed]
        return cls(n, finals, _set_bits(mandatory, n, listed + mirrors))


def _check_system_size(n: int, cap: int) -> None:
    '''Refuse a system on n states with more than cap mandatory triples,
    before anything of size n is built.'''
    if 2 * n * n - n > cap:
        raise ResourceCap(f"a system on {n} states has {2 * n * n - n} "
                          f"mandatory triples, over the cap {cap}")


def _set_bits(masks: list, n: int, triples) -> list:
    '''masks with the bit of each triple set, each range-checked before its bit.'''
    for t in map(tuple, triples):
        if len(t) != 3:
            raise FormatError(f"not a triple: {t}")
        for q in t:
            if not 0 <= q < n:
                raise StateOutOfRange(f"state {q} outside 0..{n - 1}")
        (p, q, r) = t
        masks[p * n + q] |= 1 << r
    return masks


def make_triple_system(n: int, finals, triples) -> TripleSystem:
    '''The system holding these triples, each range-checked before its bit.'''
    return TripleSystem(n, finals, _set_bits([0] * (n * n), n, triples))


# ---------------------------------------------------------------------------
# the respect relation

@dataclass(frozen=True)
class RespectCheck:
    ok: bool
    condition: int | None = None
    triple: Triple | None = None

    def __bool__(self):
        return self.ok


def respects(t: Transformation, s: TripleSystem) -> RespectCheck:
    """Check Conditions 1 and 2 for one transformation.

    On failure the result carries the condition number and the
    lexicographically first triple of R whose image escapes.
    """
    if t.n != s.n:
        raise SizeMismatch(f"transformation on {t.n} states, system on {s.n}")
    img = t.image
    for (p, q, r) in s.scan_triples():
        if not s.contains(img[p], img[q], img[r]):
            return RespectCheck(False, 1, (p, q, r))
    for q in range(s.n):
        for r in _bits(s.masks[q]):
            if not s.contains(0, img[q], img[r]):
                return RespectCheck(False, 2, (0, q, r))
    return RespectCheck(True)


def dfa_respects(d: Dfa, s: TripleSystem) -> bool:
    '''Whether every letter of d respects s; enough, by composition closure.'''
    if d.n != s.n:
        raise SizeMismatch(f"DFA on {d.n} states, system on {s.n}")
    return all(respects(t, s) for t in _letters(d))


# ---------------------------------------------------------------------------
# canonical system of a DFA

def _not_convex(d: Dfa) -> NotSuffixConvex:
    '''The refusal of a minimal d, spelled by classify's chain of walks.'''
    return NotSuffixConvex(f"language is not suffix-convex: {_chain(d)[0]}")


def canonical_system(d: Dfa) -> TripleSystem:
    """The largest system the language of d respects.

    (p, q, r) enters R exactly when no word leads the state triple into
    (final, final, non-final).  Requires d minimal and L(d) suffix-convex;
    the result then satisfies the axioms and d respects it.

    The masks decide convexity too: L(d) is suffix-convex exactly when no
    seed (0, x, y) of classify's triple walk, (x, y) a pair reachable from
    a (q, 0), is out of R.  The fixpoint refuses at the first seed it
    marks, and only a refusal runs classify's walks, on d as it is, to
    spell the counterexample of its message.
    """
    if not is_minimal(d):
        raise NotMinimal("canonical_system needs a minimal DFA")
    n = d.n
    pre = [[[] for _ in range(n)] for _ in d.alphabet]
    for k in range(len(d.alphabet)):
        for p in range(n):
            pre[k][d.delta[k][p]].append(p)
    pre_mask = [[_mask(ps) for ps in row] for row in pre]
    # bit y of seeds[x]: the seed (0, x, y) of the triple walk; rows p > 0 stay 0
    seeds = [0] * (n * n)
    for (x, y) in reachable_tuples(d.delta, [(q, 0) for q in range(n)]):
        seeds[x] |= 1 << y
    # bit r of bad[p * n + q]: a word takes (p, q, r) to (F, F, non-F)
    full = (1 << n) - 1
    bad = [0] * (n * n)
    non_finals = full & ~_mask(d.finals)
    stack = [(p, q, non_finals) for p in d.finals for q in d.finals]
    for (p, q, new) in stack:
        bad[p * n + q] = new
        if new & seeds[p * n + q]:
            raise _not_convex(d)
    while stack:
        (x, y, new) = stack.pop()
        zs = list(_bits(new))
        for k in range(len(d.alphabet)):
            back = 0
            for z in zs:
                back |= pre_mask[k][z]
            for p in pre[k][x]:
                for q in pre[k][y]:
                    i = p * n + q
                    fresh = back & ~bad[i]
                    if fresh:
                        # a seed is checked as it is marked: the stack is
                        # last in, first out, so its pop may come late
                        if fresh & seeds[i]:
                            raise _not_convex(d)
                        stack.append((p, q, fresh))
                        bad[i] |= fresh
    return TripleSystem(n, d.finals, [full & ~m for m in bad])


# ---------------------------------------------------------------------------
# preorders

@dataclass(frozen=True)
class Preorder:
    """A preorder on Q_n with 0 as a maximum element, given by its up masks:
    bit q of up[p] is set when p is below (or equivalent to) q.  The down
    masks are worked out once here: bit q of down[p] is set when q <= p.
    """

    n: int
    up: tuple[int, ...]
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (n, up) = (self.n, tuple(self.up))
        object.__setattr__(self, "up", up)
        if len(up) != n or any(m >> n for m in up):
            raise FormatError(f"need {n} up masks of {n} bits each")
        # row p as 0/1 bytes, byte q set when p <= q, for compress at C speed
        zero_one = bytes.maketrans(b"01", b"\0\1")
        rows = [format(m, f"0{n}b").encode()[::-1].translate(zero_one) for m in up]
        weights = [1 << q for q in range(n)]
        down = tuple(sum(compress(weights, column)) for column in zip(*rows))
        object.__setattr__(self, "down", down)
        for p in range(n):
            if not up[p] >> p & 1:
                raise FormatError(f"preorder not reflexive at {p}")
            if not up[p] & 1:
                raise FormatError(f"state 0 must be a maximum, but {p} is not below it")
        # transitivity is up[q] within up[p] for every q above p, tested as
        # one OR of their rows, and only a failing row is searched for the
        # first q
        for p, row in enumerate(rows):
            if reduce(or_, compress(up, row), 0) & ~up[p] == 0:
                continue
            for q in _bits(up[p]):
                extra = up[q] & ~up[p]
                if extra:
                    r = (extra & -extra).bit_length() - 1
                    raise FormatError(
                        f"preorder not transitive: {p} <= {q} <= {r}")

    def dump(self) -> str:
        '''n lines of n space-separated 0/1 entries.'''
        return "\n".join(" ".join(format(m, f"0{self.n}b")[::-1])
                         for m in self.up) + "\n"


@dataclass(frozen=True)
class OrderProperties:
    is_partial_order: bool
    is_total_comparability: bool
    symmetric_pairs: frozenset[tuple[int, int]]
    comparable_nonzero_pairs: frozenset[tuple[int, int]]


def preorder_of(s: TripleSystem) -> Preorder:
    '''The derived relation: p below q exactly when (0, p, q) is in R.'''
    return Preorder(s.n, s.masks[:s.n])


def order_properties(po: Preorder) -> OrderProperties:
    """Shape summary of a preorder.

    symmetric_pairs lists unordered pairs p < q that are equivalent;
    comparable_nonzero_pairs lists ordered pairs (p, q) of distinct
    non-zero states with p below q.
    """
    (n, up, down) = (po.n, po.up, po.down)
    full = (1 << n) - 1
    sym = frozenset((p, q) for p in range(n)
                    for q in _bits(up[p] & down[p]) if q > p)
    return OrderProperties(
        is_partial_order=not sym,
        is_total_comparability=all(up[p] | down[p] == full for p in range(n)),
        symmetric_pairs=sym,
        comparable_nonzero_pairs=frozenset(
            (p, q) for p in range(1, n) for q in _bits(up[p] & ~(1 | 1 << p))),
    )


def _require_partial_order(po: Preorder):
    """NotPartialOrder naming the first equivalent pair p < q, least p
    first, then least q, as min(order_properties(po).symmetric_pairs):
    the states equivalent to p are one AND of its masks."""
    for p in range(po.n):
        later = (po.up[p] & po.down[p]) >> p + 1
        if later:
            q = p + (later & -later).bit_length()
            raise NotPartialOrder(f"states {p} and {q} are equivalent")


def _convex_violation(po: Preorder, finals: int):
    '''The first (f, g, h) with f <= g <= h, f and h in the final set, given
    as a bit mask, and g not, or None.'''
    below = reduce(or_, map(po.down.__getitem__, _bits(finals)), 0) & ~finals
    for f in _bits(finals):
        if po.up[f] & below:
            for h in _bits(finals):
                between = po.up[f] & po.down[h] & ~finals
                if between:
                    return (f, (between & -between).bit_length() - 1, h)
    return None


def _check_convex_finals(po: Preorder, finals):
    for f in finals:
        if not 0 <= f < po.n:
            raise StateOutOfRange(f"final state {f} outside 0..{po.n - 1}")
    bad = _convex_violation(po, _mask(finals))
    if bad is not None:
        (f, g, h) = bad
        raise NonConvexFinals(f"{f} <= {g} <= {h} with {g} outside the final set")


# ---------------------------------------------------------------------------
# monotone transformations and the order construction

# An enumeration costs time in proportion to cap * n before it hits the cap
# (and memory too when it stores the maps), so it refuses more states than
# this at once: at 13 even a total order has 5,200,300 maps, over the
# default cap.
ENUM_MAX_STATES = 12

# The mask bits one count may handle, about 1.5 s of CPU: total_order(n)
# fits up to n=112
COUNT_WORK_CAP = 10 ** 10


def _respecting_walk(po: Preorder, scan=(), masks=()):
    """The walk over every map of Q_n that is monotone for po and keeps
    each scan triple inside R, given as `masks`: a function of `rng` that
    yields the maps as image bytes (tuples above 256 states).

    The tables are built here, once per order, and every walk reuses them.
    States get their images in the order 0..n-1, and the candidates for q
    are one bit mask, the intersection of:
      - up[image[p]] for each earlier p below q, and down[image[p]] for
        each earlier p above q (monotonicity);
      - for Condition 1, the mask that each scan triple whose largest state
        is q allows once its other states have images:
        masks[image[a] * n + image[b]] for (a, b, q),
        allowed[image[a] * n + image[c]] for (a, q, c) with a < q, and
        diag[image[c]] for (q, q, c).
    Without `rng`, values are tried in increasing order, so the maps come
    out lexicographically.  With `rng`, each level is entered with one
    shuffle of 0..n-1, drawn from `rng.getrandbits` exactly as
    `rng.shuffle` draws it, and tries the values in that order instead: a
    randomized walk.  It backtracks out of dead ends, which some orders
    have, so it raises ResourceCap once it has entered more than
    n + CLOSURE_CAP // n levels, naming `letter`.
    """
    (n, up, down) = (po.n, po.up, po.down)
    values = range(n)
    full = (1 << n) - 1
    below = [list(_bits(down[q] & ((1 << q) - 1))) for q in values]
    above = [list(_bits(up[q] & ((1 << q) - 1))) for q in values]
    # scan triples by the shape they take at the level of their largest state
    thirds = [[] for _ in values]
    seconds = [[] for _ in values]
    diagonals = [[] for _ in values]
    for (a, b, c) in scan:
        if c > b:
            thirds[c].append((a, b))
        elif a < b:
            seconds[b].append((a, c))
        else:
            diagonals[b].append(c)
    # allowed[x * n + z] and diag[z]: the v with (x, v, z), resp. (v, v, z), in R
    allowed = [sum(1 << v for v in values if masks[x * n + v] >> z & 1)
               for x in values for z in values] if any(seconds) else ()
    diag = [sum(1 << v for v in values if masks[v * n + v] >> z & 1)
            for z in values] if any(diagonals) else ()
    pack = bytes if n <= 256 else tuple
    (last, tails) = (n - 1, [pack((v,)) for v in values])
    listed = {}  # the values of each candidate mask met so far, increasing
    # the shuffle's swaps, last first: x[i] with x[j] for j drawn below i + 1
    # from k = (i + 1).bit_length() random bits
    spans = [(i, (i + 1).bit_length()) for i in reversed(range(1, n))]

    def walk(rng=None, letter=None):
        if n == 0:
            yield b""
            return
        image = [0] * n
        entered = 0  # levels of a randomized walk
        if rng is not None:
            getrandbits = rng.getrandbits
            cap = n + CLOSURE_CAP // n

        def candidates(q):
            nonlocal entered
            mask = full
            for p in below[q]:
                mask &= up[image[p]]
            for p in above[q]:
                mask &= down[image[p]]
            if scan:  # skipped by plain monotone walks
                for (a, b) in thirds[q]:
                    mask &= masks[image[a] * n + image[b]]
                for (a, c) in seconds[q]:
                    mask &= allowed[image[a] * n + image[c]]
                for c in diagonals[q]:
                    mask &= diag[image[c]]
            if rng is None:
                out = listed.get(mask)
                if out is None:
                    out = listed[mask] = [v for v in values if mask >> v & 1]
                return out
            entered += 1
            if entered > cap:
                raise ResourceCap(f"the random walk for letter {letter} entered "
                                  f"{entered} levels on {n} states, past the cap "
                                  f"n + CLOSURE_CAP // n = {cap}")
            # the draws of random.Random.shuffle: each j as _randbelow(i + 1)
            # draws it, retrying getrandbits(k) until j <= i
            order = list(values)
            for (i, k) in spans:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                order[i], order[j] = order[j], order[i]
            return [v for v in order if mask >> v & 1]

        # pending[q] iterates over the candidates of state q not yet tried;
        # each candidate of the last state completes the head into a map
        pending = [iter(candidates(0))]
        while pending:
            q = len(pending) - 1
            if q == last:
                head = pack(image[:last])
                for v in pending.pop():
                    yield head + tails[v]
                continue
            for image[q] in pending[q]:
                pending.append(iter(candidates(q + 1)))
                break
            else:
                pending.pop()

    return walk


def _enumeration(n: int, walk):
    """The maps that walk() yields, a walk on n states, passed on lazily.

    ResourceCap is raised at once for more than ENUM_MAX_STATES states,
    before walk() builds any table, and once more than CLOSURE_CAP maps
    have come, the cap as it is at this call.
    """
    if n > ENUM_MAX_STATES:
        raise ResourceCap(f"map enumeration supports at most {ENUM_MAX_STATES} "
                          f"states, got {n}")
    (cap, maps) = (CLOSURE_CAP, walk())

    def capped():
        yield from islice(maps, cap)  # islice counts the maps in C
        if next(maps, None) is not None:
            raise ResourceCap(f"enumeration on {n} states reached {cap + 1} "
                              f"maps, over the cap {cap}")

    return capped()


def monotone_maps(po: Preorder):
    """An iterator over the maps monotone for a partial order, lexicographic,
    as image bytes, so they can be counted without being stored.

    Monotone means p below q forces pt below qt.  The order must be
    antisymmetric with maximum 0.  ResourceCap is raised once more than
    CLOSURE_CAP maps have been produced, and at once for more than
    ENUM_MAX_STATES states.
    """
    _require_partial_order(po)
    return _enumeration(po.n, lambda: _respecting_walk(po)())


def monotone_count(po: Preorder) -> int:
    """The number of maps monotone for a partial order, by dynamic
    programming, none of the maps produced (see _count_monotone).  The
    order must be antisymmetric with maximum 0.
    """
    _require_partial_order(po)
    return _count_monotone(po.n, po.up, po.down)


def _count_monotone(n, up, down, floor=0):
    """The number of maps of Q_n monotone for the partial order with these
    up and down masks, if it is at least floor; otherwise some number
    below floor, perhaps found before the count is done.

    States get their images in the order 0..n-1, as in monotone_maps.
    The maps that agree on 0..q-1 leave each later state r a candidate
    mask, the AND of up[image[p]] and down[image[p]] over the earlier p
    below, resp. above, r; how such a map can go on depends only on those
    masks.  So level q keeps one count per distinct tuple of the masks of
    q..n-1, packed into one int, n bits per state with q lowest: giving q
    the image v is one shift and one AND.  After each level, the sum of
    count times the product of the popcounts of its masks bounds the maps,
    and the count stops once that bound is below floor.

    ResourceCap is raised once a level holds more than CLOSURE_CAP tuples,
    and before a level that would take the mask bits handled past
    COUNT_WORK_CAP: each level builds n masks of n * (n - q) bits and
    steps each tuple by at most n images.
    """
    full = (1 << n) - 1
    level = {(1 << n * n) - 1: 1}
    # every level's table, counted up front so that a large n fails at once
    work = n * n * n * (n + 1) // 2
    for q in range(n):
        work += len(level) * n * n * (n - q)
        if work > COUNT_WORK_CAP:
            raise ResourceCap(f"counting on {n} states would handle {work} mask "
                              f"bits by state {q}, over the cap {COUNT_WORK_CAP}")
        # one bit at the slot of each state after q that is above q, below
        # q, or neither, so that a product copies a mask into those slots
        slots = [0, 0, 0]
        for r in range(q + 1, n):
            kind = 0 if up[q] >> r & 1 else 1 if down[q] >> r & 1 else 2
            slots[kind] |= 1 << n * (r - q - 1)
        # narrow[v]: the masks that giving q the image v leaves on q+1..n-1
        narrow = [up[v] * slots[0] | down[v] * slots[1] | full * slots[2]
                  for v in range(n)]
        counts = {}
        for masks, count in level.items():
            rest = masks >> n
            for v in _bits(masks & full):
                key = rest & narrow[v]
                counts[key] = counts.get(key, 0) + count
            if len(counts) > CLOSURE_CAP:
                raise ResourceCap(f"counting on {n} states reached {len(counts)} "
                                  f"mask tuples at state {q}, over the cap "
                                  f"{CLOSURE_CAP}")
        level = counts
        if floor:
            (bound, shifts) = (0, range(0, n * (n - q - 1), n))
            for masks, count in level.items():
                for shift in shifts:
                    count *= (masks >> shift & full).bit_count()
                bound += count
                if bound >= floor:
                    break
            else:
                return bound
    return sum(level.values())


def maximal_semigroup(s: TripleSystem) -> Semigroup:
    """Every transformation respecting s, lexicographic.

    Condition 2 is monotonicity for the derived preorder, so the maps are
    enumerated state by state as monotone maps, and each scan triple of
    Condition 1 narrows the candidate mask of its largest state.
    ResourceCap is raised once more than CLOSURE_CAP maps have been
    produced, and at once for more than ENUM_MAX_STATES states.
    """
    maps = _enumeration(s.n, lambda: _respecting_walk(
        preorder_of(s), s.scan_triples(), s.masks)())
    return Semigroup(s.n, tuple(maps))


def order_system(po: Preorder, finals) -> TripleSystem:
    """The triple system induced by a partial order and a convex final set.

    R holds the mandatory triples plus every (p, q, r) with r between p
    and q in the order, in either orientation.
    """
    _require_partial_order(po)
    finals = frozenset(finals)
    _check_convex_finals(po, finals)
    (n, up, down) = (po.n, po.up, po.down)
    return TripleSystem(n, finals, [1 << p | 1 << q | up[p] & down[q] | up[q] & down[p]
                                    for p in range(n) for q in range(n)])


def letter_names(count: int) -> tuple[str, ...]:
    '''Canonical letter names t000, t001, ... widened past a thousand.'''
    width = max(3, len(str(count - 1))) if count else 3
    return tuple(f"t{i:0{width}d}" for i in range(count))


def total_order(n: int) -> Preorder:
    '''The chain n-1 below ... below 1 below 0.'''
    return Preorder(n, [(2 << p) - 1 for p in range(n)])


def antichain_order(n: int) -> Preorder:
    '''Only the forced comparabilities: reflexivity and everything below 0.'''
    return Preorder(n, [1 | 1 << p for p in range(n)])
