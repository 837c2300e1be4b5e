"""Transformations of the state set, notation parsing, semigroup closure,
and semigroup size counted by Green's R-classes.

A transformation of Q_n = {0, ..., n-1} is stored as its image vector, so
``image[q]`` is where q goes.  Products are written left to right: q(st)
means (qs)t.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain

from .automata import Dfa, _table_walk, minimize
from .errors import NotationError, ResourceCap, SizeMismatch, StateOutOfRange

CLOSURE_CAP = 2_000_000


@dataclass(frozen=True)
class Transformation:
    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if self.n < 1:
            raise ValueError("domain must be nonempty")
        if len(self.image) != self.n:
            raise SizeMismatch(f"image vector has length {len(self.image)}, domain {self.n}")
        for q in self.image:
            if not 0 <= q < self.n:
                raise StateOutOfRange(f"image entry {q} outside 0..{self.n - 1}")

    def __str__(self):
        return "[" + " ".join(str(q) for q in self.image) + "]"


def identity(n: int) -> Transformation:
    return Transformation(n, tuple(range(n)))


def compose(s: Transformation, t: Transformation) -> Transformation:
    '''The product st, applied s first: image[q] = t.image[s.image[q]].'''
    if s.n != t.n:
        raise SizeMismatch(f"cannot compose domains {s.n} and {t.n}")
    return Transformation(s.n, tuple(t.image[q] for q in s.image))


# ---------------------------------------------------------------------------
# notation
#
# A transformation literal is "1" (the identity) or a sequence of
# parenthesized factors composed left to right.  Inside the parens:
#
#   (_i^j q->q+1)       shift states i..j up by one, everything else fixed
#   (_i^j q->q-1)       shift states i..j down by one
#   (q0,q1,...,qk)      cyclic permutation; a one-entry cycle is the identity
#   ({p1,...,pk} -> q)  send the listed states to q
#   (Q -> q)            send every state to q; Q_n is accepted for Q
#   (Q\{p1,...} -> q)   send every state outside the braces to q
#   (p -> q)            send the single state p to q
#
# Whitespace is ignored everywhere.

_SPACE = re.compile(r"\s+")
_SHIFT = re.compile(r"^_(\d+)\^(\d+)([a-z])->\3([+-])1$")
_CYCLE = re.compile(r"^\d+(?:,\d+)*$")
_ARROW = re.compile(r"^(.*)->(\d+)$")
_SET = re.compile(r"^\{(\d+(?:,\d+)*)\}$")
_WHOLE = re.compile(r"^Q(?:_(\d+))?(?:\\\{(\d+(?:,\d+)*)\})?$")


def _state(tok: str, n: int) -> int:
    q = int(tok)
    if q >= n:
        raise StateOutOfRange(f"state {q} outside 0..{n - 1}")
    return q


def _parse_factor(body: str, n: int) -> Transformation:
    m = _SHIFT.match(body)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        step = 1 if m.group(4) == "+" else -1
        if lo > hi:
            raise NotationError(f"empty range _{lo}^{hi}")
        for q in (lo, hi, lo + step, hi + step):
            if not 0 <= q < n:
                raise StateOutOfRange(f"state {q} outside 0..{n - 1}")
        image = [q + step if lo <= q <= hi else q for q in range(n)]
        return Transformation(n, tuple(image))

    if _CYCLE.match(body):
        entries = [_state(tok, n) for tok in body.split(",")]
        if len(set(entries)) != len(entries):
            raise NotationError(f"repeated state in cycle ({body})")
        image = list(range(n))
        for i, q in enumerate(entries):
            image[q] = entries[(i + 1) % len(entries)]
        return Transformation(n, tuple(image))

    m = _ARROW.match(body)
    if m:
        lhs, target = m.group(1), _state(m.group(2), n)
        sm = _SET.match(lhs)
        if sm:
            sources = {_state(tok, n) for tok in sm.group(1).split(",")}
        else:
            wm = _WHOLE.match(lhs)
            if wm:
                if wm.group(1) is not None and int(wm.group(1)) != n:
                    raise NotationError(f"Q_{wm.group(1)} used with domain size {n}")
                excluded = ({_state(tok, n) for tok in wm.group(2).split(",")}
                            if wm.group(2) else set())
                sources = set(range(n)) - excluded
            elif lhs.isdigit():
                sources = {_state(lhs, n)}
            else:
                raise NotationError(f"cannot read map source {lhs!r}")
        image = [target if q in sources else q for q in range(n)]
        return Transformation(n, tuple(image))

    raise NotationError(f"cannot read factor ({body})")


def parse_transformation(text: str, n: int) -> Transformation:
    compact = _SPACE.sub("", text)
    for typeset, ascii_ in (("→", "->"), ("∖", "\\"), ("−", "-")):
        compact = compact.replace(typeset, ascii_)
    if compact == "1":
        return identity(n)
    if not compact:
        raise NotationError("empty transformation literal")
    if not (compact.startswith("(") and compact.endswith(")")):
        raise NotationError(f"expected (...) factors or '1', got {text!r}")
    depth = 0
    start = None
    factors = []
    for i, ch in enumerate(compact):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise NotationError("unbalanced parentheses")
            if depth == 0:
                factors.append(compact[start + 1:i])
        elif depth == 0:
            raise NotationError(f"unexpected {ch!r} between factors")
    if depth != 0:
        raise NotationError("unbalanced parentheses")
    if n < 1:
        raise ValueError("domain must be nonempty")
    # composing from the first factor saves building the identity
    result = _parse_factor(factors[0], n)
    for body in factors[1:]:
        result = compose(result, _parse_factor(body, n))
    return result


# ---------------------------------------------------------------------------
# semigroup closure

@dataclass(frozen=True)
class Semigroup:
    """A transformation semigroup with every element.

    `images` lists the image vectors in the order their builder met them.
    From `closure` that is breadth-first by product length, ties broken by
    generator order, so generators appear first, whether or not the
    identity is among them.  `maximal_semigroup` lists its maps
    lexicographically.
    """

    n: int
    images: tuple[bytes, ...]

    def __len__(self):
        return len(self.images)

    def dump(self) -> str:
        '''One image vector per line, entries space-separated, sorted.'''
        lines = [" ".join(str(q) for q in img) for img in sorted(self.images)]
        return "\n".join(lines) + "\n"


def _image_bytes(generators):
    '''The generators' image vectors as bytes, checked to share one domain
    of at most 255 states (a translate table has 256 entries).'''
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise SizeMismatch("generators must share a domain")
    if n > 255:
        raise ResourceCap("semigroup closure supports at most 255 states")
    return [bytes(g.image) for g in gens]


def closure(generators, cap: int = CLOSURE_CAP) -> Semigroup:
    '''Close a list of transformations under composition.'''
    gen_bytes = _image_bytes(generators)
    n = len(gen_bytes[0])
    # translate tables must cover all 256 byte values; the tail is never hit
    tables = [gb + bytes(256 - n) for gb in gen_bytes]
    order = list(dict.fromkeys(gen_bytes))
    seen = set(order)
    for u in order:  # grows while it is walked
        for table in tables:
            w = u.translate(table)
            if w not in seen:
                if len(seen) >= cap:
                    raise ResourceCap(f"semigroup closure exceeded {cap} elements")
                seen.add(w)
                order.append(w)
    return Semigroup(n, tuple(order))


# ---------------------------------------------------------------------------
# semigroup size by Green's R-classes
#
# The orbit method for transformation semigroups (Linton, Pfeiffer,
# Robertson & Ruskuc 1998; East, Egri-Nagy, Mitchell & Peresse 2019).  Two
# elements are R-related when each is the other times an element of S^1.
# The elements of one R-class share a kernel, and their image sets fill one
# strongly connected component of the orbit of image sets under the
# generators.  With R any image set of the component, the elements of the
# class with image set R are one coset of R's Schutzenberger group: the
# permutations of R that elements of S^1 mapping R onto R induce.  The
# groups of one component are conjugate, so the class has
# |component| * |group| elements whichever R is taken; the count takes the
# image set where it first lands in the component.  Left
# multiplication maps R-classes onto R-classes, so a breadth-first walk
# from the generators meets them all, storing one representative of each.
# Every element met is first moved, inside its R-class, onto one with image
# set R; one set lookup then finds most of the elements met before.

_IDENTITY = bytes(range(256))
_MARK = b"\xff" * 256


class _Sims:
    """A permutation group as a Schreier-Sims table (Sims 1970; Knuth 1991).

    Permutations are 256-byte translate tables that fix every point outside
    `base`.  Level j keeps the orbit of base[j] under the strong generators
    that fix base[:j]; each orbit point x holds a group element taking
    base[j] to x, and its inverse, so sifting is one translate per level.
    """

    def __init__(self, base: bytes):
        self.base = base
        self.strong = [[] for _ in base]
        self.orbits = [{b: (_IDENTITY, _IDENTITY)} for b in base]

    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self.orbits)

    def _sift(self, p: bytes, level: int):
        '''(j, residue): the level where p leaves the table, or len(base).'''
        for j in range(level, len(self.base)):
            known = self.orbits[j].get(p[self.base[j]])
            if known is None:
                return j, p
            p = p.translate(known[1])
        return len(self.base), p

    def __contains__(self, p: bytes) -> bool:
        return self._sift(p, 0)[0] == len(self.base)

    def add(self, p: bytes) -> None:
        '''Extend the group by the permutation p.

        Every (orbit point, strong generator) pair of every level is
        visited once, deepest level first: a new orbit point extends the
        orbit, a known one gives a Schreier generator, which is sifted
        through the complete levels below.
        '''
        pending = [[] for _ in self.base]
        j = self._insert(p, 0, pending)
        while j >= 0:
            if not pending[j]:
                j -= 1
                continue
            x, s, s_inv = pending[j].pop()
            orbit = self.orbits[j]
            t, t_inv = orbit[x]
            u = t.translate(s)
            y = s[x]
            known = orbit.get(y)
            if known is None:
                orbit[y] = (u, s_inv.translate(t_inv))
                pending[j].extend((y, g, g_inv) for g, g_inv in self.strong[j])
            else:
                j = max(j, self._insert(u.translate(known[1]), j + 1, pending))

    def _insert(self, p: bytes, level: int, pending: list) -> int:
        '''Sift p from level on; store what is left of it as a strong
        generator of every level it reaches.  The deepest such level, or -1.'''
        j, h = self._sift(p, level)
        if j == len(self.base):
            return -1
        h_inv = bytes.maketrans(h, _IDENTITY)
        for k in range(level, j + 1):
            self.strong[k].append((h, h_inv))
            pending[k].extend((x, h, h_inv) for x in self.orbits[k])
        return j


def _image_key(x: bytes, n: int) -> bytes:
    '''The set of entries of x, as n bytes: 255 at each entry, the point
    itself elsewhere (no state is 255).'''
    return bytes.maketrans(x, _MARK[:len(x)])[:n]


def _image_orbit(gen_bytes, tables, cap):
    '''The image sets of the semigroup's elements, each as its `_image_key`,
    in the order _table_walk discovers them from the generators' own, with
    the table of their successors under the generators.'''
    n = len(gen_bytes[0])
    (ident, maketrans) = (_IDENTITY[:n], bytes.maketrans)

    def step(key):
        P = ident.translate(None, key)  # the members, sorted
        mark = _MARK[:len(P)]
        # _image_key(P.translate(table), n), inlined
        return [maketrans(P.translate(table), mark)[:n] for table in tables]

    return _table_walk([_image_key(g, n) for g in gen_bytes], step, cap,
                       "semigroup count exceeded {cap} image sets ({i} of them expanded)")


def _components(succ):
    '''Strongly connected components of the graph with these successor
    lists, by an iterative Tarjan: the component of each node, named by
    the node where the search closes it.'''
    count = len(succ)
    number = [-1] * count
    low = [0] * count
    component_of = [-1] * count
    stack: list[int] = []
    counter = 0
    for root in range(count):
        if number[root] >= 0:
            continue
        number[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if number[w] < 0:
                    number[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if component_of[w] < 0 and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == number[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        component_of[w] = v
    return component_of


class _Component:
    """The strongly connected component of the image orbit that holds
    `root`, built when an element first lands in it, at `root`.

    It fills in `norm[p]` for each of its image sets p: a translate table
    that takes an element with image set p to an R-related element with
    root's image set R.  It keeps R's Schutzenberger group (None when
    trivial) and, per kernel, the representatives stored so far.  The walk
    from root reaches the whole component without leaving it, so its length
    is the component's size.
    """

    def __init__(self, root, component_of, keys, succ, tables, norm):
        c = component_of[root]
        R = _IDENTITY[:len(keys[root])].translate(None, keys[root])
        norm[root] = _IDENTITY
        path = {root: R}  # where R's points go along the Schreier tree
        group = None
        queue = [root]
        for p in queue:  # grows while it is walked
            for table, q in zip(tables, succ[p]):
                if component_of[q] != c:
                    continue
                img = path[p].translate(table)
                if q not in path:
                    path[q] = img
                    norm[q] = bytes.maketrans(img, R)
                    queue.append(q)
                    continue
                # a Schreier generator; one that fixes R pointwise adds nothing
                back = img.translate(norm[q])
                if back != R:
                    if group is None:
                        group = _Sims(R)
                    group.add(bytes.maketrans(R, back))
        self.group = group
        self.weight = len(queue) * (1 if group is None else group.order())
        self.reps: dict[bytes, list[bytes]] = {}


def _kernel(x: bytes) -> bytes:
    '''x relabelled by first occurrence: equal exactly when kernels are.'''
    firsts = bytes(dict.fromkeys(x))
    return x.translate(bytes.maketrans(firsts, _IDENTITY[:len(firsts)]))


def semigroup_size(generators, cap: int = CLOSURE_CAP) -> int:
    '''The number of elements of the semigroup the transformations generate.

    Counts R-class by R-class and stores one representative of each, never
    the elements.  Raises ResourceCap once more than `cap` image sets, or
    more than `cap` R-class representatives, are stored.  The generators'
    own image sets and R-classes are stored regardless, so the count goes
    through whenever `closure` with the same cap would.
    '''
    gen_bytes = _image_bytes(generators)
    n = len(gen_bytes[0])
    pad = _IDENTITY[n:]
    tables = [g + pad for g in gen_bytes]
    keys, flat = _image_orbit(gen_bytes, tables, cap)
    index = {key: i for i, key in enumerate(keys)}
    k = len(tables)
    succ = [flat[i:i + k] for i in range(0, len(flat), k)]
    mark, maketrans = _MARK[:n], bytes.maketrans
    component_of = _components(succ)
    norm: list = [None] * len(keys)
    built: list = [None] * len(keys)
    seen: set[bytes] = set()
    reps: list[bytes] = []
    total = 0
    # left multiplication maps R-classes onto R-classes; the identity's
    # products are the generators, whose R-classes the walk starts from
    for expanded, rep in enumerate(chain((_IDENTITY[:n],), reps)):
        table = rep + pad
        for g in gen_bytes:
            x = g.translate(table)
            p = index[maketrans(x, mark)[:n]]  # _image_key(x, n), inlined
            c = component_of[p]
            comp = built[c]
            if comp is None:
                comp = built[c] = _Component(p, component_of, keys, succ, tables, norm)
            x = x.translate(norm[p])
            if x in seen:
                continue
            seen.add(x)
            group = comp.group
            if group is not None:
                # same kernel, same component: R-related exactly when some
                # element of the group maps one onto the other
                bucket = comp.reps.setdefault(_kernel(x), [])
                if any(maketrans(y, x) in group for y in bucket):
                    continue
                bucket.append(x)
            if expanded and len(reps) >= cap:
                raise ResourceCap(f"semigroup count exceeded {cap} R-classes "
                                  f"({len(keys)} image sets, {expanded} "
                                  f"R-classes expanded)")
            reps.append(x)
            total += comp.weight
    return total


def _letters(d: Dfa) -> list[Transformation]:
    return [Transformation(d.n, row) for row in d.delta]


def transition_semigroup(d: Dfa, cap: int = CLOSURE_CAP) -> Semigroup:
    '''The semigroup generated by the letter transformations of d.'''
    return closure(_letters(d), cap)


def syntactic_complexity(d: Dfa) -> int:
    '''Size of the transition semigroup of the minimal DFA of L(d).'''
    return semigroup_size(_letters(minimize(d)))
