"""Transformations of the state set, notation parsing, and semigroup closure.

A transformation of Q_n = {0, ..., n-1} is stored as its image vector, so
``image[q]`` is where q goes.  Products are written left to right: q(st)
means (qs)t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automata import Dfa, minimize
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

    def apply(self, q: int) -> int:
        return self.image[q]

    def is_identity(self) -> bool:
        return all(self.image[q] == q for q in range(self.n))

    def __str__(self):
        return "[" + " ".join(str(q) for q in self.image) + "]"


def identity(n: int) -> Transformation:
    return Transformation(n, tuple(range(n)))


def compose(s: Transformation, t: Transformation) -> Transformation:
    '''The product st, applied s first: image[q] = t.image[s.image[q]].'''
    if s.n != t.n:
        raise SizeMismatch(f"cannot compose domains {s.n} and {t.n}")
    return Transformation(s.n, tuple(t.image[q] for q in s.image))


def apply_to_set(t: Transformation, P) -> frozenset[int]:
    '''The image set Pt = {pt | p in P}.'''
    out = set()
    for p in P:
        if not 0 <= p < t.n:
            raise StateOutOfRange(f"state {p} outside 0..{t.n - 1}")
        out.add(t.image[p])
    return frozenset(out)


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
    compact = re.sub(r"\s+", "", text)
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
    result = identity(n)
    for body in factors:
        result = compose(result, _parse_factor(body, n))
    return result


# ---------------------------------------------------------------------------
# semigroup closure

@dataclass(frozen=True)
class Semigroup:
    """A transformation semigroup given by generators, with every element.

    `images` lists the image vectors in the enumeration order of the
    closure: breadth-first by product length, ties broken by generator
    order.  Generators appear first, whether or not the identity is among
    them.
    """

    n: int
    generators: tuple[Transformation, ...]
    images: tuple[bytes, ...]

    def __len__(self):
        return len(self.images)

    def __contains__(self, t) -> bool:
        if isinstance(t, Transformation):
            if t.n != self.n:
                return False
            t = bytes(t.image)
        return t in self.image_set()

    def image_set(self) -> frozenset[bytes]:
        cached = self.__dict__.get("_image_set")
        if cached is None:
            cached = frozenset(self.images)
            object.__setattr__(self, "_image_set", cached)
        return cached

    def elements(self):
        '''Yield every element as a Transformation, in enumeration order.'''
        for img in self.images:
            yield Transformation(self.n, tuple(img))

    def dump(self) -> str:
        '''One image vector per line, entries space-separated, sorted.'''
        lines = [" ".join(str(q) for q in img) for img in sorted(self.images)]
        return "\n".join(lines) + "\n"


def closure(generators, cap: int = CLOSURE_CAP) -> Semigroup:
    '''Close a list of transformations under composition.'''
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise SizeMismatch("generators must share a domain")
    if n > 255:
        raise ResourceCap("semigroup closure supports at most 255 states")
    gen_bytes = [bytes(g.image) for g in gens]
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
    return Semigroup(n, gens, tuple(order))


def transition_semigroup(d: Dfa, cap: int = CLOSURE_CAP) -> Semigroup:
    '''The semigroup generated by the letter transformations of d.'''
    gens = [Transformation(d.n, d.delta[k]) for k in range(len(d.alphabet))]
    return closure(gens, cap)


def syntactic_complexity(d: Dfa) -> int:
    '''Size of the transition semigroup of the minimal DFA of L(d).'''
    return len(transition_semigroup(minimize(d)))
