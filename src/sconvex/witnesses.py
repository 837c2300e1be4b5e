"""The three witness families, their triple systems, and dialects.

Each family is a stream of n-state DFAs built from a fixed letter list, one
family per bound: star, reversal, and syntactic-semigroup size.  Dialects
rename or delete letters so the same stream feeds binary operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa
from .errors import AlphabetMismatch, BadSize, NotInjective, ResourceCap
from .transformations import CLOSURE_CAP, parse_transformation
from .triples import (Preorder, TripleSystem, _check_system_size,
                      order_system, total_order)


def _check_witness_size(n, letters):
    '''Refuse a witness whose n*letters table entries pass CLOSURE_CAP, the
    rule random_suffix_convex keeps, before anything of size n is built.'''
    if n * letters > CLOSURE_CAP:
        raise ResourceCap(f"a witness on {n} states with {letters} letters "
                          f"needs n*letters at most {CLOSURE_CAP}")


def _witness(n, finals, letter_specs):
    alphabet = tuple(name for name, _ in letter_specs)
    delta = tuple(parse_transformation(text, n).image for _, text in letter_specs)
    return Dfa(n, alphabet, delta, frozenset(finals))


def star_witness(n: int) -> Dfa:
    """The n-state stream meeting the star bound, letters a..f, final n-2.

    Letters: a shifts 0..n-2 up, b shifts 1..n-1 down, c sends the top two
    non-sink states to n-1, d sends n-2 to n-1, e and f are the identity.
    """
    if n < 3:
        raise BadSize(f"star family needs n >= 3, got {n}")
    _check_witness_size(n, 6)
    return _witness(n, {n - 2}, [
        ("a", f"(_0^{n - 2} q->q+1)"),
        ("b", f"(_1^{n - 1} q->q-1)"),
        ("c", f"({{{n - 3},{n - 2}}}->{n - 1})"),
        ("d", f"({n - 2}->{n - 1})"),
        ("e", "1"),
        ("f", "1"),
    ])


def reversal_witness(n: int) -> Dfa:
    """The n-state stream meeting the reversal bound, letters a..h, final 1.

    Defined only from n = 4: at n = 3 the family's transformations refer to
    state 3, which Q_3 does not have.
    """
    if n < 4:
        raise BadSize(f"reversal family needs n >= 4, got {n}: "
                      "its letters refer to state 3")
    _check_witness_size(n, 8)
    cycle = "(" + ",".join(str(q) for q in range(3, n)) + ")"
    return _witness(n, {1}, [
        ("a", cycle),
        ("b", "(3->1)"),
        ("c", "(3->2)"),
        ("d", "(1->0)"),
        ("e", "(1->2)"),
        ("f", "(2->1)"),
        ("g", "(Q->3)"),
        ("h", "(Q\\{0}->2)(0->1)"),
    ])


def syntactic_witness(n: int) -> Dfa:
    """The n-state stream meeting the syntactic-semigroup bound, final n-2.

    Letters: a cycles 1..n-2, b swaps 1 and 2, c and d drop n-2 to 1 and 0,
    e collapses everything but n-1 onto 1, f and g move n-1 to 0 and 1, and
    h sends everything to n-1.
    """
    if n < 3:
        raise BadSize(f"syntactic family needs n >= 3, got {n}")
    _check_witness_size(n, 8)
    cycle = "(" + ",".join(str(q) for q in range(1, n - 1)) + ")"
    # at n = 3 letter b must degenerate to the identity: swapping 1 and 2
    # would map the lone middle state onto n-1 and change the semigroup
    b = "1" if n == 3 else "(1,2)"
    return _witness(n, {n - 2}, [
        ("a", cycle),
        ("b", b),
        ("c", f"({n - 2}->1)"),
        ("d", f"({n - 2}->0)"),
        ("e", f"(Q\\{{{n - 1}}}->1)"),
        ("f", f"({n - 1}->0)"),
        ("g", f"({n - 1}->1)"),
        ("h", f"(Q->{n - 1})"),
    ])


def reversal_order(n: int) -> Preorder:
    '''The order behind the reversal family: 2 below 1, plus the 0 maximum.'''
    if n < 3:
        raise BadSize(f"the reversal order needs n >= 3, got {n}")
    up = [1 | 1 << p for p in range(n)]
    up[2] |= 1 << 1
    return Preorder(n, up)


def star_system(n: int) -> TripleSystem:
    '''Triple system of the star family: the total order with final n-2.'''
    if n < 3:
        raise BadSize(f"star system needs n >= 3, got {n}")
    _check_system_size(n, CLOSURE_CAP)
    return order_system(total_order(n), {n - 2})


def reversal_system(n: int) -> TripleSystem:
    '''Triple system of the reversal family: its order with final 1.'''
    _check_system_size(n, CLOSURE_CAP)
    return order_system(reversal_order(n), {1})


def syntactic_system(n: int) -> TripleSystem:
    """Triple system of the syntactic family, final n-2.

    States 0..n-2 form one equivalence pod and n-1 sits strictly below it,
    so beyond the mandatory triples R anchors (0, p, q) for p, q in the pod
    and (0, n-1, q) for q in the pod, both symmetrized.
    """
    if n < 3:
        raise BadSize(f"syntactic system needs n >= 3, got {n}")
    _check_system_size(n, CLOSURE_CAP)
    pod = (1 << n - 1) - 1
    return TripleSystem(n, {n - 2}, [1 << p | 1 << q | (pod if 0 in (p, q) else 0)
                                     for p in range(n) for q in range(n)])


# ---------------------------------------------------------------------------
# dialects

@dataclass(frozen=True)
class LetterMap:
    """A per-letter renaming with deletions, injective where defined.

    image[k] is the new name of source[k], or None when that letter is
    removed from the alphabet.
    """

    source: tuple[str, ...]
    image: tuple[str | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.source) != len(self.image):
            raise AlphabetMismatch("image must name every source letter")
        defined = [x for x in self.image if x is not None]
        if len(defined) != len(set(defined)):
            raise NotInjective("two letters map to the same name")

    @classmethod
    def parse(cls, source, text: str) -> "LetterMap":
        """Read a comma list like  a=e,b=f,c=-,d=-  ("-" deletes)."""
        source = tuple(source)
        assigned = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise AlphabetMismatch(f"expected letter=target, got {part!r}")
            old, _, new = part.partition("=")
            old, new = old.strip(), new.strip().replace("−", "-")
            if old not in source:
                raise AlphabetMismatch(f"unknown letter {old!r}")
            if old in assigned:
                raise AlphabetMismatch(f"letter {old!r} mapped twice")
            assigned[old] = None if new == "-" else new
        image = tuple(assigned.get(letter, letter) for letter in source)
        return cls(source, image)

    @classmethod
    def keep(cls, source, images) -> "LetterMap":
        '''Positional form: one new name or None per source letter.'''
        return cls(tuple(source), tuple(images))


def dialect(d: Dfa, m: LetterMap) -> Dfa:
    """Rename and delete letters of d per the map.

    Deleting a letter removes its transitions outright, so words that used
    it disappear from the language.
    """
    if m.source != d.alphabet:
        raise AlphabetMismatch(
            f"map covers {m.source}, automaton has {d.alphabet}")
    kept = [(new, k) for k, new in enumerate(m.image) if new is not None]
    alphabet = tuple(new for new, _ in kept)
    delta = tuple(d.delta[k] for _, k in kept)
    return Dfa(d.n, alphabet, delta, d.finals)
