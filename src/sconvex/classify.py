"""Decision procedures for suffix-convexity and its three special cases.

A language L is suffix-convex when w in L and uvw in L force vw in L.  The
special cases are left ideals (nonempty, closed under adding any prefix),
suffix-closed languages, and suffix-free languages.  A language is proper
when it is suffix-convex and none of the three.

All four are decided on a DFA by walking tuples of states with
`automata.reachable_tuples`, with no subset construction.  Write L_q for
the language accepted from state q, so that the left quotient of L by a
word u is L_{0u}.  A pair (x, y) reached from (p, q) on a word w is
(final, non-final) exactly when w is in L_p but not in L_q, so L_p is
contained in L_q when no such pair is reachable.  For q ranging over the
reachable states:

- L is a left ideal when it is nonempty and uw in L whenever w is, that
  is, L is contained in every quotient L_q: no pair reachable from any
  (0, q) is (final, non-final).
- L is suffix-closed when w in L whenever uw is, that is, every quotient
  L_q is contained in L: no pair reachable from any (q, 0) is (final,
  non-final).
- L is suffix-free when w in L and uw in L never hold together for a
  nonempty u, that is, L is disjoint from every quotient by a nonempty
  word, whose states are the successors delta(q, a): no pair reachable
  from any (delta(q, a), 0) is (final, final).

L is suffix-convex when no word w takes a triple (0, 0uv, 0v) to (final,
final, non-final), that is, w and uvw are accepted but vw is not.  The
states 0u, the pairs (0uv, 0v) and the triples are three chained walks,
from (0,), from each (0u, 0) and from each (0, 0uv, 0v).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, minimize, reachable_tuples

Word = tuple[str, ...]


@dataclass(frozen=True)
class Classification:
    suffix_convex: bool
    left_ideal: bool
    suffix_closed: bool
    suffix_free: bool
    proper: bool
    counterexample: tuple[Word, Word, Word] | None = None


def _spell(parent, node):
    '''The seed a walk reached node from, and the letter indices on the way.'''
    word = []
    while parent[node] is not None:
        node, k = parent[node]
        word.append(k)
    word.reverse()
    return node, word


def is_suffix_convex(d: Dfa):
    """Decide suffix-convexity of L(d).

    Returns (True, None), or (False, (u, v, w)) with each word a tuple of
    letter names such that w and uvw are accepted but vw is not.

    The three chained walks run lazily on the minimal DFA and stop at the
    first (final, final, non-final) triple; w, v and u are spelled back
    through the parents of the triple, pair and state walks in turn.
    """
    d = minimize(d)
    finals = d.finals
    state_parent, pair_parent, triple_parent = {}, {}, {}
    states = reachable_tuples(d.delta, [(0,)], state_parent)
    pairs = reachable_tuples(d.delta, ((q, 0) for (q,) in states), pair_parent)
    triples = reachable_tuples(d.delta, ((0, q, r) for q, r in pairs),
                               triple_parent)
    for t in triples:
        if t[0] in finals and t[1] in finals and t[2] not in finals:
            seed, w = _spell(triple_parent, t)
            seed, v = _spell(pair_parent, seed[1:])
            seed, u = _spell(state_parent, seed[:1])
            return False, tuple(tuple(d.alphabet[k] for k in word)
                                for word in (u, v, w))
    return True, None


def is_left_ideal(d: Dfa) -> bool:
    '''Whether L(d) is nonempty and equal to sigma* L(d).'''
    reach = d.reachable()
    if not any(q in d.finals for q in reach):
        return False
    return not any(x in d.finals and y not in d.finals
                   for x, y in reachable_tuples(d.delta, [(0, q) for q in reach]))


def is_suffix_closed(d: Dfa) -> bool:
    '''Whether every suffix of every accepted word is accepted.'''
    seeds = [(q, 0) for q in d.reachable()]
    return not any(x in d.finals and y not in d.finals
                   for x, y in reachable_tuples(d.delta, seeds))


def is_suffix_free(d: Dfa) -> bool:
    '''Whether no accepted word is a proper suffix of another.'''
    seeds = [(row[q], 0) for q in d.reachable() for row in d.delta]
    return not any(x in d.finals and y in d.finals
                   for x, y in reachable_tuples(d.delta, seeds))


def classify(d: Dfa) -> Classification:
    '''All four predicates plus the proper flag, in one record.'''
    convex, counterexample = is_suffix_convex(d)
    ideal = is_left_ideal(d)
    closed = is_suffix_closed(d)
    free = is_suffix_free(d)
    return Classification(
        suffix_convex=convex,
        left_ideal=ideal,
        suffix_closed=closed,
        suffix_free=free,
        proper=convex and not ideal and not closed and not free,
        counterexample=counterexample,
    )
