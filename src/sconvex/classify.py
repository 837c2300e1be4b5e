"""Decision procedures for suffix-convexity and its three special cases.

A language L is suffix-convex when w in L and uvw in L force vw in L.  The
special cases are left ideals (nonempty, closed under adding any prefix),
suffix-closed languages, and suffix-free languages.  A language is proper
when it is suffix-convex and none of the three.

All four come from one chain of walks over tuples of states, by
`automata.reachable_tuples`, with no subset construction.  Write L_q for
the language accepted from state q, so that the left quotient of L by a
word u is L_{0u}.  A pair (x, y) reached from (p, q) on a word w is
(final, non-final) exactly when w is in L_p but not in L_q.

L is suffix-convex when no word w takes a triple (0, 0uv, 0v) to (final,
final, non-final), that is, w and uvw are accepted but vw is not.  The
states 0u, the pairs (0uv, 0v) and the triples are three chained walks,
from (0,), from each (0u, 0) and from each (0, 0uv, 0v).

Each special class is suffix-convex, so a counterexample rules out all
three.  Otherwise the pair walk reached every pair reachable from a (q, 0),
q reachable:

- L is suffix-closed when every L_q is contained in L: no such pair is
  (final, non-final).
- L is a left ideal when it is nonempty and contained in every L_q: no
  pair reachable from a (0, q) is (final, non-final), that is, no mirror
  image (non-final, final) is among the pairs from the (q, 0).
- L is suffix-free when it is disjoint from every quotient by a nonempty
  word, whose states are the successors delta(q, a): no pair reachable
  from a (delta(q, a), 0) is (final, final).  This is one more walk.

Every criterion speaks of the quotients L_q of reachable states, so it
holds on the reachable part of any complete DFA, minimal or not.
`classify` minimizes only to keep the walks small and its counterexample
canonical.

`triples.canonical_system` decides convexity with its own backward masks
and refuses at the first seed (0, x, y) they mark.  Only then does it run
this chain, on its minimal input with no second minimize: the walks
follow letter and discovery order alone, so the words do not change.
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


def _chain(d: Dfa):
    """For a minimal d, a counterexample (u, v, w) or None, and the pair
    walk's parents, which hold every pair it reached.

    The chained walks run lazily and stop at the first (final, final,
    non-final) triple; w, v and u are spelled back through the parents of
    the triple, pair and state walks in turn.  The triple walk takes every
    pair as a seed first, so without a counterexample the pair walk ends.
    """
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
            return tuple(tuple(d.alphabet[k] for k in word)
                         for word in (u, v, w)), pair_parent
    return None, pair_parent


def _inclusions(finals, pairs):
    """Whether L is a left ideal and whether it is suffix-closed, read off
    every pair reachable from a (q, 0), q reachable; L is nonempty when
    some such pair is (final, _), as the seed of a final q is."""
    kinds = {(x in finals, y in finals) for x, y in pairs}
    ideal = any(x for x, _ in kinds) and (False, True) not in kinds
    return ideal, (True, False) not in kinds


def _suffix_free(d: Dfa) -> bool:
    '''Whether no pair reachable from a (delta(q, a), 0) is (final, final).'''
    finals = d.finals
    seeds = [(row[q], 0) for q in range(d.n) for row in d.delta]
    return not any(x in finals and y in finals
                   for x, y in reachable_tuples(d.delta, seeds))


def classify(d: Dfa) -> Classification:
    '''All four predicates plus the proper flag, in one record.'''
    d = minimize(d)
    counterexample, pairs = _chain(d)
    if counterexample is not None:
        return Classification(False, False, False, False, False, counterexample)
    ideal, closed = _inclusions(d.finals, pairs)
    free = _suffix_free(d)
    return Classification(True, ideal, closed, free,
                          not (ideal or closed or free))
