"""Decision procedures for suffix-convexity and its three special cases.

A language L is suffix-convex when w in L and uvw in L force vw in L.  The
special cases are left ideals (nonempty, closed under adding any prefix),
suffix-closed languages, and suffix-free languages.  A language is proper
when it is suffix-convex and none of the three.

All four are decided on a DFA by walking pairs of states, with no subset
construction.  Write L_q for the language accepted from state q, so that
the left quotient of L by a word u is L_{0u}.  A pair (x, y) reached from
(p, q) on a word w is (final, non-final) exactly when w is in L_p but not
in L_q, so L_p is contained in L_q when no such pair is reachable.  For q
ranging over the reachable states:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .automata import Dfa, minimize, reachable_pairs

Word = tuple[str, ...]


@dataclass(frozen=True)
class Classification:
    suffix_convex: bool
    left_ideal: bool
    suffix_closed: bool
    suffix_free: bool
    proper: bool
    counterexample: tuple[Word, Word, Word] | None = None


def _reach_words(d):
    '''Shortest word to each reachable state, ties by alphabet order.'''
    word = {0: ()}
    order = [0]
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for k, letter in enumerate(d.alphabet):
            t = d.delta[k][q]
            if t not in word:
                word[t] = word[q] + (letter,)
                order.append(t)
    return order, word


def is_suffix_convex(d: Dfa):
    """Decide suffix-convexity of L(d).

    Returns (True, None), or (False, (u, v, w)) with each word a tuple of
    letter names such that w and uvw are accepted but vw is not.

    The search runs on the minimal DFA.  Stage 1 walks the pairs (0uv, 0v)
    reachable from {(q, 0) | q reachable}; stage 2 walks triples
    (0w', 0uvw', 0vw') from each (0, q, r) seed, in stage 1's order, looking
    for an accepted pair whose third coordinate is rejected.
    """
    d = minimize(d)
    nletters = len(d.alphabet)

    order, uword = _reach_words(d)

    pair_parent = {}
    pairs = reachable_pairs(d.delta, d.delta, [(q, 0) for q in order],
                            pair_parent)

    triple_parent = {}
    frontier = deque()

    def check(t):
        (p, q, r) = t
        return p in d.finals and q in d.finals and r not in d.finals

    bad = None
    for (q, r) in pairs:
        seed = (0, q, r)
        if seed not in triple_parent:
            triple_parent[seed] = None
            if check(seed):
                bad = seed
                break
            frontier.append(seed)
    while bad is None and frontier:
        tri = frontier.popleft()
        (x, y, z) = tri
        for k in range(nletters):
            t = (d.delta[k][x], d.delta[k][y], d.delta[k][z])
            if t not in triple_parent:
                triple_parent[t] = (tri, k)
                if check(t):
                    bad = t
                    break
                frontier.append(t)
        if bad is not None:
            break
    if bad is None:
        return True, None

    # walk stage-2 parents back to the seed triple, collecting w
    w = []
    node = bad
    while triple_parent[node] is not None:
        node, k = triple_parent[node]
        w.append(d.alphabet[k])
    w.reverse()
    # the seed (0, q, r) names a stage-1 pair; walk that back for v
    (_, q, r) = node
    v = []
    pair = (q, r)
    while pair_parent[pair] is not None:
        pair, k = pair_parent[pair]
        v.append(d.alphabet[k])
    v.reverse()
    # the stage-1 seed (q0, 0) names the state 0u reached by u
    u = uword[pair[0]]
    return False, (tuple(u), tuple(v), tuple(w))


def is_left_ideal(d: Dfa) -> bool:
    '''Whether L(d) is nonempty and equal to sigma* L(d).'''
    reach = d.reachable()
    if not any(q in d.finals for q in reach):
        return False
    return not any(x in d.finals and y not in d.finals
                   for x, y in reachable_pairs(d.delta, d.delta,
                                               [(0, q) for q in reach]))


def is_suffix_closed(d: Dfa) -> bool:
    '''Whether every suffix of every accepted word is accepted.'''
    seeds = [(q, 0) for q in d.reachable()]
    return not any(x in d.finals and y not in d.finals
                   for x, y in reachable_pairs(d.delta, d.delta, seeds))


def is_suffix_free(d: Dfa) -> bool:
    '''Whether no accepted word is a proper suffix of another.'''
    seeds = [(row[q], 0) for q in d.reachable() for row in d.delta]
    return not any(x in d.finals and y in d.finals
                   for x, y in reachable_pairs(d.delta, d.delta, seeds))


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
