from __future__ import annotations

import random

from sconvex import Dfa
from sconvex.triples import _require_partial_order, _respecting_walk


def random_dfa(rng: random.Random, n: int, letters: int) -> Dfa:
    """Uniform transition table, each state final with probability 0.4."""
    names = tuple("abcdefgh"[:letters])
    delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in names)
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(n, names, delta, finals)


def monotone_walk(po):
    """The maps monotone for the partial order po, lexicographic, as image
    bytes: the library's respecting walk with no scan triple, after its
    partial-order check.  It reaches sizes that oracles.naive_monotone_maps
    cannot."""
    _require_partial_order(po)
    return _respecting_walk(po)()
