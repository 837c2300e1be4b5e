"""Verification suites, random suffix-convex generation, and the probe.

Every suite reproduces one tight bound by exact computation and emits one
report per parameter point.  A report passes exactly when the computed
value equals the expected one; inequality checks are encoded as 0/1
predicates so the same rule applies.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby, permutations, product
from operator import itemgetter

from . import automata
from .automata import (Dfa, atom_count, nfa_complexity, product_nfa, star_nfa,
                       _BOOLEAN_OPS, _complexity_and_atoms, _mask, _pair_complexity,
                       _pair_walk)
from .errors import BadSize, ResourceCap
from .transformations import CLOSURE_CAP, syntactic_complexity
from .triples import (Preorder, TripleSystem, _bits, _convex_violation,
                      _count_monotone, _respecting_walk, antichain_order,
                      canonical_system, letter_names, monotone_count,
                      preorder_of, total_order)
from .witnesses import (LetterMap, dialect, reversal_order, reversal_witness,
                        star_witness, syntactic_witness)

STAR_RANGE = range(3, 11)
PRODUCT_RANGE = range(3, 9)
BOOLEAN_RANGE = range(3, 9)
REVERSAL_RANGE = range(4, 11)
SYNTACTIC_RANGE = range(3, 8)
MONOTONE_RANGE = range(3, 8)
# the counter's work cap admits both orders to 112 states
MONOTONE_MAX_N = 100
EXCLUSION_RANGE = range(4, 9)

DEFAULT_SEED = 987123

# the reversal-bound samples: up to this many states and letters
REVERSAL_SAMPLE_MAX_N = 8
REVERSAL_SAMPLE_MAX_LETTERS = 6


@dataclass(frozen=True)
class Report:
    """One check of one suite at one parameter point.  `ms` is the wall
    time of the check's own compute() alone: inputs its suite builds
    before the check are not counted."""

    suite: str
    params: tuple[tuple[str, int], ...]
    expected: int
    actual: int
    ms: float

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def line(self) -> str:
        middle = "".join(f" {k}={v}" for k, v in self.params)
        result = "PASS" if self.passed else "FAIL"
        return (f"suite={self.suite}{middle} "
                f"expected={self.expected} actual={self.actual} result={result}")

    def to_json(self) -> dict:
        return {"suite": self.suite, "params": dict(self.params),
                "expected": self.expected, "actual": self.actual,
                "pass": self.passed, "ms": self.ms}


def _check(suite, params, expected, compute) -> Report:
    '''Run compute() once, timed, and report its value against expected.'''
    t0 = time.perf_counter()
    actual = compute()
    ms = round((time.perf_counter() - t0) * 1000, 2)
    return Report(suite, tuple(params), expected, actual, ms)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2) + "\n"


# ---------------------------------------------------------------------------
# bound formulas

def star_bound(n: int) -> int:
    return 2 ** (n - 1) + 2 ** (n - 2)


def product_bound(m: int, n: int) -> int:
    return (m - 1) * 2 ** n + 2 ** (n - 1)


def reversal_bound(n: int) -> int:
    return 2 ** n - 2 ** (n - 3)


def syntactic_bound(n: int) -> int:
    return n * (n - 1) ** (n - 2) + (n - 1) ** 2


def monotone_total_count(n: int) -> int:
    return math.comb(2 * n - 1, n)


def monotone_reversal_count(n: int) -> int:
    return 2 * n ** (n - 2) + 3 * 2 ** (n - 3) + n - 2


# ---------------------------------------------------------------------------
# verification suites

def _points(values):
    """values as given when a Sequence, else listed once: the suites walk
    their ranges twice, for the refusal checks and for the reports, so a
    one-shot iterator would pass the checks and leave no reports."""
    return values if isinstance(values, Sequence) else tuple(values)


def _refuse_past_subset_cap(suite, points):
    """ResourceCap at the first (params, bound) point whose bound is over
    SUBSET_CAP, read at call time.  A suite calls this before it builds any
    input: its subset walk reaches at least as many subsets as the minimal
    DFA has states (the atoms exactly, for reversal), so it would be
    refused anyway, only after the work."""
    cap = automata.SUBSET_CAP
    for params, bound in points:
        if bound > cap:
            where = " ".join(f"{k}={v}" for k, v in params)
            raise ResourceCap(f"the {suite} suite at {where} expects {bound} "
                              f"states, over the subset cap {cap}")


def _star_dialect(n, images):
    '''The star witness on n states, its letters a..f renamed to images.'''
    return dialect(star_witness(n), LetterMap.keep("abcdef", images))


def verify_star(ns=STAR_RANGE):
    '''Star of the a,b,c,d dialect of the star witness hits its bound.'''
    ns = _points(ns)
    _refuse_past_subset_cap("star", (([("n", n)], star_bound(n)) for n in ns))
    four = ("a", "b", "c", "d", None, None)
    return [_check("star", [("n", n)], star_bound(n),
                   lambda: nfa_complexity(star_nfa(_star_dialect(n, four))))
            for n in ns]


def verify_product(ms=PRODUCT_RANGE, ns=PRODUCT_RANGE):
    '''Concatenating the two star-witness dialects hits the product bound.'''
    (ms, ns) = (_points(ms), _points(ns))
    _refuse_past_subset_cap("product", (([("n", n), ("m", m)], product_bound(m, n))
                                        for m in ms for n in ns))
    reports = []
    for m in ms:
        left = _star_dialect(m, ("a", "b", "c", None, "e", "f"))
        for n in ns:
            right = _star_dialect(n, ("e", "f", None, None, "a", "b"))
            cat = product_nfa(left, right, complete_missing=True)
            reports.append(_check("product", [("n", n), ("m", m)], product_bound(m, n),
                                  lambda: nfa_complexity(cat)))
    return reports


BOOLEAN_OPS = tuple(_BOOLEAN_OPS)


def verify_boolean(ms=BOOLEAN_RANGE, ns=BOOLEAN_RANGE):
    '''All four boolean operations on the dialect pair hit m times n.

    The four share one product walk, made before their checks, so each
    `ms` covers counting its operation's Nerode blocks on that walk alone.
    '''
    (ms, ns) = (_points(ms), _points(ns))
    _refuse_past_subset_cap("boolean", (([("n", n), ("m", m)], m * n)
                                        for m in ms for n in ns))
    reports = []
    for m in ms:
        left = _star_dialect(m, ("a", "b", None, None, "e", "f"))
        for n in ns:
            right = _star_dialect(n, ("e", "f", None, None, "a", "b"))
            walk = _pair_walk(left, right)
            for op in BOOLEAN_OPS:
                reports.append(_check(f"boolean-{op}", [("n", n), ("m", m)], m * n,
                                      lambda: _pair_complexity(left, right, walk, op)))
    return reports


def _bound_violations(samples, seed):
    rng = random.Random(seed)
    violations = 0
    for _ in range(samples):
        n = rng.randint(3, REVERSAL_SAMPLE_MAX_N)
        k = rng.randint(1, REVERSAL_SAMPLE_MAX_LETTERS)
        size, atoms = _complexity_and_atoms(
            random_suffix_convex(n, k, rng.randrange(2 ** 32)))
        if 8 * atoms > 7 * 2 ** size:
            violations += 1
    return violations


def verify_reversal(ns=REVERSAL_RANGE, samples=500, seed=DEFAULT_SEED):
    """Reversal witness values, plus the upper bound on random samples.

    The final report counts bound violations over `samples` seeded random
    suffix-convex DFAs: for a sample of complexity n', the atom count may
    not exceed 2^n' - 2^(n'-3), checked as 8*atoms <= 7*2^n' to stay in
    integers.  Both numbers come from one refinement of the raw sample and
    one subset walk on the reversal of its reachable part, which is
    minimal (Brzozowski 1962), so no sample is minimized.
    """
    if samples < 0:
        raise BadSize(f"samples must be at least 0, got {samples}")
    ns = _points(ns)
    _refuse_past_subset_cap("reversal", (([("n", n)], reversal_bound(n)) for n in ns))
    reports = [_check("reversal", [("n", n)], reversal_bound(n),
                      lambda: atom_count(reversal_witness(n)))
               for n in ns]
    reports.append(_check("reversal-bound",
                          [("n", REVERSAL_SAMPLE_MAX_N), ("samples", samples),
                           ("seed", seed)],
                          0, lambda: _bound_violations(samples, seed)))
    return reports


def verify_syntactic(ns=SYNTACTIC_RANGE):
    '''Transition semigroup of the syntactic witness hits the size bound.'''
    return [_check("syntactic", [("n", n)], syntactic_bound(n),
                   lambda: syntactic_complexity(syntactic_witness(n)))
            for n in ns]


def verify_monotone_counts(ns=MONOTONE_RANGE):
    '''Monotone-map counts, by dynamic programming with none of the maps
    produced, match the formulas.'''
    ns = _points(ns)
    # before the orders, whose construction grows with n^2
    for n in ns:
        if n < 3:
            raise BadSize(f"the monotone counts need n >= 3, got {n}")
        if n > MONOTONE_MAX_N:
            raise ResourceCap(f"the monotone counts support at most "
                              f"{MONOTONE_MAX_N} states, got {n}")
    reports = []
    for n in ns:
        reports.append(_check("monotone-total", [("n", n)], monotone_total_count(n),
                              lambda: monotone_count(total_order(n))))
        reports.append(_check("monotone-reversal", [("n", n)],
                              monotone_reversal_count(n),
                              lambda: monotone_count(reversal_order(n))))
    return reports


def _containment_breaches(s: TripleSystem) -> int:
    """Distinct-state quotient containments, beyond initial-into-final ones,
    read off a canonical system.

    L_p is contained in L_q exactly when (p, p, q) is in the canonical
    system: no word takes that triple to (final, final, non-final).
    """
    loops = [s.masks[p * s.n + p] & ~(1 << p) for p in range(s.n)]
    loops[0] &= ~_mask(s.finals)
    return sum(m.bit_count() for m in loops)


def verify_exclusions(ns=EXCLUSION_RANGE):
    """Each witness strictly misses the other bounds, with the structure
    of the canonical systems pinned down.

    Per n: the canonical order of the star witness is totally comparable,
    that of the reversal witness is a partial order whose only comparable
    distinct non-zero pair is (2, 1), and neither witness has a quotient
    containment between distinct states other than possibly
    initial-into-final.
    """
    reports = []
    for n in ns:
        # the witnesses are minimal as built; keep their own state numbering,
        # since the structural predicates below name specific states
        star = star_witness(n)
        rev = reversal_witness(n)
        star_system = canonical_system(star)
        rev_system = canonical_system(rev)
        (po, full) = (preorder_of(star_system), (1 << n) - 1)
        checks = (
            ("star-reversal-bound", 1,
             lambda: int(atom_count(star) < reversal_bound(n))),
            ("reversal-star-bound", 1,
             lambda: int(nfa_complexity(star_nfa(rev)) < star_bound(n))),
            ("star-syntactic", 1,
             lambda: int(syntactic_complexity(star) < syntactic_bound(n))),
            ("reversal-syntactic", 1,
             lambda: int(syntactic_complexity(rev) < syntactic_bound(n))),
            ("star-order-total", 1,
             lambda: int(all(u | d == full for u, d in zip(po.up, po.down)))),
            # a partial order with 0 on top and only 2 below 1 has just these up masks
            ("reversal-order-pair", 1,
             lambda: int(preorder_of(rev_system) == reversal_order(n))),
            ("star-containments", 0, lambda: _containment_breaches(star_system)),
            ("reversal-containments", 0, lambda: _containment_breaches(rev_system)),
        )
        for name, expected, compute in checks:
            reports.append(_check(f"exclusions-{name}", [("n", n)], expected, compute))
    return reports


SUITES = {
    "star": verify_star,
    "product": verify_product,
    "boolean": verify_boolean,
    "reversal": verify_reversal,
    "syntactic": verify_syntactic,
    "monotone": verify_monotone_counts,
    "exclusions": verify_exclusions,
}


# ---------------------------------------------------------------------------
# random generation

def _random_order(rng, n):
    # up[p] has bit q set when p <= q
    up = [1 | 1 << p for p in range(n)]
    if n >= 3:
        # (p, q) = rng.sample(range(1, n), 2), drawn as random.Random.sample
        # draws it: j and then i, each as _randbelow draws it, retrying
        # getrandbits past the bound.  Up to 21 items sample draws i below
        # m - 1 from a pool whose slot j now holds the last item, m; past 21
        # it redraws i below m while i == j.
        (m, getrandbits) = (n - 1, rng.getrandbits)
        (k, k1) = (m.bit_length(), (m - 1).bit_length())
        for _ in range(rng.randint(0, n * n)):
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            if m <= 21:
                i = getrandbits(k1)
                while i >= m - 1:
                    i = getrandbits(k1)
                q = m if i == j else i + 1
            else:
                i = j
                while i == j or i >= m:
                    i = getrandbits(k)
                q = i + 1
            p = j + 1
            if up[q] >> p & 1 or up[p] >> q & 1:
                continue
            # closing over one new edge: everything below p goes below
            # everything above q; antisymmetry is safe because q <= p
            # would already have been present
            for x in range(n):
                if up[x] >> p & 1:
                    up[x] |= up[q]
    return Preorder(n, up)


def _random_convex_finals(rng, po):
    n = po.n
    for _ in range(64):
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        if finals and len(finals) < n and _convex_violation(po, _mask(finals)) is None:
            return finals
    return frozenset({rng.randrange(n)})


def random_suffix_convex(n: int, letters: int, seed: int) -> Dfa:
    """A random DFA that is suffix-convex by construction.

    Samples a partial order with maximum 0 (random edge insertion with
    on-line transitive closure), a convex proper final set, and `letters`
    random order-monotone transformations.  Monotone letters plus a convex
    final set keep the language suffix-convex.  Fully determined by seed.
    Each letter is the first map of one shuffled walk of the monotone-map
    enumerator, all on tables built once for the order; a walk reaches
    every monotone map but not with perfectly uniform weight.  A walk that
    enters more than n + CLOSURE_CAP // n levels for one letter, backing
    out of dead ends, raises ResourceCap.
    """
    if n < 2:
        raise BadSize(f"need n >= 2 for a proper final set, got {n}")
    if letters < 1:
        raise BadSize("need at least one letter")
    # the order takes n^2 steps to build and the letters n*letters entries
    if n * n > CLOSURE_CAP or n * letters > CLOSURE_CAP:
        raise ResourceCap(f"a random DFA on {n} states with {letters} letters "
                          f"needs n*n and n*letters at most {CLOSURE_CAP}")
    rng = random.Random(seed)
    po = _random_order(rng, n)
    finals = _random_convex_finals(rng, po)
    walk = _respecting_walk(po)
    names = letter_names(letters)
    delta = tuple(next(walk(rng, letter)) for letter in names)
    return Dfa(n, names, delta, finals)


# ---------------------------------------------------------------------------
# the probe

@dataclass(frozen=True)
class ProbeResult:
    n: int
    orders: int
    configurations: int
    proper_count: int
    max_syntactic: int
    formula: int
    best_order: Preorder
    best_finals: frozenset[int]

    @property
    def achieves_formula(self) -> bool:
        return self.max_syntactic == self.formula

    def lines(self):
        yield (f"probe n={self.n} orders={self.orders} "
               f"configurations={self.configurations} proper={self.proper_count} "
               f"max={self.max_syntactic} formula={self.formula} "
               f"achieves={'true' if self.achieves_formula else 'false'}")
        yield "best-order"
        for row in self.best_order.dump().splitlines():
            yield "  " + row
        yield "best-final " + " ".join(str(q) for q in sorted(self.best_finals))


def _up_closed_sets(up):
    '''Up-closed sets of 0..k-1 as bit masks; up[u] masks the points above u.'''
    sets = [0]
    for u, above in enumerate(up):
        sets += [s | 1 << u for s in sets if above & ~s == 0]
    return sets


def _class_key(up):
    """The least relabelling of a poset, given by the masks of the points
    strictly above each point, among those that sort the points by up-set
    and then down-set size.  These turn isomorphic posets into the same
    set of matrices, so the least is canonical.  A point has fewer points
    above it than any point below it, so the key lists each point only
    below earlier ones.

    So the masks of a cell of equal sizes depend only on the labels of
    the cells before it, and the key is least cell by cell: each cell
    takes its masks in increasing order, from the labellings of the
    earlier cells that make them least.  Points with equal masks there
    are then labelled each way, with two savings that keep the least key:
    - a point no point lies below is in no mask, so it needs no label,
      and the others take the lowest labels of their run of equal masks,
      which leaves every comparison of masks as it was;
    - points with equal masks and equal down-sets are swapped by an
      automorphism, so one order of them is enough.
    """
    m = len(up)
    above = [list(_bits(mask)) for mask in up]
    down = [0] * m
    for b, points in enumerate(above):
        for a in points:
            down[a] |= 1 << b
    size = [(up[a].bit_count(), down[a].bit_count()) for a in range(m)]
    cells = {}
    for a in sorted(range(m), key=size.__getitem__):
        cells.setdefault(size[a], []).append(a)
    (key, start) = ((), 0)
    # partial labellings: label[a] is the bit of the new label of point a
    labellings = [[0] * m]
    for cell in cells.values():
        if len(cell) == 1 == len(labellings):
            ((a,), label) = (cell, labellings[0])
            key += (sum(map(label.__getitem__, above[a])),)
            label[a] = 1 << start
            start += 1
            continue
        blocks = {}
        for label in labellings:
            masks = sorted((sum(map(label.__getitem__, above[a])), a) for a in cell)
            blocks.setdefault(tuple(mask for mask, _ in masks), []).append(
                (label, masks))
        least = min(blocks)
        key += least
        if start + len(cell) == m:
            return key
        labellings = []
        for label, masks in blocks[least]:
            (ways, first) = ([], start)
            for _, run in groupby(masks, itemgetter(0)):
                run = [a for _, a in run]
                named = [a for a in run if down[a]]
                if len(named) > 1:
                    orders = {tuple(down[a] for a in order): order
                              for order in permutations(named)}
                    ways.append([(order, first) for order in orders.values()])
                elif named:
                    label[named[0]] = 1 << first
                first += len(run)
            for choice in product(*ways):
                new = label[:] if ways else label
                for order, first in choice:
                    for i, a in enumerate(order, first):
                        new[a] = 1 << i
                labellings.append(new)
        start += len(cell)
    return key


def _nonzero_posets(n):
    """Partial orders on the non-zero states, one per isomorphism class,
    each as its _class_key: the masks of the points strictly above each
    point.

    Each poset is a smaller one with a minimal point added below an
    up-closed set (Brinkmann & McKay 2002).  So each level adds a point
    below each up-closed set of each class key one point smaller, and
    keeps the distinct keys of those posets in the order first met.
    """
    keys = [()]
    for _ in range(n - 1):
        grown = (up + (above,) for up in keys for above in _up_closed_sets(up))
        keys = list(dict.fromkeys(map(_class_key, grown)))
    return keys


def _least_labelling(up):
    """How a sweep of every relation, by increasing bit code over the
    off-diagonal pairs, meets the class of a poset: that least code, and
    the poset relabelled to its least 0/1 matrix, each over every
    relabelling.

    Row p of a relabelling has no bit p, so its pairs in the code are the
    row with bit p taken out, shifted to p * (m - 1); and matrix rows read
    from column 0 compare as the rows with their m bits reversed.
    """
    m = len(up)
    above = [list(_bits(mask)) for mask in up]
    views = []
    for order in permutations(range(m)):
        new = [0] * m
        for i, a in enumerate(order):
            new[a] = 1 << i
        views.append([sum(map(new.__getitem__, above[a])) for a in order])
    low = [(1 << p) - 1 for p in range(m)]
    code = min(sum((row & low[p] | row >> 1 & ~low[p]) << p * (m - 1)
                   for p, row in enumerate(view)) for view in views)
    reverse = [int(format(row, f"0{m}b")[::-1], 2) for row in range(1 << m)]
    least = min(views, key=lambda view: [reverse[row | 1 << p]
                                         for p, row in enumerate(view)])
    return (code, tuple(least))


def _probe_order(n, up):
    '''The order of a poset on the non-zero states, with 0 above it all.'''
    return Preorder(n, [1] + [1 | 1 << p + 1 | above << 1
                              for p, above in enumerate(up)])


def _counted_masks(up):
    """The up and down masks of _probe_order for a class key, with the
    states numbered from the bottom: key point p is state m-1-p of the m
    points, and 0 on top is state m.  A relabelling keeps the count of
    monotone maps, and a count that gives the minimal points their images
    first stops sooner below a floor."""
    m = len(up)
    bit = [1 << m - 1 - p for p in range(m)]
    (ups, downs) = ([b | 1 << m for b in bit], bit[:])
    for p, above in enumerate(up):
        for a in _bits(above):
            ups[p] |= bit[a]
            downs[a] |= bit[p]
    return (ups[::-1] + [1 << m], downs[::-1] + [(2 << m) - 1])


def _convex_counts(up):
    """(|C(P)|, |I(P)|): the convex and the down-closed sets of the poset
    of a class key, the empty set included in both.

    The walk decides the points in key order and keeps pairs (C, B): C the
    points taken, B the points left out that lie below a point of C.  A
    point may join C only if no point above it is in B, and a point left
    out joins B if a point above it is in C.  A key lists each point only
    below earlier ones, so every prefix of a convex set is convex, and the
    pairs need only the points that a later point lies below: pairs that
    agree on those are merged.  C is down-closed exactly when no point
    ever joined B, which one more bit records.
    """
    m = len(up)
    later = [0] * m
    for k in range(m - 1, 0, -1):
        later[k - 1] = later[k] | up[k]
    # each pair as one int: C in the low m bits, B above them, and above
    # both the bit set once a point has joined B
    (pairs, joined_b) = ({0: 1}, 1 << 2 * m)
    for k, above in enumerate(up):
        (bit, above_b) = (1 << k, above << m)
        keep = later[k] | later[k] << m | joined_b
        grown = {}
        for pair, count in pairs.items():
            if not pair & above_b:
                joined = (pair | bit) & keep
                grown[joined] = grown.get(joined, 0) + count
            left = (pair | bit << m | joined_b if pair & above else pair) & keep
            grown[left] = grown.get(left, 0) + count
        pairs = grown
    return (sum(pairs.values()), pairs.get(0, 0))


def probe_conjecture(n: int) -> ProbeResult:
    """Exhaustive search for the largest syntactic complexity reachable
    from order-generated systems.

    Grows one partial order per isomorphism class on the non-zero states,
    each from a class one point smaller, and puts 0 above them all.  For
    an order P with monotone maps M, a convex final set F gives the DFA
    with M as letters.  Its flags and its syntactic size follow from P:

    - Walks take one step.  M is a monoid, so the tuples reached from a
      tuple t are exactly the images m(t), m in M.
    - The pairs are the order.  The pairs reached from the (q, 0) are
      exactly the x <= y: a monotone map keeps m(q) <= m(0), and the map
      sending the down-set of q to x and every other state to y is
      monotone.
    - The flags.  So L is suffix-closed exactly when F is up-closed, and
      a left ideal exactly when F is nonempty and down-closed.  Constant
      maps are monotone, so a nonempty F is never suffix-free.  With 0 on
      top, a convex F that holds 0 is up-closed, so the configuration is
      proper exactly when 0 is not in F and F is not down-closed.
    - Minimality.  When F is neither up- nor down-closed, the same
      two-valued maps separate any two states, so every proper DFA is
      minimal and its syntactic semigroup is M.

    So the counts come from the class key.  Let C(P) be the convex sets of
    the poset P on the non-zero states and I(P) its down-closed sets, the
    empty set in both.  The convex sets that hold 0 are {0} joined to an
    up-closed set of P, as many as I(P) by complement, and those that do
    not are C(P), of which the down-closed ones are not proper.  So there
    are |C(P)| + |I(P)| - 2 configurations, none and all left out, and
    |C(P)| - |I(P)| proper ones; P has one exactly when it is not an
    antichain.  _convex_counts walks the key once for both.

    Only the maps of orders with a proper configuration are counted, by
    the programme of monotone_count, and each count stops once it is sure
    to fall below the largest so far, so ties are counted in full.  The
    search space covers only order-generated systems, so the result is an
    exploratory lower bound, not a refutation procedure.  It runs for
    2 <= n <= 9; a smaller n raises BadSize and a larger one ResourceCap.

    The classes are keyed by _class_key, the least matrix over the
    relabellings that sort the points by up-set and down-set size.  Ties
    at the maximum are broken as by a sweep of every relation on the
    non-zero states in increasing bit code: among the classes with a
    proper configuration and the largest count, the best order is the one
    with the least code over all its labellings, printed in its least 0/1
    matrix over all relabellings, with its first proper final set in
    increasing bit mask.  Only the tied classes pay for all (n-1)!
    relabellings.
    """
    if n < 2:
        raise BadSize(f"the probe needs n >= 2, got {n}")
    if n > 9:
        raise ResourceCap(f"the probe enumerates orders only for 2 <= n <= 9, got {n}")
    classes = _nonzero_posets(n)
    configurations = 0
    proper_count = 0
    (best_size, tied) = (0, [])
    for up in classes:
        (convex, ideals) = _convex_counts(up)
        configurations += convex + ideals - 2
        proper_count += convex - ideals
        if not any(up):
            continue
        size = _count_monotone(n, *_counted_masks(up), best_size)
        if size >= best_size:
            if size > best_size:
                (best_size, tied) = (size, [])
            tied.append(up)
    if tied:
        best = _probe_order(n, min(map(_least_labelling, tied))[1])
        # the least convex mask that misses 0 and is not down-closed
        finals = next(f for f in range(2, 1 << n, 2)
                      if _convex_violation(best, f) is None
                      and any(best.down[g] & ~f for g in _bits(f)))
    else:
        (best, finals) = (antichain_order(n), 0)
    return ProbeResult(n, len(classes), configurations, proper_count, best_size,
                       syntactic_bound(n), best, frozenset(_bits(finals)))
