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

from dataclasses import dataclass

import numpy as np

from .automata import Dfa, is_minimal
from .classify import is_suffix_convex
from .errors import (AxiomViolation, FormatError, NonConvexFinals, NotMinimal,
                     NotPartialOrder, NotSuffixConvex, ResourceCap,
                     SizeMismatch, StateOutOfRange)
from .transformations import CLOSURE_CAP, Semigroup, Transformation

Triple = tuple[int, int, int]


def base_triples(n: int) -> set[Triple]:
    '''The triples every system must contain: third coordinate in {p, q}.'''
    out = set()
    for p in range(n):
        for q in range(n):
            out.add((p, q, p))
            out.add((p, q, q))
    return out


@dataclass(frozen=True)
class TripleSystem:
    n: int
    finals: frozenset[int]
    triples: frozenset[Triple]

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "triples", frozenset(self.triples))

    def contains(self, p: int, q: int, r: int) -> bool:
        return (p, q, r) in self.triples

    def cube(self) -> np.ndarray:
        '''Dense membership cube, shape (n, n, n), cached.'''
        cached = self.__dict__.get("_cube")
        if cached is None:
            cached = np.zeros((self.n, self.n, self.n), dtype=bool)
            for (p, q, r) in self.triples:
                cached[p, q, r] = True
            cached.setflags(write=False)
            object.__setattr__(self, "_cube", cached)
        return cached

    def scan_triples(self) -> np.ndarray:
        """Triples that a Condition-1 scan must visit, as an array of rows.

        Triples with third coordinate p or q hold in every system by axioms
        (A) and (B), and (B) pairs (p,q,r) with (q,p,r), so the scan keeps
        one representative with p <= q and a third coordinate outside {p,q}.
        """
        cached = self.__dict__.get("_scan")
        if cached is None:
            rows = sorted((p, q, r) for (p, q, r) in self.triples
                          if p <= q and r != p and r != q)
            cached = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
            cached.setflags(write=False)
            object.__setattr__(self, "_scan", cached)
        return cached

    def to_text(self) -> str:
        lines = [f"states {self.n}",
                 "final" + "".join(f" {q}" for q in sorted(self.finals))]
        listed = sorted((p, q, r) for (p, q, r) in self.triples
                        if p <= q and r != p and r != q)
        lines.extend(f"{p} {q} {r}" for (p, q, r) in listed)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TripleSystem":
        n = None
        finals = None
        listed = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            pos = raw.find("#")
            line = (raw[:pos] if pos >= 0 else raw).strip()
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
        triples = set(base_triples(n))
        for (p, q, r) in listed:
            triples.add((p, q, r))
            triples.add((q, p, r))
        return make_triple_system(n, finals, triples)


def make_triple_system(n: int, finals, triples) -> TripleSystem:
    """Validate the four axioms and build the system.

    Raises AxiomViolation naming the failed axiom and, for (A), (B), (C),
    the missing triple; for (D) the offending one.
    """
    finals = frozenset(finals)
    R = frozenset(tuple(t) for t in triples)
    for q in finals:
        if not 0 <= q < n:
            raise StateOutOfRange(f"final state {q} outside 0..{n - 1}")
    for t in R:
        if len(t) != 3:
            raise FormatError(f"not a triple: {t}")
        for q in t:
            if not 0 <= q < n:
                raise StateOutOfRange(f"state {q} outside 0..{n - 1}")
    for p in range(n):
        for q in range(n):
            if (p, q, p) not in R:
                raise AxiomViolation("A", (p, q, p))
    for (p, q, r) in R:
        if (q, p, r) not in R:
            raise AxiomViolation("B", (q, p, r))
    for (p, q, r) in R:
        for s in range(n):
            if (q, r, s) in R and (p, q, s) not in R:
                raise AxiomViolation("C", (p, q, s))
    for (p, q, r) in R:
        if p in finals and q in finals and r not in finals:
            raise AxiomViolation("D", (p, q, r))
    return TripleSystem(n, finals, R)


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

    On failure the result carries the condition number and the triple of R
    whose image escapes.
    """
    if t.n != s.n:
        raise SizeMismatch(f"transformation on {t.n} states, system on {s.n}")
    img = t.image
    R = s.triples
    for (p, q, r) in R:
        if p <= q and r != p and r != q:
            if (img[p], img[q], img[r]) not in R:
                return RespectCheck(False, 1, (p, q, r))
    for (z, q, r) in R:
        if z == 0 and (0, img[q], img[r]) not in R:
            return RespectCheck(False, 2, (0, q, r))
    return RespectCheck(True)


def dfa_respects(d: Dfa, s: TripleSystem) -> bool:
    '''Whether every letter of d respects s; enough, by composition closure.'''
    if d.n != s.n:
        raise SizeMismatch(f"DFA on {d.n} states, system on {s.n}")
    return all(respects(Transformation(d.n, row), s) for row in d.delta)


# ---------------------------------------------------------------------------
# canonical system of a DFA

def canonical_system(d: Dfa) -> TripleSystem:
    """The largest system the language of d respects.

    (p, q, r) enters R exactly when no word leads the state triple into
    (final, final, non-final).  Requires d minimal and L(d) suffix-convex;
    the result then satisfies the axioms and d respects it.
    """
    if not is_minimal(d):
        raise NotMinimal("canonical_system needs a minimal DFA")
    convex, counterexample = is_suffix_convex(d)
    if not convex:
        raise NotSuffixConvex(f"language is not suffix-convex: {counterexample}")
    n = d.n
    pre = [[[] for _ in range(n)] for _ in d.alphabet]
    for k in range(len(d.alphabet)):
        for p in range(n):
            pre[k][d.delta[k][p]].append(p)
    reaches_bad = np.zeros((n, n, n), dtype=bool)
    stack = []
    for p in d.finals:
        for q in d.finals:
            for r in range(n):
                if r not in d.finals:
                    reaches_bad[p, q, r] = True
                    stack.append((p, q, r))
    while stack:
        (x, y, z) = stack.pop()
        for k in range(len(d.alphabet)):
            for p in pre[k][x]:
                for q in pre[k][y]:
                    for r in pre[k][z]:
                        if not reaches_bad[p, q, r]:
                            reaches_bad[p, q, r] = True
                            stack.append((p, q, r))
    triples = {(p, q, r)
               for p in range(n) for q in range(n) for r in range(n)
               if not reaches_bad[p, q, r]}
    return make_triple_system(n, d.finals, triples)


# ---------------------------------------------------------------------------
# preorders

@dataclass(frozen=True)
class Preorder:
    """A preorder on Q_n with 0 as a maximum element.

    leq[p][q] means p is below (or equivalent to) q.
    """

    n: int
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "leq",
                           tuple(tuple(bool(x) for x in row) for row in self.leq))
        if len(self.leq) != self.n or any(len(row) != self.n for row in self.leq):
            raise FormatError("leq must be an n by n matrix")
        for p in range(self.n):
            if not self.leq[p][p]:
                raise FormatError(f"preorder not reflexive at {p}")
            if not self.leq[p][0]:
                raise FormatError(f"state 0 must be a maximum, but {p} is not below it")
        for p in range(self.n):
            for q in range(self.n):
                if not self.leq[p][q]:
                    continue
                for r in range(self.n):
                    if self.leq[q][r] and not self.leq[p][r]:
                        raise FormatError(
                            f"preorder not transitive: {p} <= {q} <= {r}")

    def below(self, p: int, q: int) -> bool:
        return self.leq[p][q]

    def strictly_below(self, p: int, q: int) -> bool:
        return self.leq[p][q] and not self.leq[q][p]

    def equivalent(self, p: int, q: int) -> bool:
        return self.leq[p][q] and self.leq[q][p]

    def matrix(self) -> np.ndarray:
        return np.array(self.leq, dtype=bool)

    def dump(self) -> str:
        '''n lines of n space-separated 0/1 entries.'''
        return "\n".join(" ".join("1" if x else "0" for x in row)
                         for row in self.leq) + "\n"


@dataclass(frozen=True)
class OrderProperties:
    is_partial_order: bool
    is_total_comparability: bool
    symmetric_pairs: frozenset[tuple[int, int]]
    comparable_nonzero_pairs: frozenset[tuple[int, int]]


def preorder_of(s: TripleSystem) -> Preorder:
    '''The derived relation: p below q exactly when (0, p, q) is in R.'''
    leq = tuple(tuple((0, p, q) in s.triples for q in range(s.n))
                for p in range(s.n))
    return Preorder(s.n, leq)


def order_properties(po: Preorder) -> OrderProperties:
    """Shape summary of a preorder.

    symmetric_pairs lists unordered pairs p < q that are equivalent;
    comparable_nonzero_pairs lists ordered pairs (p, q) of distinct
    non-zero states with p below q.
    """
    sym = set()
    antisymmetric = True
    total = True
    nonzero = set()
    for p in range(po.n):
        for q in range(po.n):
            if p == q:
                continue
            if not po.leq[p][q] and not po.leq[q][p]:
                total = False
            if po.leq[p][q]:
                if po.leq[q][p]:
                    antisymmetric = False
                    sym.add((min(p, q), max(p, q)))
                if p != 0 and q != 0:
                    nonzero.add((p, q))
    return OrderProperties(
        is_partial_order=antisymmetric,
        is_total_comparability=total,
        symmetric_pairs=frozenset(sym),
        comparable_nonzero_pairs=frozenset(nonzero),
    )


def _require_partial_order(po: Preorder):
    props = order_properties(po)
    if not props.is_partial_order:
        pair = min(props.symmetric_pairs)
        raise NotPartialOrder(f"states {pair[0]} and {pair[1]} are equivalent")


def _convex_violation(po: Preorder, finals):
    '''The first (f, g, h) with f <= g <= h, f and h final and g not, or None.'''
    leq = po.leq
    for f in finals:
        for h in finals:
            for g in range(po.n):
                if g not in finals and leq[f][g] and leq[g][h]:
                    return (f, g, h)
    return None


def _check_convex_finals(po: Preorder, finals):
    bad = _convex_violation(po, finals)
    if bad is not None:
        (f, g, h) = bad
        raise NonConvexFinals(f"{f} <= {g} <= {h} with {g} outside the final set")


# ---------------------------------------------------------------------------
# monotone transformations and the order construction

def _all_maps(n: int, cap: int) -> np.ndarray:
    '''Every image vector of Q_n, lexicographic, as an (n^n, n) uint8 array.'''
    total = n ** n
    if total > cap:
        raise ResourceCap(f"{total} candidate transformations exceed the cap {cap}")
    arr = np.empty((total, n), dtype=np.uint8)
    for pos in range(n):
        block = n ** (n - 1 - pos)
        pattern = np.repeat(np.arange(n, dtype=np.uint8), block)
        arr[:, pos] = np.tile(pattern, n ** pos)
    return arr


def _monotone_mask(arr: np.ndarray, leq: np.ndarray) -> np.ndarray:
    n = leq.shape[0]
    mask = np.ones(len(arr), dtype=bool)
    for p in range(n):
        for q in range(n):
            if p != q and leq[p][q]:
                mask &= leq[arr[:, p], arr[:, q]]
    return mask


def _semigroup_from_rows(n: int, rows: np.ndarray) -> Semigroup:
    images = tuple(bytes(row) for row in rows)
    return Semigroup(n, (), images)


def monotone_transformations(po: Preorder, cap: int = CLOSURE_CAP) -> Semigroup:
    """All transformations monotone for a partial order, lexicographic.

    Monotone means p below q forces pt below qt.  The order must be
    antisymmetric with maximum 0; the collection is closed under
    composition, so it is returned as a Semigroup with no generator list.
    """
    _require_partial_order(po)
    arr = _all_maps(po.n, cap)
    mask = _monotone_mask(arr, po.matrix())
    return _semigroup_from_rows(po.n, arr[mask])


def maximal_semigroup(s: TripleSystem, cap: int = CLOSURE_CAP) -> Semigroup:
    """Every transformation respecting s, by exhaustive enumeration.

    Candidates failing Condition 2 (monotonicity for the derived preorder)
    are pruned before the triple scan.  Lexicographic element order.
    """
    n = s.n
    arr = _all_maps(n, cap)
    leq = preorder_of(s).matrix()
    arr = arr[_monotone_mask(arr, leq)]
    scan = s.scan_triples()
    if len(scan) and len(arr):
        cube_flat = s.cube().reshape(-1)
        mask = np.ones(len(arr), dtype=bool)
        for (p, q, r) in scan:
            idx = (arr[:, p].astype(np.int64) * n + arr[:, q]) * n + arr[:, r]
            mask &= cube_flat[idx]
        arr = arr[mask]
    return _semigroup_from_rows(n, arr)


def order_system(po: Preorder, finals) -> TripleSystem:
    """The triple system induced by a partial order and a convex final set.

    R holds the mandatory triples plus every (p, q, r) with r between p
    and q in the order, in either orientation.
    """
    _require_partial_order(po)
    finals = frozenset(finals)
    for f in finals:
        if not 0 <= f < po.n:
            raise StateOutOfRange(f"final state {f} outside 0..{po.n - 1}")
    _check_convex_finals(po, finals)
    triples = base_triples(po.n)
    for p in range(po.n):
        for q in range(po.n):
            for r in range(po.n):
                if (po.leq[p][r] and po.leq[r][q]) or (po.leq[q][r] and po.leq[r][p]):
                    triples.add((p, q, r))
    return make_triple_system(po.n, finals, triples)


def letter_names(count: int) -> tuple[str, ...]:
    '''Canonical letter names t000, t001, ... widened past a thousand.'''
    width = max(3, len(str(count - 1))) if count else 3
    return tuple(f"t{i:0{width}d}" for i in range(count))


def monotone_dfa(po: Preorder, finals, cap: int = CLOSURE_CAP) -> Dfa:
    """The DFA with one letter per monotone transformation.

    With a convex final set that is neither empty nor everything, the
    result is minimal, suffix-convex, and respects order_system(po, finals).
    Letters are named t000, t001, ... in the lexicographic element order.
    """
    finals = frozenset(finals)
    if not finals or len(finals) >= po.n:
        raise ValueError("final set must be nonempty and proper")
    _check_convex_finals(po, finals)
    sg = monotone_transformations(po, cap)
    delta = tuple(tuple(img) for img in sg.images)
    return Dfa(po.n, letter_names(len(delta)), delta, finals)


def total_order(n: int) -> Preorder:
    '''The chain n-1 below ... below 1 below 0.'''
    return Preorder(n, tuple(tuple(p >= q for q in range(n)) for p in range(n)))


def antichain_order(n: int) -> Preorder:
    '''Only the forced comparabilities: reflexivity and everything below 0.'''
    return Preorder(n, tuple(tuple(q == 0 or p == q for q in range(n))
                             for p in range(n)))
