"""Slow reference implementations used to cross-check the library.

Everything here is written for clarity over speed and avoids the code
paths it is meant to check: no subset construction, no partition
refinement, no numpy.
"""

from __future__ import annotations

from itertools import permutations, product

from sconvex import Preorder


def accepts(d, word):
    """Run a word by stepping the raw transition table."""
    q = 0
    for letter in word:
        q = d.delta[d.alphabet.index(letter)][q]
    return q in d.finals


def accepts_star(d, word):
    """Whether word is in L(d)*, by splitting it at every position: a prefix
    of word is in L(d)* when it is empty or when it is a shorter prefix in
    L(d)* followed by a factor in L(d)."""
    word = tuple(word)
    starred = [True]
    for j in range(1, len(word) + 1):
        starred.append(any(starred[i] and accepts(d, word[i:j]) for i in range(j)))
    return starred[-1]


def accepts_concat(d1, d2, word):
    """Whether word is in L(d1) L(d2), by splitting it at every position."""
    word = tuple(word)
    return any(accepts(d1, word[:i]) and accepts(d2, word[i:])
               for i in range(len(word) + 1))


def brute_force_suffix_convex(d, max_len=None):
    """Word-level convexity check over all words up to max_len letters.

    For each word x, every suffix of x is run through the DFA; the set of
    accepted suffix start positions must be an interval, otherwise x
    splits into a violating (u, v, w).  Words are explored depth first
    while carrying the vector of states reached from every suffix start,
    and a repeated vector cannot lead to a new outcome, so it is pruned.

    Returns (True, None) or (False, (u, v, w)) with each part a tuple of
    letters.
    """
    if max_len is None:
        max_len = 2 * d.n + 2
    start = (0,)
    seen = {start}
    stack = [((), start)]
    while stack:
        word, states = stack.pop()
        hits = [i for i, q in enumerate(states) if q in d.finals]
        if hits and hits[-1] - hits[0] + 1 != len(hits):
            for j in range(hits[0] + 1, hits[-1]):
                if j not in hits:
                    i, k = hits[0], hits[-1]
                    return False, (word[i:j], word[j:k], word[k:])
        if len(word) == max_len:
            continue
        for k, row in enumerate(d.delta):
            letter = d.alphabet[k]
            nxt = tuple(row[q] for q in states) + (0,)
            if nxt not in seen:
                seen.add(nxt)
                stack.append((word + (letter,), nxt))
    return True, None


def brute_force_special_classes(d):
    """Left ideal, suffix-closed and suffix-free flags from a walk over words.

    A word x is summarised by (s, S): s is the state reached by x, and S is
    the set of states reached by the proper suffixes of x, the empty word
    among them once x is nonempty.  The proper suffixes of xa are ya for
    each proper suffix y of x, plus the empty word, so appending a letter
    maps (s, S) to (s.a, S.a | {0}).  The space of summaries is finite, and
    a worklist visits the summary of every word.  Then:

    - left ideal: some word is accepted, and x is accepted whenever one of
      its proper suffixes is;
    - suffix-closed: every proper suffix of an accepted word is accepted;
    - suffix-free: no proper suffix of an accepted word is accepted.

    Returns (left_ideal, suffix_closed, suffix_free).
    """
    start = (0, frozenset())
    seen = {start}
    frontier = [start]
    while frontier:
        s, suffixes = frontier.pop()
        for row in d.delta:
            nxt = (row[s], frozenset(row[t] for t in suffixes) | {0})
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    accepted = [suffixes for s, suffixes in seen if s in d.finals]
    left_ideal = bool(accepted) and all(
        s in d.finals for s, suffixes in seen if suffixes & d.finals)
    suffix_closed = all(suffixes <= d.finals for suffixes in accepted)
    suffix_free = not any(suffixes & d.finals for suffixes in accepted)
    return left_ideal, suffix_closed, suffix_free


def signature_atom_count(d):
    """Count distinct acceptance signatures over all words.

    The signature of a word w is the set of states from which w is
    accepted.  Distinct signatures are in bijection with the atoms of the
    language, so this counts atoms without building the reverse automaton.
    The walk runs over image vectors, which stay within the transition
    semigroup plus the identity and so terminate for any complete DFA.
    """
    ident = tuple(range(d.n))
    seen = {ident}
    frontier = [ident]
    signatures = {frozenset(q for q in range(d.n) if q in d.finals)}
    while frontier:
        vec = frontier.pop()
        for row in d.delta:
            nxt = tuple(row[q] for q in vec)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                signatures.add(frozenset(q for q in range(d.n)
                                         if nxt[q] in d.finals))
    return len(signatures)


def table_filling_complexity(d):
    """Minimal state count by the pairwise marking method."""
    reach = sorted(set(d.reachable()))
    marked = set()
    for p in reach:
        for q in reach:
            if p < q and (p in d.finals) != (q in d.finals):
                marked.add((p, q))
    changed = True
    while changed:
        changed = False
        for p in reach:
            for q in reach:
                if p < q and (p, q) not in marked:
                    for row in d.delta:
                        a, b = row[p], row[q]
                        if a > b:
                            a, b = b, a
                        if a != b and (a, b) in marked:
                            marked.add((p, q))
                            changed = True
                            break
    classes = []
    for p in reach:
        for cls in classes:
            q = cls[0]
            a, b = (p, q) if p < q else (q, p)
            if a == b or (a, b) not in marked:
                cls.append(p)
                break
        else:
            classes.append([p])
    return len(classes)


def naive_monotone_maps(po):
    """All self-maps that preserve the order relation, by direct filtering."""
    n = po.n
    leq = matrix_of(po)
    pairs = [(p, q) for p in range(n) for q in range(n) if leq[p][q]]
    out = []
    for image in product(range(n), repeat=n):
        if all(leq[image[p]][image[q]] for p, q in pairs):
            out.append(image)
    return out


def naive_respecting_maps(s):
    """All self-maps t respecting a triple system, lexicographic, straight
    from the definition: (pt, qt, rt) is in R for every (p, q, r) in R
    (Condition 1), and (0, qt, rt) is in R for every (0, q, r) in R
    (Condition 2)."""
    R = s.triples
    out = []
    for image in product(range(s.n), repeat=s.n):
        if all((image[p], image[q], image[r]) in R for (p, q, r) in R) and \
                all((0, image[q], image[r]) in R for (z, q, r) in R if z == 0):
            out.append(image)
    return out


def naive_closure(generators):
    """Semigroup closure as a plain worklist over image tuples."""
    gens = [tuple(t.image) for t in generators]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = tuple(g[q] for q in u)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def quotient_contains(d, p, q):
    """Whether the left quotient at state p is contained in the one at q:
    no word takes the pair (p, q) to (final, non-final).  A plain worklist
    over the pairs the words reach."""
    seen = {(p, q)}
    frontier = [(p, q)]
    while frontier:
        (x, y) = frontier.pop()
        if x in d.finals and y not in d.finals:
            return False
        for row in d.delta:
            nxt = (row[x], row[y])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def naive_canonical_triples(d):
    """The canonical system's relation straight from its definition:
    (p, q, r) is in R exactly when no word leads the state triple into
    (final, final, non-final).  Each triple gets its own forward walk over
    the triples its words reach: no preimages and nothing shared between
    the walks."""
    out = set()
    for start in product(range(d.n), repeat=3):
        seen = {start}
        frontier = [start]
        while frontier:
            (p, q, r) = frontier.pop()
            if p in d.finals and q in d.finals and r not in d.finals:
                break
            for row in d.delta:
                nxt = (row[p], row[q], row[r])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        else:
            out.add(start)
    return out


def naive_axiom_c(n, triples):
    """The first triple axiom (C) misses, or None, straight from its
    statement: for (p, q, r) and (q, r, s) in R, (p, q, s) is in R.  R is
    walked in sorted order and s runs over 0..n-1, so a violation found is
    the lexicographically first one, which TripleSystem should report."""
    R = frozenset(tuple(t) for t in triples)
    for (p, q, r) in sorted(R):
        for s in range(n):
            if (q, r, s) in R and (p, q, s) not in R:
                return (p, q, s)
    return None


def naive_nonzero_posets(n):
    """Partial orders on n-1 points, one per isomorphism class, by sweeping
    every relation, keeping the reflexive, antisymmetric and transitive
    ones, and taking the minimum matrix over all relabellings.  A class is
    listed where the sweep, by increasing bit code over the off-diagonal
    pairs, first meets it."""
    m = n - 1
    pairs = [(p, q) for p in range(m) for q in range(m) if p != q]
    perms = list(permutations(range(m)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        rel = [[p == q for q in range(m)] for p in range(m)]
        for i, (p, q) in enumerate(pairs):
            if bits >> i & 1:
                rel[p][q] = True
        if any(rel[p][q] and rel[q][p] for (p, q) in pairs):
            continue
        if any(rel[p][q] and rel[q][r] and not rel[p][r]
               for (p, q) in pairs for r in range(m)):
            continue
        canon = min(tuple(tuple(rel[pi[p]][pi[q]] for q in range(m))
                          for p in range(m)) for pi in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def naive_class_key(up):
    """The least of the poset's relabellings that sort the points by
    up-set and then down-set size, by trying every such relabelling; up[a]
    masks the points strictly above a."""
    m = len(up)
    down = [sum(1 << b for b in range(m) if up[b] >> a & 1) for a in range(m)]
    size = [(bin(up[a]).count("1"), bin(down[a]).count("1")) for a in range(m)]
    cells = {}
    for a in sorted(range(m), key=size.__getitem__):
        cells.setdefault(size[a], []).append(a)
    views = []
    for choice in product(*map(permutations, cells.values())):
        order = sum(choice, ())
        label = {a: i for i, a in enumerate(order)}
        views.append(tuple(sum(1 << label[b] for b in range(m) if up[a] >> b & 1)
                           for a in order))
    return min(views)


def matrix_of(po):
    """The n by n 0/1 matrix of a Preorder, read bit by bit off its up
    masks: entry [p][q] is True when p <= q."""
    return tuple(tuple(bool(po.up[p] >> q & 1) for q in range(po.n))
                 for p in range(po.n))


def preorder_from_matrix(leq):
    """The Preorder whose matrix is leq, with up[p] the sum of the bits its
    row p sets."""
    return Preorder(len(leq), [sum(1 << q for q, x in enumerate(row) if x)
                               for row in leq])


def total_order_matrix(n):
    """The chain n-1 below ... below 1 below 0, entry by entry."""
    return tuple(tuple(p >= q for q in range(n)) for p in range(n))


def antichain_order_matrix(n):
    """Reflexivity and everything below 0, entry by entry."""
    return tuple(tuple(q == 0 or p == q for q in range(n)) for p in range(n))


def reversal_order_matrix(n):
    """The antichain on n states with 2 below 1 added, entry by entry."""
    return tuple(tuple(p == q or q == 0 or (p == 2 and q == 1)
                       for q in range(n)) for p in range(n))


def preorder_of_matrix(s):
    """The derived relation of a triple system, entry by entry: p below q
    exactly when (0, p, q) is in R."""
    return tuple(tuple(s.contains(0, p, q) for q in range(s.n))
                 for p in range(s.n))


def first_transitivity_violation(leq):
    """The (p, q, r) that Preorder names for a relation that is not
    transitive, or None: p <= q <= r without p <= r, least p first, then
    least q, then least r.  Every pair (p, q) is tested, each by one mask
    of the states above q that are not above p."""
    n = len(leq)
    up = [sum(1 << r for r, x in enumerate(row) if x) for row in leq]
    for p in range(n):
        for q in range(n):
            extra = up[q] & ~up[p] if leq[p][q] else 0
            if extra:
                return p, q, (extra & -extra).bit_length() - 1
    return None


def first_convexity_violation(leq, finals):
    """The (f, g, h) that a convexity check names for a final set that is
    not convex, or None: f <= g <= h with f and h final and g not, f and h
    in the iteration order of finals, then least g."""
    for f in finals:
        for h in finals:
            for g in range(len(leq)):
                if g not in finals and leq[f][g] and leq[g][h]:
                    return (f, g, h)
    return None


def naive_order_properties(leq):
    """(is_partial_order, is_total_comparability, symmetric_pairs,
    comparable_nonzero_pairs) of a preorder matrix, by one pass over every
    pair of distinct states."""
    n = len(leq)
    sym = set()
    antisymmetric = True
    total = True
    nonzero = set()
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if not leq[p][q] and not leq[q][p]:
                total = False
            if leq[p][q]:
                if leq[q][p]:
                    antisymmetric = False
                    sym.add((min(p, q), max(p, q)))
                if p != 0 and q != 0:
                    nonzero.add((p, q))
    return (antisymmetric, total, frozenset(sym), frozenset(nonzero))
