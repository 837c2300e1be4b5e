"""The subset construction and Moore minimization that `sconvex.automata`
used before its bit-mask and list-based kernels, kept verbatim as the pinned
reference for the cross-checks in test_kernels.py, except that the subset
construction's two epsilon-closure calls are plain frozensets, since an
`Nfa` has no epsilon edges.  Also the respecting-map enumerator that
`sconvex.triples` used before it checked Condition 1 as mask intersections,
which tested each candidate value against each scan triple.

This is not an independent oracle: it shares the algorithms it checks.
The oracles in oracles.py avoid subset construction and refinement.
"""

from sconvex.automata import SUBSET_CAP, Dfa, Nfa
from sconvex.errors import ResourceCap


def parent_minimize(d: Dfa) -> Dfa:
    """The canonical minimal complete DFA of L(d).

    States of the result are numbered by breadth-first discovery order over
    the alphabet order, so equal languages give byte-identical automata.
    """
    reach = d.reachable()
    # Moore partition refinement on the reachable part
    block = {q: int(q in d.finals) for q in reach}
    nblocks = len(set(block.values()))
    while True:
        sigs = {}
        newblock = {}
        for q in reach:
            sig = (block[q],) + tuple(block[row[q]] for row in d.delta)
            newblock[q] = sigs.setdefault(sig, len(sigs))
        block = newblock
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    # renumber blocks by BFS from the initial block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = [block[0]]
    number = {block[0]: 0}
    i = 0
    while i < len(order):
        b = order[i]
        i += 1
        q = rep[b]
        for row in d.delta:
            t = block[row[q]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
    m = len(order)
    delta = tuple(tuple(number[block[row[rep[b]]]] for b in order) for row in d.delta)
    finals = frozenset(number[b] for b in order if rep[b] in d.finals)
    return Dfa(m, d.alphabet, delta, finals)


def parent_determinize(m: Nfa, cap: int = SUBSET_CAP) -> Dfa:
    """Accessible subset construction.

    Subsets are numbered by breadth-first discovery with the alphabet order;
    the empty subset appears only when it is reachable.  Raises ResourceCap
    when more than `cap` subsets are discovered.
    """
    start = frozenset(m.initials)
    order = [start]
    index = {start: 0}
    rows = [[] for _ in m.alphabet]
    i = 0
    while i < len(order):
        S = order[i]
        i += 1
        for k in range(len(m.alphabet)):
            targets = set()
            for q in S:
                targets.update(m.delta[q][k])
            T = frozenset(targets)
            if T not in index:
                if len(order) >= cap:
                    raise ResourceCap(f"subset construction exceeded {cap} subsets")
                index[T] = len(order)
                order.append(T)
            rows[k].append(index[T])
    finals = frozenset(i for i, S in enumerate(order) if S & m.finals)
    return Dfa(len(order), m.alphabet, tuple(tuple(r) for r in rows), finals)


def parent_respecting_maps(n: int, leq, scan=(), masks=(), rng=None):
    """Every map of Q_n that is monotone for leq and keeps each scan triple
    inside R, given as `masks`, as image bytes (tuples above 256 states).

    States get their images in the order 0..n-1.  The candidates for q are
    the values at or above the image of every earlier state below q, and
    at or below the image of every earlier state above q; a scan triple is
    checked as soon as its largest state has an image.  Values are tried
    in increasing order, so the maps come out lexicographically.  With
    `rng`, each level is entered with one `rng.shuffle` of 0..n-1 and
    tries the values in that order instead: a randomized walk.
    """
    values = range(n)
    up = [sum(1 << v for v in values if leq[w][v]) for w in values]
    down = [sum(1 << v for v in values if leq[v][w]) for w in values]
    below = [[p for p in range(q) if leq[p][q]] for q in values]
    above = [[p for p in range(q) if leq[q][p]] for q in values]
    checks = [[] for _ in values]
    for t in scan:
        checks[max(t)].append(t)
    image = [0] * n
    pack = bytes if n <= 256 else tuple

    def candidates(q):
        mask = (1 << n) - 1
        for p in below[q]:
            mask &= up[image[p]]
        for p in above[q]:
            mask &= down[image[p]]
        order = values
        if rng is not None:
            order = list(values)
            rng.shuffle(order)
        out = []
        for v in order:
            if mask >> v & 1:
                image[q] = v
                if not checks[q] or all(masks[image[a] * n + image[b]] >> image[c] & 1
                                        for (a, b, c) in checks[q]):
                    out.append(v)
        return out

    if n == 0:
        yield b""
        return
    # pending[q] iterates over the candidates of state q not yet tried
    pending = [iter(candidates(0))]
    while pending:
        q = len(pending) - 1
        for image[q] in pending[q]:
            if q < n - 1:
                pending.append(iter(candidates(q + 1)))
                break
            yield pack(image)
        else:
            pending.pop()
